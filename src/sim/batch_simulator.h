// Structure-of-arrays batched scenario simulation: the word-parallel engine.
//
// Every SSA slot owns B contiguous 64-bit words (one word = one *scenario
// block* of 64 lanes), so a single walk of the levelized SimProgram
// evaluates B x 64 independent scenarios.  Debug campaigns, fault sweeps
// and equivalence checking (one block per side) all run here; the debug
// session's single stimulus stream runs on CompiledSimulator.
// The per-op inner loop runs over the B blocks of one slot — contiguous
// loads/stores that the compiler vectorizes over the widest ISA available
// (this translation unit is built with -O3 and the host's native vector
// extensions; results are pure bitwise math, so codegen never changes them).
//
// Scenario addressing: scenario s lives in block s / 64, lane s % 64.  The
// mapping is independent of the batch width B, which is what makes runs
// bit-identical across widths.
//
// Faults are per-scenario: each injected fault carries a lane mask per
// block, AND/OR/XOR-ed into the owning op's output words, so one batch can
// mix clean and faulted universes (differential campaigns diff them after
// the fact).  Every sweep walks all B blocks in one pass on the calling
// thread.
//
// The engine runs any lowered program.  Campaigns hand it a mapped design
// specialized on their parameter assignment (sim_program.h), whose
// parameters are bound: their slots hold the bound values, and writing
// one throws.  The campaign's per-scenario signature fold also lives here,
// so it compiles with the same vector ISA as the sweep.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "map/mapped_netlist.h"
#include "netlist/netlist.h"
#include "sim/fault.h"
#include "sim/sim_program.h"

namespace fpgadbg::sim {

struct BatchSimOptions {
  /// Scenario blocks B; the engine simulates B * 64 scenarios per pass.
  std::size_t blocks = 1;
  /// Ignored: every sweep runs on the calling thread.  Kept only because
  /// perfbench/cpp/campaign_ops.cpp assigns it.
  std::size_t num_threads = 1;
};

/// Marks a fault (or stimulus) as applying to every scenario of the batch.
inline constexpr std::size_t kAllScenarios = static_cast<std::size_t>(-1);

/// FNV-1a parameters of the per-scenario output signatures
/// (BatchSimulator::fold_output_signatures).
inline constexpr std::uint64_t kSignatureOffsetBasis = 0xcbf29ce484222325ULL;
inline constexpr std::uint64_t kSignaturePrime = 0x100000001b3ULL;

class BatchSimulator {
 public:
  static constexpr std::size_t kLanesPerBlock = 64;
  static constexpr std::uint32_t kSnapshotVersion = 1;

  explicit BatchSimulator(const netlist::Netlist& nl,
                          BatchSimOptions options = {});
  explicit BatchSimulator(const map::MappedNetlist& mn,
                          BatchSimOptions options = {});
  /// Runs an already lowered program, e.g. a mapped design specialized on
  /// a parameter assignment.
  explicit BatchSimulator(SimProgram program, BatchSimOptions options = {});

  const SimProgram& program() const { return prog_; }
  const BatchSimOptions& options() const { return opts_; }
  std::size_t blocks() const { return blocks_; }
  std::size_t num_scenarios() const { return blocks_ * kLanesPerBlock; }

  /// Reset every scenario's latches to their init values.
  void reset();

  // --- stimulus ----------------------------------------------------------
  // One word drives the 64 lanes of one scenario block; the broadcast forms
  // drive every block at once.  All entry points bounds-check their node id
  // and block index and throw fpgadbg::Error on misuse, as does writing a
  // parameter the program binds.
  void set_input_word(std::uint32_t id, std::size_t block, std::uint64_t word);
  void set_param_word(std::uint32_t id, std::size_t block, std::uint64_t word);
  void broadcast_input(std::uint32_t id, bool value);
  void broadcast_param(std::uint32_t id, bool value);

  /// Propagate combinationally across all scenarios (does not clock).
  void eval();
  /// eval() then clock every scenario's latches; one step == one cycle for
  /// all B x 64 scenarios.
  void step();

  // --- value extraction --------------------------------------------------
  /// Zero-copy view of one slot's B contiguous block words.  No gather on
  /// the hot path: consumers index blocks/lanes straight off the SoA arena.
  class BatchView {
   public:
    BatchView(const std::uint64_t* words, std::size_t blocks)
        : words_(words), blocks_(blocks) {}
    const std::uint64_t* data() const { return words_; }
    std::size_t blocks() const { return blocks_; }
    std::uint64_t word(std::size_t block) const { return words_[block]; }
    bool bit(std::size_t scenario) const {
      return (words_[scenario / kLanesPerBlock] >>
              (scenario % kLanesPerBlock)) &
             1;
    }
   private:
    const std::uint64_t* words_;
    std::size_t blocks_;
  };

  BatchView view(std::uint32_t slot) const;
  std::uint64_t word(std::uint32_t id, std::size_t block) const;
  bool value(std::uint32_t id, std::size_t scenario) const;
  BatchView output_view(std::size_t index) const;
  std::uint64_t output_word(std::size_t index, std::size_t block) const;
  bool output_value(std::size_t index, std::size_t scenario) const;

  /// Folds the current output values of blocks [0, valid_blocks) into
  /// per-scenario FNV-1a signatures: for each output in program order, for
  /// each scenario s, signatures[s] = (signatures[s] ^ bit) * kSignaturePrime.
  /// `signatures` holds valid_blocks * 64 words, scenario s of this batch at
  /// index s; the words past them are not touched.  A campaign starts each
  /// signature at kSignatureOffsetBasis and folds once per step().
  void fold_output_signatures(std::uint64_t* signatures,
                              std::size_t valid_blocks) const;

  // --- faults ------------------------------------------------------------
  /// Injects a fault into every scenario (`kAllScenarios`) or exactly one.
  /// Faults on source nodes have no effect (they are never re-evaluated),
  /// matching the NetlistSimulator oracle.
  void inject_fault(const Fault& fault, std::size_t scenario = kAllScenarios);
  /// Fully general form: one lane mask word per block selects the faulted
  /// scenarios.  `mask` must have exactly blocks() entries.
  void inject_fault_masked(const Fault& fault,
                           const std::vector<std::uint64_t>& mask);
  void clear_faults();
  const std::vector<Fault>& faults() const { return faults_; }
  /// Number of scenarios with at least one effective (op-owned) fault.
  std::size_t num_faulted_scenarios() const;

  std::uint64_t cycle() const { return cycle_; }

  /// Sequential state of every scenario.  The version and block count are
  /// part of the snapshot shape: restoring a snapshot taken at a different
  /// batch width (or from an incompatible engine) fails loudly instead of
  /// silently corrupting latch state.
  struct Snapshot {
    std::uint32_t version = kSnapshotVersion;
    std::uint64_t blocks = 0;
    std::vector<std::uint64_t> latch_words;  ///< latch-major: [latch * B + b]
    std::uint64_t cycle = 0;
  };
  Snapshot snapshot() const;
  void restore(const Snapshot& snapshot);

 private:
  struct BatchFault {
    Fault fault;
    std::vector<std::uint64_t> mask;  ///< lane mask per block
  };

  void init();
  std::uint64_t* slot_words(std::uint32_t slot) {
    return values_.data() + static_cast<std::size_t>(slot) * blocks_;
  }
  const std::uint64_t* slot_words(std::uint32_t slot) const {
    return values_.data() + static_cast<std::size_t>(slot) * blocks_;
  }
  /// Walks the whole program for blocks [b0, b1); clocks latches when
  /// `clock` is set.
  void run_blocks(std::size_t b0, std::size_t b1, bool clock);
  void account_fault(const Fault& fault, std::vector<std::uint64_t> mask);

  SimProgram prog_;
  BatchSimOptions opts_;
  std::size_t blocks_ = 1;
  std::vector<std::uint64_t> values_;       ///< SoA arena: [slot * B + block]
  std::vector<std::uint64_t> latch_words_;  ///< [latch * B + block]
  std::unordered_map<std::uint32_t, std::vector<BatchFault>> faults_by_op_;
  std::vector<std::uint8_t> op_has_fault_;
  std::vector<Fault> faults_;
  std::vector<std::uint64_t> faulted_mask_;  ///< union of effective faults
  std::uint64_t cycle_ = 0;
};

}  // namespace fpgadbg::sim
