// Compiled, levelized, word-parallel netlist simulation.
//
// At construction the design is lowered into a SimProgram (flat fanin arena
// + packed 64-bit LUT masks, ops bucketed by logic level); eval() then sweeps
// the levels with branch-free Shannon kernels over 64-bit lane words.  The
// same engine serves both stimulus styles:
//   * scalar mode — the NetlistSimulator-compatible bool API broadcasts each
//     value across all 64 lanes, so value(id) is just lane 0;
//   * word mode — set_input_word()/set_param_word() drive 64 independent
//     stimulus streams per step, one bit lane each.
// While every source is a broadcast word, no fault is installed and the
// event-driven mode is off, a sweep runs a dedicated loop that looks each
// op's result up in its mask instead of walking the Shannon kernel.  That
// loop reads a copy of the program whose ops are all widened to six fanins,
// so no branch in it depends on the op.
// An optional event-driven mode skips every op whose fanins did not change
// since the previous eval (dirty flags propagated level by level), and wide
// levels are swept with ThreadPool::parallel_for when a pool with more than
// one worker is configured.  Faults are indexed per op at injection time, so
// fault-free simulation pays nothing for the fault machinery.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "map/mapped_netlist.h"
#include "netlist/netlist.h"
#include "sim/fault.h"
#include "sim/sim_program.h"
#include "support/thread_pool.h"

namespace fpgadbg::sim {

struct CompiledSimOptions {
  /// Skip fanout cones whose inputs did not change between evals.
  bool event_driven = false;
  /// 0 shares ThreadPool::global(); 1 forces serial sweeps; N > 1 builds a
  /// dedicated pool of N workers.
  std::size_t num_threads = 0;
  /// Minimum ops in a level before the sweep is dispatched to the pool.
  std::size_t parallel_min_level_width = 1024;
};

class CompiledSimulator {
 public:
  static constexpr std::size_t kLanes = 64;

  explicit CompiledSimulator(const netlist::Netlist& nl,
                             CompiledSimOptions options = {});
  explicit CompiledSimulator(const map::MappedNetlist& mn,
                             CompiledSimOptions options = {});

  const SimProgram& program() const { return prog_; }
  const CompiledSimOptions& options() const { return opts_; }

  /// Reset latches of all 64 streams to their init values.
  void reset();

  // --- scalar (broadcast) stimulus ---------------------------------------
  void set_input(std::uint32_t id, bool value);
  void set_inputs(const std::vector<bool>& values);
  void set_param(std::uint32_t id, bool value);
  void set_params(const std::vector<bool>& values);

  // --- word-parallel stimulus (bit i = stream i) -------------------------
  void set_input_word(std::uint32_t id, std::uint64_t word);
  void set_param_word(std::uint32_t id, std::uint64_t word);

  /// Propagate combinationally (does not advance latches).  Always sweeps.
  void eval();
  /// Clock all latches with the values of the current sources.  Sweeps
  /// first only when the values are stale: eval() makes them current, and
  /// they go stale on a set_input*/set_param* that changes a word, on
  /// reset(), restore(), inject_fault(), clear_faults(), and on every clock.
  /// So eval(); step() costs one sweep, exactly as step() alone does.
  void step();

  bool value(std::uint32_t id) const { return values_[id] & 1; }
  bool value(std::uint32_t id, std::size_t lane) const {
    return (values_[id] >> lane) & 1;
  }
  std::uint64_t word(std::uint32_t id) const { return values_[id]; }
  bool output(std::size_t index) const;
  std::uint64_t output_word(std::size_t index) const;
  std::vector<bool> output_values() const;

  /// Install/remove a fault.  Faults on source nodes have no effect (they
  /// are never re-evaluated), matching the NetlistSimulator oracle.
  void inject_fault(const Fault& fault);
  void clear_faults();
  const std::vector<Fault>& faults() const { return faults_; }

  std::uint64_t cycle() const { return cycle_; }

  /// Sequential state of all 64 streams (latch lane words + cycle counter).
  /// The version and lane width make the snapshot's shape explicit: restore()
  /// rejects snapshots taken by an incompatible engine or at a different
  /// batch width instead of silently corrupting latch state.
  static constexpr std::uint32_t kSnapshotVersion = 1;
  struct Snapshot {
    std::uint32_t version = kSnapshotVersion;
    std::uint32_t lanes = kLanes;
    std::vector<std::uint64_t> latch_words;
    std::uint64_t cycle = 0;
  };
  Snapshot snapshot() const {
    return Snapshot{kSnapshotVersion, kLanes, latch_words_, cycle_};
  }
  void restore(const Snapshot& snapshot);

 private:
  void init();
  void set_source_word(std::uint32_t slot, std::uint64_t word);
  void run_ops(std::size_t begin, std::size_t end, bool full);
  void run_broadcast_ops(std::size_t begin, std::size_t end);
  void sweep_level(std::size_t begin, std::size_t end, bool full,
                   bool broadcast_only);

  /// An op widened to kMaxOpArity fanins for the broadcast loop.  The
  /// fanins it lacks repeat its first one (a constant op, with none, reads
  /// its own output slot), and its mask repeats the op's 2^k-bit table
  /// across all 64 bits, so the extra index bits always pick a copy of the
  /// same entry.
  struct BroadcastOp {
    std::uint64_t mask = 0;
    std::uint32_t out = 0;
    std::uint32_t fanins[SimProgram::kMaxOpArity] = {};
  };

  SimProgram prog_;
  std::vector<BroadcastOp> broadcast_ops_;  ///< parallel to prog_.ops
  CompiledSimOptions opts_;
  std::unique_ptr<ThreadPool> own_pool_;
  ThreadPool* pool_ = nullptr;  ///< null when sweeps are always serial
  std::vector<std::uint64_t> values_;      ///< lane word per slot
  std::vector<std::uint64_t> latch_words_;
  std::vector<std::uint8_t> dirty_;        ///< per slot; event mode only
  std::vector<std::uint8_t> op_has_fault_;
  std::unordered_map<std::uint32_t, std::vector<Fault>> faults_by_op_;
  std::vector<Fault> faults_;
  /// True while every source word ever driven has been a broadcast (all-0 or
  /// all-1): a sweep with no fault and event-driven mode off then runs
  /// run_broadcast_ops instead of the Shannon walk.  Sticky false once any
  /// word stimulus mixes lanes.
  bool uniform_ = true;
  bool full_eval_pending_ = true;
  /// values_ were computed from the current sources, latches and faults.
  bool values_current_ = false;
  std::uint64_t cycle_ = 0;
};

}  // namespace fpgadbg::sim
