// Compiled, levelized netlist simulation of one stimulus stream.
//
// At construction the design is lowered into a SimProgram (flat fanin arena
// + packed 64-bit LUT masks, ops sorted by logic level).  Every slot holds a
// broadcast word (all-0 or all-1), so value(id) is just lane 0, and eval()
// is one serial pass over the ops in program order that looks each op's
// result up in its mask.  That pass reads a copy of the program whose ops
// are all widened to six fanins, so no branch in it depends on the op.
//
// This is the debug session's emulation engine (behind MappedSimulator).
// Word-parallel work, many stimulus streams and faults run on
// BatchSimulator.
#pragma once

#include <cstdint>
#include <vector>

#include "map/mapped_netlist.h"
#include "netlist/netlist.h"
#include "sim/sim_program.h"

namespace fpgadbg::sim {

class CompiledSimulator {
 public:
  static constexpr std::size_t kLanes = 64;

  explicit CompiledSimulator(const netlist::Netlist& nl);
  explicit CompiledSimulator(const map::MappedNetlist& mn);

  const SimProgram& program() const { return prog_; }

  /// Reset latches to their init values.
  void reset();

  void set_input(std::uint32_t id, bool value);
  void set_inputs(const std::vector<bool>& values);
  void set_param(std::uint32_t id, bool value);
  void set_params(const std::vector<bool>& values);

  /// Propagate combinationally (does not advance latches).  Always sweeps.
  void eval();
  /// Clock all latches with the values of the current sources.  Sweeps
  /// first only when the values are stale: eval() makes them current, and
  /// they go stale on a set_input*/set_param* that changes a value, on
  /// reset(), restore(), and on every clock.
  /// So eval(); step() costs one sweep, exactly as step() alone does.
  void step();

  bool value(std::uint32_t id) const { return values_[id] & 1; }
  bool output(std::size_t index) const;
  std::vector<bool> output_values() const;

  std::uint64_t cycle() const { return cycle_; }

  /// Sequential state (latch words + cycle counter).  The version and lane
  /// width make the snapshot's shape explicit: restore() rejects snapshots
  /// taken by an incompatible engine or at a different batch width instead
  /// of silently corrupting latch state.
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
  void set_source(std::uint32_t slot, bool value);

  /// An op widened to kMaxOpArity fanins for the sweep.  The fanins it
  /// lacks repeat its first one (a constant op, with none, reads its own
  /// output slot), and its mask repeats the op's 2^k-bit table across all
  /// 64 bits, so the extra index bits always pick a copy of the same entry.
  struct BroadcastOp {
    std::uint64_t mask = 0;
    std::uint32_t out = 0;
    std::uint32_t fanins[SimProgram::kMaxOpArity] = {};
  };

  SimProgram prog_;
  std::vector<BroadcastOp> broadcast_ops_;  ///< parallel to prog_.ops
  std::vector<std::uint64_t> values_;       ///< broadcast word per slot
  std::vector<std::uint64_t> latch_words_;
  /// values_ were computed from the current sources and latches.
  bool values_current_ = false;
  std::uint64_t cycle_ = 0;
};

}  // namespace fpgadbg::sim
