// Functional simulation of a technology-mapped netlist.
//
// Evaluates LUTs, TLUTs and TCONs exactly as configured hardware would:
// parameter inputs are quasi-static values that change only between
// debugging turns, data inputs toggle every cycle.
//
// Two engines sit behind the same API, selected by SimBackend: the original
// per-cell interpreter (the oracle) and the compiled levelized engine
// (CompiledSimulator), the default, which lowers the mapped netlist once at
// construction and re-binds its TCONs and TLUTs when parameters change.
//
// set_watched() names the cells a caller reads every cycle.  The compiled
// engine then sweeps in eval() only the ops those cells and the latch
// D-pins depend on: the latches' fan-in that no binding reaches, cut once,
// and the rest of that cone, re-walked after a binding or watched-list
// change.  It sweeps the other ops when a read needs them, once per eval()
// (see CompiledSimulator); the interpreter ignores the list.
// Either way value(), output() and output_values() return the values as of
// the last sweep.  Those const reads may sweep, so one engine is no safer
// to read from two threads than to eval() from two.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "map/mapped_netlist.h"
#include "sim/compiled_simulator.h"
#include "sim/sim_backend.h"

namespace fpgadbg::sim {

class MappedSimulator {
 public:
  explicit MappedSimulator(const map::MappedNetlist& mn,
                           SimBackend backend = SimBackend::kCompiled);

  const map::MappedNetlist& netlist() const { return mn_; }
  SimBackend backend() const { return backend_; }

  void reset();
  void set_input(map::CellId id, bool value);
  void set_input(const std::string& name, bool value);
  void set_inputs(const std::vector<bool>& values);
  void set_param(map::CellId id, bool value);
  void set_params(const std::vector<bool>& values);
  /// The cells read every cycle (CompiledSimulator::set_watched(); the
  /// interpreter sweeps every cell and ignores it).
  void set_watched(const std::vector<map::CellId>& ids);
  /// Applies the parameter writes since the last eval() now instead of in
  /// the next eval() (CompiledSimulator::bind(); the interpreter reads its
  /// parameters as it goes and has nothing to do).
  void bind();

  void eval();
  /// eval() then clock the latches.  The compiled backend skips that sweep
  /// when the values are still current from an eval() (see
  /// CompiledSimulator::step()); the interpreter, a reference engine,
  /// always sweeps.
  void step();

  bool value(map::CellId id) const {
    return engine_ ? engine_->value(id) : values_[id] != 0;
  }
  bool output(std::size_t index) const;
  std::vector<bool> output_values() const;

  std::uint64_t cycle() const { return engine_ ? engine_->cycle() : cycle_; }

  /// Ops (compiled) or cells (interpreter) in one sweep of the whole design.
  std::size_t sweep_size() const {
    return engine_ ? engine_->sweep_size() : topo_.size();
  }

  /// Sequential state snapshot (latch contents + cycle counter).  Emulators
  /// support state readback/restore so a debug run can rewind to just before
  /// a trigger and re-run with different observation parameters.
  struct Snapshot {
    std::vector<std::uint8_t> latch_state;
    std::uint64_t cycle = 0;
  };
  Snapshot snapshot() const;
  void restore(const Snapshot& snapshot);

 private:
  const map::MappedNetlist& mn_;
  SimBackend backend_;
  /// Compiled path (engaged when backend_ == kCompiled).
  std::optional<CompiledSimulator> engine_;
  /// Interpreter path state (kInterpreted only).
  std::vector<map::CellId> topo_;
  std::vector<std::uint8_t> values_;
  std::vector<std::uint8_t> latch_state_;
  std::uint64_t cycle_ = 0;
};

}  // namespace fpgadbg::sim
