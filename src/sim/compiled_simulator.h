// Compiled, levelized netlist simulation of one stimulus stream.
//
// At construction the design is lowered into a SimProgram (flat fanin arena
// + packed 64-bit LUT masks, ops sorted by logic level).  Every slot holds a
// broadcast word (all-0 or all-1), so value(id) is just lane 0, and eval()
// is one serial pass over the ops in program order that looks each op's
// result up in its mask.  That pass reads a copy of the program whose ops
// are all widened to six fanins, so no branch in it depends on the op.
//
// A mapped netlist runs as the configured FPGA does.  Its parameters are
// quasi-static, so the sweep holds no TCON: each is bound to the data input
// or constant its parameters select, and every op fanin, output and latch
// D-pin that names it reads that source instead (a TCON chain resolves to
// its end).  Each TLUT's op holds the cofactor of its function on its
// parameters.  A parameter write re-binds, at the next bind() or eval(),
// only the cells that read that parameter; the sweep itself is one op per
// LUT/TLUT.
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
  /// Lowers lower_bindable_program(mn) and binds it on the all-zero
  /// assignment.  Throws if a TCON is not a wire under some assignment.
  explicit CompiledSimulator(const map::MappedNetlist& mn);

  /// The program the sweep was built from.  For a mapped netlist this is
  /// the bindable program: TCONs have no op, and TLUT masks are those of
  /// the all-zero assignment (the sweep holds the bound ones).
  const SimProgram& program() const { return prog_; }

  /// Reset latches to their init values.
  void reset();

  void set_input(std::uint32_t id, bool value);
  void set_inputs(const std::vector<bool>& values);
  void set_param(std::uint32_t id, bool value);
  void set_params(const std::vector<bool>& values);

  /// Re-binds the cells that read a parameter whose value changed since
  /// the last binding (mapped netlists; a no-op when none did).  eval()
  /// calls it first, so calling it early only moves when the work is done.
  void bind();

  /// Propagate combinationally (does not advance latches).  Always sweeps.
  void eval();
  /// Clock all latches with the values of the current sources.  Sweeps
  /// first only when the values are stale: eval() makes them current, and
  /// they go stale on a set_input*/set_param* that changes a value, on
  /// reset(), restore(), and on every clock.
  /// So eval(); step() costs one sweep, exactly as step() alone does.
  void step();

  /// The value of design node `id` as of the last sweep (a TCON reads the
  /// source it is bound to).
  bool value(std::uint32_t id) const { return values_[slot_of_[id]] & 1; }
  bool output(std::size_t index) const;
  std::vector<bool> output_values() const;

  std::uint64_t cycle() const { return cycle_; }

  /// Ops per sweep (one per LUT/TLUT of a mapped netlist with K <= 6).
  std::size_t sweep_size() const { return broadcast_ops_.size(); }

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
  void init_binding(const map::MappedNetlist& mn);
  /// Re-binds every bound cell marked in dirty_, and clears the marks.
  void rebind_dirty();
  /// The slot id stored at a reference site (see tcon_sites_).
  std::uint32_t& site(std::uint32_t s);
  bool set_source(std::uint32_t slot, bool value);

  /// An op widened to kMaxOpArity fanins for the sweep.  The fanins it
  /// lacks repeat its first one (a constant op, with none, reads its own
  /// output slot), and its mask repeats the op's 2^k-bit table across all
  /// 64 bits, so the extra index bits always pick a copy of the same entry.
  struct BroadcastOp {
    std::uint64_t mask = 0;
    std::uint32_t out = 0;
    std::uint32_t fanins[SimProgram::kMaxOpArity] = {};
  };

  /// A cell whose parameter inputs choose its behaviour.  TCONs come first
  /// in bound_, in topological order, so a TCON's index is its rank.
  struct BoundCell {
    std::uint32_t cell = 0;
    std::uint32_t op = kNoOp;        ///< a TLUT's op in the sweep; TCON: kNoOp
    std::uint32_t num_data = 0;
    std::uint32_t params_begin = 0;  ///< its parameters: bound_params_[
    std::uint32_t num_params = 0;    ///<   params_begin, +num_params)
    /// TCON: its source under assignment a is tcon_sources_[table + a];
    /// TLUT: its function's words start at tlut_words_[table].
    std::uint32_t table = 0;
  };

  /// Compressed rows: row i is items[begin[i], begin[i + 1]).
  struct Rows {
    std::vector<std::uint32_t> begin{0};
    std::vector<std::uint32_t> items;
    void add_row(const std::vector<std::uint32_t>& row);
    const std::uint32_t* row_begin(std::size_t i) const {
      return items.data() + begin[i];
    }
    const std::uint32_t* row_end(std::size_t i) const {
      return items.data() + begin[i + 1];
    }
  };

  SimProgram prog_;
  std::vector<BroadcastOp> broadcast_ops_;  ///< the sweep
  /// Per slot: the slot its value is read from.  The identity, except that
  /// a bound TCON reads its source; two extra slots hold constants 0 and 1.
  std::vector<std::uint32_t> slot_of_;
  std::vector<std::uint32_t> out_slots_;       ///< per output
  std::vector<std::uint32_t> latch_in_slots_;  ///< per latch D-pin
  std::vector<std::uint64_t> values_;          ///< broadcast word per slot
  std::vector<std::uint64_t> latch_words_;

  // --- parameter binding (mapped netlists only) ---
  std::vector<BoundCell> bound_;
  std::vector<std::uint32_t> bound_params_;   ///< parameter slots
  std::vector<std::uint32_t> tcon_sources_;   ///< source slot per assignment
  std::vector<std::uint64_t> tlut_words_;     ///< TLUT function words
  Rows cells_of_param_;  ///< per slot: bound_ indices reading that parameter
  Rows tcon_readers_;    ///< per TCON: the TCONs with it among their data inputs
  /// Per TCON: the reference sites that name it.  Site s < 6 * ops is fanin
  /// s % 6 of op s / 6; the next outputs().size() sites are the outputs,
  /// then one per latch D-pin.
  Rows tcon_sites_;
  std::vector<std::uint64_t> dirty_;  ///< bit b: bound_[b] is to be re-bound
  std::size_t pending_cells_ = 0;     ///< cells set_param marked in dirty_

  /// values_ were computed from the current sources and latches.
  bool values_current_ = false;
  std::uint64_t cycle_ = 0;
};

}  // namespace fpgadbg::sim
