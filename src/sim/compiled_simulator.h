// Compiled, levelized netlist simulation of one stimulus stream.
//
// At construction the design is lowered into a SimProgram (flat fanin arena
// + packed 64-bit LUT masks, ops sorted by logic level).  Every slot holds
// its value, 0 or 1, and an op's result is the bit of its mask that its
// fanins' values index.  The engine keeps a master copy of the program in
// sweep order (by level, and by arity within a level) and sweeps copies
// cut from it.  Each copy is stored as runs of ops of one arity, so the
// sweep switches on the arity once per run and then runs a loop made for
// that arity.
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
// Three copies, cut at different times:
// - The static cone: the ops that every latch D-pin reaches without
//   crossing a TCON, less every TLUT op and every op with a TCON or a TLUT
//   in its transitive fan-in.  No binding changes these ops, and each reads
//   only sources and other static ops, so they are cut once, at
//   construction (counter sim.cone.static_ops).
// - The dynamic cone: the other ops that the watched nodes (set_watched())
//   and the latch D-pins reach under the current binding.  Its walk starts
//   at the watched nodes, at the latch D-pins that name a TCON and at the
//   ops where the static walk stopped, and it stops at the static cone, so
//   it costs the dynamic cone, not the program (counters sim.cone.rewalks
//   and sim.cone.rewalked_ops).  It is re-walked at the first eval() after
//   the binding or the watched list changes.
// - The rest: every other op.  It is swept only when value(), output() or
//   output_values() reads a node that one of its ops computes: once per
//   eval(), however many reads follow.  It is cut at the first such read
//   after the cone changed.
// eval() sweeps the static cone, then the dynamic one: no static op reads a
// dynamic one.  An engine that watches nothing has every op in the two.
//
// The deferred sweep of the rest reads the sources (inputs, latch outputs,
// and the parameter slots an op reads, as the cascade of a TLUT with more
// than six data inputs does) as the last eval() saved them, under the
// binding that eval() swept with: bind() re-resolves the TCONs, outputs and
// latch D-pins at once, but writes the new op fanins and TLUT masks into
// the master program only at the next eval().  So value() means "as of the
// last sweep" across set_input*, set_param*, reset(), restore() and bind(),
// exactly as on an engine that watches nothing.  A read can sweep, so
// value() and the other const reads write the engine's state: reading one
// engine from two threads is no safer than calling eval() from two.
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

  /// Sweeps only the static cone and the watched nodes' dynamic cone from
  /// the next eval() on (see the file comment).  An empty list (the
  /// default) watches every op.  Reads of other nodes stay exact; they
  /// sweep the rest of the program on demand.
  void set_watched(std::vector<std::uint32_t> ids);

  /// Re-binds the cells that read a parameter whose value changed since
  /// the last binding (mapped netlists; a no-op when none did).  eval()
  /// calls it first, so calling it early only moves when the work is done.
  void bind();

  /// Propagate combinationally (does not advance latches).  Always sweeps
  /// the static and the dynamic cone, and only them (counter
  /// sim.sweep.ops).
  void eval();
  /// Clock all latches with the values of the current sources.  Sweeps
  /// first only when the values are stale: eval() makes them current, and
  /// they go stale on a set_input*/set_param* that changes a value, on
  /// reset(), restore(), and on every clock.
  /// So eval(); step() costs one sweep, exactly as step() alone does.
  void step();

  /// The value of design node `id` as of the last sweep (a TCON reads the
  /// source it is bound to).  A node outside the static and dynamic cones
  /// first sweeps the rest of the program, once per eval() (counter
  /// sim.sweep.deferred_ops).
  bool value(std::uint32_t id) const { return read(slot_of_[id]); }
  bool output(std::size_t index) const;
  std::vector<bool> output_values() const;

  std::uint64_t cycle() const { return cycle_; }

  /// Ops in the whole program (one per LUT/TLUT of a mapped netlist with
  /// K <= 6): the ops per eval() of an engine that watches nothing.
  std::size_t sweep_size() const { return ops_.size(); }

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
  /// An op of the master program: its table (the low 2^arity bits count)
  /// and the slots it writes and reads.
  struct Op {
    std::uint64_t mask = 0;
    std::uint32_t out = 0;
    std::uint32_t arity = 0;
    std::uint32_t fanins[SimProgram::kMaxOpArity] = {};
  };

  /// A copy of some ops, in sweep order, as runs of ops of one arity.
  struct Sweep {
    struct Run {
      std::uint32_t arity = 0;
      std::uint32_t ops = 0;
    };
    std::vector<Run> runs;
    std::vector<std::uint64_t> masks;  ///< per op
    std::vector<std::uint32_t> slots;  ///< per op: its output, its fanins
    std::size_t size() const { return masks.size(); }
    void clear();
    void add(const Op& op);
  };

  void init();
  void init_binding(const map::MappedNetlist& mn);
  /// Cuts static_ and lists the dynamic walk's fixed roots and the sources
  /// the rest may read.  Runs at construction, while the master still holds
  /// the program's own fanins (no eval() has written a binding into it).
  void cut_static();
  /// Re-binds every bound cell marked in dirty_, and clears the marks.
  void rebind_dirty();
  /// Writes the bindings of the cells marked in moved_ into the master.
  void apply_moves();
  /// Applies the moves and re-walks dynamic_ (see the file comment).
  void cut_dynamic();
  /// The output or latch D-pin at pin index p (see tcon_pins_).
  std::uint32_t& pin(std::uint32_t p);
  bool set_source(std::uint32_t slot, bool value);
  /// The value in `slot`, sweeping the rest first if it computes the slot
  /// and has not been swept since the last eval().
  bool read(std::uint32_t slot) const {
    if (!rest_current_ && in_rest_[slot] != 0) sweep_rest();
    return values_[slot] != 0;
  }
  /// Sweeps the rest on the sources the last eval() saved, cutting it
  /// first when the cone changed since it was last cut.
  void sweep_rest() const;
  /// One pass over `ops`, reading and writing `vals`.
  static void sweep(const Sweep& ops, std::uint32_t* vals);

  /// A cell whose parameter inputs choose its behaviour.  TCONs come first
  /// in bound_, in topological order, so a TCON's index is its rank.
  struct BoundCell {
    std::uint32_t cell = 0;
    std::uint32_t op = kNoOp;        ///< a TLUT's op in ops_; TCON: kNoOp
    std::uint32_t num_data = 0;
    std::uint32_t params_begin = 0;  ///< its parameters: bound_params_[
    std::uint32_t num_params = 0;    ///<   params_begin, +num_params)
    /// TCON: its source under assignment a is tcon_sources_[table + a];
    /// TLUT: its function's words start at tlut_words_[table].
    std::uint32_t table = 0;
    std::uint64_t mask = 0;  ///< TLUT: the cofactor it is bound to
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
  /// The master program: every op in sweep order, under the binding of the
  /// last eval() (or of construction).
  std::vector<Op> ops_;
  std::vector<std::uint32_t> op_of_slot_;  ///< per slot: its op, or kNoOp
  /// Per slot: the slot its value is read from.  The identity, except that
  /// a bound TCON reads its source; two extra slots hold constants 0 and 1.
  std::vector<std::uint32_t> slot_of_;
  std::vector<std::uint32_t> out_slots_;       ///< per output
  std::vector<std::uint32_t> latch_in_slots_;  ///< per latch D-pin
  /// Per slot: its value, 0 or 1.  Mutable: a const read may sweep the
  /// rest.  Not bytes: a store through a byte pointer may alias anything,
  /// so the sweep would reload its own pointers after every op.
  mutable std::vector<std::uint32_t> values_;
  /// Per latch: its state as a broadcast word (the snapshot's encoding).
  std::vector<std::uint64_t> latch_words_;

  // --- the three copies ---
  Sweep static_;
  Sweep dynamic_;
  mutable Sweep rest_;
  std::vector<std::uint32_t> watched_;   ///< design node ids; empty: all
  std::vector<std::uint32_t> dynamic_ops_;  ///< ops_ indices, sweep order
  /// Where the static walk stopped: the ops it could not enter, by output
  /// slot, and the latches whose D-pin names a TCON.
  std::vector<std::uint32_t> frontier_slots_;
  std::vector<std::uint32_t> tcon_latches_;
  /// Per slot: an op of the rest writes it (as of the last dynamic walk).
  std::vector<std::uint8_t> in_rest_;
  /// The sources the rest may read under any binding.
  std::vector<std::uint32_t> saved_slots_;
  /// Their values at the last eval(); the deferred sweep swaps them in and
  /// back out.
  mutable std::vector<std::uint32_t> saved_words_;
  /// The dynamic cone no longer matches the binding or the watched list.
  bool cone_stale_ = true;
  /// rest_ matches the last dynamic walk.
  mutable bool rest_cut_ = false;
  /// The rest holds the values of the last eval() (or there is none).
  mutable bool rest_current_ = true;

  // --- parameter binding (mapped netlists only) ---
  std::vector<BoundCell> bound_;
  std::vector<std::uint32_t> bound_params_;   ///< parameter slots
  std::vector<std::uint32_t> tcon_sources_;   ///< source slot per assignment
  std::vector<std::uint64_t> tlut_words_;     ///< TLUT function words
  Rows cells_of_param_;  ///< per slot: bound_ indices reading that parameter
  Rows tcon_readers_;    ///< per TCON: the TCONs with it among their data inputs
  /// Per TCON: the op fanins that name it (fanin s % kMaxOpArity of op
  /// s / kMaxOpArity), and the pins that name it: pin p < outputs().size()
  /// is output p, the next ones the latch D-pins.
  Rows tcon_fanins_;
  Rows tcon_pins_;
  std::vector<std::uint64_t> dirty_;  ///< bit b: bound_[b] is to be re-bound
  /// Bit b: bound_[b]'s binding moved since the master last took it.
  std::vector<std::uint64_t> moved_;
  std::size_t pending_cells_ = 0;     ///< cells set_param marked in dirty_

  /// values_ were computed from the current sources and latches.
  bool values_current_ = false;
  std::uint64_t cycle_ = 0;
};

}  // namespace fpgadbg::sim
