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
// The watched cone.  A caller that reads only a few nodes per cycle names
// them with set_watched(); eval() then sweeps only the ops that those nodes
// and every latch D-pin depend on under the current binding, kept as a
// contiguous copy of its ops in program order.  The other ops, the rest,
// live in a second copy and are swept only when value(), output() or
// output_values() reads a node that one of them computes: once per eval(),
// however many reads follow.  That deferred sweep reads the sources (inputs,
// latch outputs, and the parameter slots an op reads, as the cascade of a
// TLUT with more than six data inputs does) as the last eval() saved them,
// under the binding that eval() swept with: re-binding edits only the
// master program, and the two copies are cut from it again at the first
// eval() after the watched list changes, a TCON's source moves or a TLUT
// mask is rewritten.  So value() means "as of the last sweep" across
// set_input*, set_param*, reset(), restore() and bind(), exactly as on an
// engine that watches nothing (its cone is every op).  A read can sweep, so
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

  /// Sweeps only the watched cone from the next eval() on: the ops that the
  /// design nodes `ids` and every latch D-pin depend on.  An empty list (the
  /// default) watches every op.  Reads of other nodes stay exact; they
  /// sweep the rest of the program on demand (see the file comment).
  void set_watched(std::vector<std::uint32_t> ids);

  /// Re-binds the cells that read a parameter whose value changed since
  /// the last binding (mapped netlists; a no-op when none did).  eval()
  /// calls it first, so calling it early only moves when the work is done.
  void bind();

  /// Propagate combinationally (does not advance latches).  Always sweeps
  /// the watched cone, and only it (counter sim.sweep.ops).
  void eval();
  /// Clock all latches with the values of the current sources.  Sweeps
  /// first only when the values are stale: eval() makes them current, and
  /// they go stale on a set_input*/set_param* that changes a value, on
  /// reset(), restore(), and on every clock.
  /// So eval(); step() costs one sweep, exactly as step() alone does.
  void step();

  /// The value of design node `id` as of the last sweep (a TCON reads the
  /// source it is bound to).  A node outside the watched cone first sweeps
  /// the rest of the program, once per eval() (counter
  /// sim.sweep.deferred_ops).
  bool value(std::uint32_t id) const { return read(slot_of_[id]); }
  bool output(std::size_t index) const;
  std::vector<bool> output_values() const;

  std::uint64_t cycle() const { return cycle_; }

  /// Ops in the whole program (one per LUT/TLUT of a mapped netlist with
  /// K <= 6): the ops per eval() of an engine that watches nothing.
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
  /// Cuts cone_ops_ and rest_ops_ from the master program (see the file
  /// comment) and lists the sources the rest reads.
  void split_program();
  /// The value in `slot`, sweeping the rest first if it computes the slot
  /// and has not been swept since the last eval().
  bool read(std::uint32_t slot) const {
    if (!rest_current_ && in_rest_[slot]) sweep_rest();
    return values_[slot] & 1;
  }
  /// Sweeps rest_ops_ on the sources the last eval() saved.
  void sweep_rest() const;

  /// An op widened to kMaxOpArity fanins for the sweep.  The fanins it
  /// lacks repeat its first one (a constant op, with none, reads its own
  /// output slot), and its mask repeats the op's 2^k-bit table across all
  /// 64 bits, so the extra index bits always pick a copy of the same entry.
  struct BroadcastOp {
    std::uint64_t mask = 0;
    std::uint32_t out = 0;
    std::uint32_t fanins[SimProgram::kMaxOpArity] = {};
  };
  /// One pass over `ops` in program order, reading and writing `vals`.
  static void sweep(const std::vector<BroadcastOp>& ops, std::uint64_t* vals);

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
  /// The master program: every op, under the current binding.  Re-binding
  /// edits it; the sweeps read the two copies cut from it.
  std::vector<BroadcastOp> broadcast_ops_;
  /// Per slot: the slot its value is read from.  The identity, except that
  /// a bound TCON reads its source; two extra slots hold constants 0 and 1.
  std::vector<std::uint32_t> slot_of_;
  std::vector<std::uint32_t> out_slots_;       ///< per output
  std::vector<std::uint32_t> latch_in_slots_;  ///< per latch D-pin
  /// Broadcast word per slot.  Mutable: a const read may sweep the rest.
  mutable std::vector<std::uint64_t> values_;
  std::vector<std::uint64_t> latch_words_;

  // --- the watched cone ---
  std::vector<std::uint32_t> watched_;    ///< design node ids; empty: all
  std::vector<BroadcastOp> cone_ops_;     ///< eval()'s sweep, program order
  std::vector<BroadcastOp> rest_ops_;     ///< the other ops, program order
  std::vector<std::uint8_t> in_rest_;     ///< per slot: a rest op writes it
  std::vector<std::uint32_t> saved_slots_;  ///< the sources the rest reads
  /// Their values at the last eval(); the deferred sweep swaps them in and
  /// back out.
  mutable std::vector<std::uint64_t> saved_words_;
  /// The copies no longer match the master program or the watched list.
  bool cone_stale_ = true;
  /// The rest holds the values of the last eval() (or there is none).
  mutable bool rest_current_ = true;

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
