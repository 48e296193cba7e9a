// Lowered simulation programs.
//
// A SimProgram is the compiled form of a Netlist or MappedNetlist: every
// combinational node becomes one or more flat LUT ops — a packed 64-bit mask
// over at most six fanins — stored in one contiguous arena and bucketed by
// logic level.  Functions wider than six inputs are Shannon-split into a
// LUT6 cascade (cofactor subtrees joined by 2:1 mux ops) at lowering time,
// so the evaluator never sees an op it cannot execute branch-free.
//
// Slots [0, num_design_nodes) mirror the source design's node/cell ids
// one-to-one; cascade temporaries occupy the slots above.  An op's level
// exceeds its fanins', so a sweep in program order sees every fanin
// settled.
//
// A mapped netlist lowers three ways.  The generic program keeps
// parameters as free inputs: a TLUT or TCON becomes a LUT over its data AND
// parameter inputs, so a (4 data, 2 parameter) TCON is a 6-input op — a
// 63-mux Shannon expansion of what is a wire under any one assignment.
// Equivalence checking, which drives random parameters per lane, runs it.
// The program specialized on an assignment is what the configured FPGA runs
// once the SCG has specialized the PConf (the paper's parameters are
// quasi-static): every cell that reads a parameter is cofactored on the
// assignment, and every cell is lowered over only the inputs its cofactor
// still depends on, so a TCON becomes a wire or a constant (at most one
// fanin; routing cannot invert) and a TLUT an ordinary LUT of its data
// inputs.  A cell with neither a parameter nor a redundant input lowers
// identically in both programs, and op_of_node names the same design nodes
// in both, so fault injection behaves the same.  Scenario campaigns, which
// never change a parameter, run it.
// The bindable program is the debug session's: CompiledSimulator re-binds
// it on every parameter change instead of lowering it again.  A TCON has no
// op at all (the emulator reads it from the source its parameters select),
// and a TLUT of at most six data inputs is one op over its data inputs whose
// mask the emulator re-cofactors; every other cell lowers as in the generic
// program.
#pragma once

#include <cstdint>
#include <vector>

#include "map/mapped_netlist.h"
#include "netlist/netlist.h"

namespace fpgadbg::sim {

inline constexpr std::uint32_t kNoOp = 0xffffffffu;

/// One flat LUT evaluation: out <- mask(fanins[fanin_begin .. +fanin_count)).
struct SimOp {
  std::uint64_t mask = 0;         ///< truth table, low 2^fanin_count bits
  std::uint32_t out = 0;          ///< destination value slot
  std::uint32_t fanin_begin = 0;  ///< index into SimProgram::fanins
  std::uint32_t fanin_count = 0;  ///< at most kMaxOpArity
};

struct SimLatch {
  std::uint32_t in_slot = 0;   ///< combinational driver (D pin)
  std::uint32_t out_slot = 0;  ///< sequential source (Q pin)
  std::uint8_t init = 0;       ///< reset value (unknown/don't-care reset to 0)
};

struct SimProgram {
  static constexpr std::uint32_t kMaxOpArity = 6;

  enum class SlotKind : std::uint8_t {
    kConst0,
    kInput,
    kParam,
    kLatchOut,
    kLogic,
  };

  std::vector<SimOp> ops;                  ///< bucketed by level, ascending
  std::vector<std::uint32_t> fanins;       ///< flat fanin arena (slot ids)
  std::vector<std::uint32_t> level_begin;  ///< ops of level l:
                                           ///< [level_begin[l], level_begin[l+1])
  std::size_t num_slots = 0;         ///< design slots + cascade temporaries
  std::size_t num_design_nodes = 0;  ///< slots [0, n) == design node ids

  std::vector<SlotKind> node_kind;        ///< per design node id
  std::vector<std::uint32_t> op_of_node;  ///< design id -> op computing it
                                          ///< (kNoOp for sources)
  std::vector<std::uint32_t> inputs;      ///< design ids, declaration order
  std::vector<std::uint32_t> params;
  /// The values the parameters are bound to, one per `params` entry, in a
  /// program specialized on an assignment; empty when parameters are free
  /// inputs.  No op of a specialized program reads a parameter slot.
  std::vector<std::uint8_t> param_values;
  std::vector<std::uint32_t> outputs;
  std::vector<SimLatch> latches;

  std::size_t num_levels() const {
    return level_begin.empty() ? 0 : level_begin.size() - 1;
  }
};

SimProgram lower_program(const netlist::Netlist& nl);
/// The generic program: parameters are free inputs.
SimProgram lower_program(const map::MappedNetlist& mn);
/// The program specialized on one parameter assignment: `param_values[i]`
/// is the value of `mn.params()[i]` (one value per parameter, or throws).
SimProgram lower_program(const map::MappedNetlist& mn,
                         const std::vector<bool>& param_values);
/// The bindable program: no TCON op, and each TLUT of at most six data
/// inputs one op over them holding the all-zero assignment's cofactor.  A
/// TCON's slot is levelled with its highest data input, so the level order
/// stays topological whichever input a binding selects.
SimProgram lower_bindable_program(const map::MappedNetlist& mn);

}  // namespace fpgadbg::sim
