#include "sim/sim_program.h"

#include <algorithm>

#include "support/error.h"

namespace fpgadbg::sim {

namespace {

using logic::kVarMask;
using logic::TruthTable;

// 2:1 mux over (lo, hi, sel): out = sel ? hi : lo.
constexpr std::uint64_t kMuxMask = 0xCA;

/// Accumulates ops with their levels; ops are bucket-sorted by level once
/// all nodes are lowered.
struct Builder {
  SimProgram prog;
  std::vector<std::uint32_t> slot_level;  // per slot, sources at 0
  std::vector<std::uint32_t> op_level;    // parallel to prog.ops

  std::uint32_t new_temp_slot() {
    const auto slot = static_cast<std::uint32_t>(prog.num_slots++);
    slot_level.push_back(0);
    return slot;
  }

  /// Emits one flat op writing `out`; returns `out`.
  std::uint32_t emit(std::uint64_t mask, const std::uint32_t* fanin_slots,
                     std::uint32_t fanin_count, std::uint32_t out) {
    SimOp op;
    op.mask = mask;
    op.out = out;
    op.fanin_begin = static_cast<std::uint32_t>(prog.fanins.size());
    op.fanin_count = fanin_count;
    std::uint32_t level = 0;
    for (std::uint32_t j = 0; j < fanin_count; ++j) {
      prog.fanins.push_back(fanin_slots[j]);
      level = std::max(level, slot_level[fanin_slots[j]]);
    }
    slot_level[out] = level + 1;
    prog.ops.push_back(op);
    op_level.push_back(level + 1);
    return out;
  }

  /// Lowers `tt` restricted to its first `arity` variables over
  /// `fanin_slots[0..arity)`.  Functions wider than kMaxOpArity are Shannon-
  /// split on their top variable into a LUT6 cascade with a mux op on top.
  std::uint32_t lower_function(const TruthTable& tt,
                               const std::vector<std::uint32_t>& fanin_slots,
                               std::uint32_t arity, std::uint32_t out) {
    if (arity <= SimProgram::kMaxOpArity) {
      // After cofactoring, tt depends only on variables [0, arity); word 0
      // of the table is exactly the mask over those variables.
      const std::uint64_t mask =
          tt.num_vars() == 0 ? (tt.bit(0) ? 1 : 0) : tt.words()[0];
      return emit(mask, fanin_slots.data(), arity, out);
    }
    const int split = static_cast<int>(arity) - 1;
    const std::uint32_t lo =
        lower_function(tt.cofactor0(split), fanin_slots, arity - 1,
                       new_temp_slot());
    const std::uint32_t hi =
        lower_function(tt.cofactor1(split), fanin_slots, arity - 1,
                       new_temp_slot());
    const std::uint32_t mux_fanins[3] = {lo, hi,
                                         fanin_slots[static_cast<std::size_t>(split)]};
    return emit(kMuxMask, mux_fanins, 3, out);
  }

  /// Lowers one cell of a specialized program: `tt` over `fanin_slots`
  /// with each variable v in the `fixed` set bound to bit v of `values`,
  /// over only the variables that cofactor still depends on.  A constant
  /// cofactor is a 0-input op; a cell with no bound and no redundant
  /// variable lowers exactly as lower_function() lowers it.
  std::uint32_t lower_specialized(const TruthTable& tt,
                                  const std::vector<std::uint32_t>& fanin_slots,
                                  std::uint32_t fixed, std::uint32_t values,
                                  std::uint32_t out) {
    const int n = tt.num_vars();
    if (n > static_cast<int>(SimProgram::kMaxOpArity)) {
      return lower_specialized_wide(tt, fanin_slots, fixed, values, out);
    }
    // At most six variables: the whole table is one word.
    const std::uint64_t tail =
        n == 6 ? ~0ULL : (1ULL << (std::size_t{1} << n)) - 1;
    std::uint64_t w = n == 0 ? (tt.bit(0) ? 1 : 0) : tt.words()[0];
    for (int v = 0; v < n; ++v) {
      if (((fixed >> v) & 1U) == 0) continue;
      const int shift = 1 << v;
      if ((values >> v) & 1U) {
        const std::uint64_t hi = w & kVarMask[v];
        w = hi | (hi >> shift);
      } else {
        const std::uint64_t lo = w & ~kVarMask[v];
        w = lo | (lo << shift);
      }
    }
    std::uint32_t support[SimProgram::kMaxOpArity];
    std::uint32_t slots[SimProgram::kMaxOpArity];
    std::uint32_t arity = 0;
    for (int v = 0; v < n; ++v) {
      if ((((w >> (1 << v)) ^ w) & ~kVarMask[v] & tail) != 0) {
        support[arity] = static_cast<std::uint32_t>(v);
        slots[arity++] = fanin_slots[static_cast<std::size_t>(v)];
      }
    }
    if (arity == static_cast<std::uint32_t>(n)) {
      return emit(w, fanin_slots.data(), arity, out);
    }
    // Gather the cofactor's bits over its support (the other variables
    // do not matter; they are read at 0).
    std::uint64_t mask = 0;
    for (std::uint64_t y = 0; y < (1ULL << arity); ++y) {
      std::uint64_t x = 0;
      for (std::uint32_t i = 0; i < arity; ++i) {
        if ((y >> i) & 1U) x |= 1ULL << support[i];
      }
      mask |= ((w >> x) & 1U) << y;
    }
    return emit(mask, slots, arity, out);
  }

  /// lower_specialized() for a table wider than one word.
  std::uint32_t lower_specialized_wide(
      const TruthTable& tt, const std::vector<std::uint32_t>& fanin_slots,
      std::uint32_t fixed, std::uint32_t values, std::uint32_t out) {
    TruthTable cof = tt;
    for (int v = 0; v < tt.num_vars(); ++v) {
      if ((fixed >> v) & 1U) {
        cof = ((values >> v) & 1U) ? cof.cofactor1(v) : cof.cofactor0(v);
      }
    }
    const std::vector<int> support = cof.support();
    const auto arity = static_cast<std::uint32_t>(support.size());
    std::vector<std::uint32_t> slots;
    for (int v : support) {
      slots.push_back(fanin_slots[static_cast<std::size_t>(v)]);
    }
    TruthTable reduced(static_cast<int>(arity));
    for (std::size_t y = 0; y < reduced.num_bits(); ++y) {
      std::size_t x = 0;
      for (std::uint32_t i = 0; i < arity; ++i) {
        if ((y >> i) & 1U) x |= std::size_t{1} << support[i];
      }
      if (cof.bit(x)) reduced.set_bit(y, true);
    }
    return lower_function(reduced, slots, arity, out);
  }

  /// Bucket-sorts ops by level and fills level_begin.
  void finish() {
    std::uint32_t max_level = 0;
    for (std::uint32_t l : op_level) max_level = std::max(max_level, l);
    // Counting sort: level l ops land in [level_begin[l], level_begin[l+1]).
    // Level 0 holds no ops (sources are not ops), so bucket by level - 1.
    std::vector<std::uint32_t> count(max_level + 1, 0);
    for (std::uint32_t l : op_level) ++count[l];
    std::vector<std::uint32_t> begin(max_level + 2, 0);
    for (std::uint32_t l = 1; l <= max_level; ++l) {
      begin[l + 1] = begin[l] + count[l];
    }
    prog.level_begin.assign(begin.begin() + 1, begin.end());
    std::vector<SimOp> sorted(prog.ops.size());
    std::vector<std::uint32_t> cursor(begin.begin() + 1, begin.end());
    for (std::size_t i = 0; i < prog.ops.size(); ++i) {
      sorted[cursor[op_level[i] - 1]++] = prog.ops[i];
    }
    prog.ops = std::move(sorted);
    // Re-derive op_of_node from the sorted order.
    std::fill(prog.op_of_node.begin(), prog.op_of_node.end(), kNoOp);
    for (std::size_t i = 0; i < prog.ops.size(); ++i) {
      if (prog.ops[i].out < prog.num_design_nodes) {
        prog.op_of_node[prog.ops[i].out] = static_cast<std::uint32_t>(i);
      }
    }
  }
};

}  // namespace

SimProgram lower_program(const netlist::Netlist& nl) {
  using netlist::NodeKind;
  Builder b;
  b.prog.num_slots = nl.num_nodes();
  b.prog.num_design_nodes = nl.num_nodes();
  b.slot_level.assign(nl.num_nodes(), 0);
  b.prog.node_kind.resize(nl.num_nodes());
  b.prog.op_of_node.assign(nl.num_nodes(), kNoOp);
  for (netlist::NodeId id = 0; id < nl.num_nodes(); ++id) {
    switch (nl.kind(id)) {
      case NodeKind::kConst0:
        b.prog.node_kind[id] = SimProgram::SlotKind::kConst0;
        break;
      case NodeKind::kInput:
        b.prog.node_kind[id] = SimProgram::SlotKind::kInput;
        break;
      case NodeKind::kParam:
        b.prog.node_kind[id] = SimProgram::SlotKind::kParam;
        break;
      case NodeKind::kLatchOut:
        b.prog.node_kind[id] = SimProgram::SlotKind::kLatchOut;
        break;
      case NodeKind::kLogic:
        b.prog.node_kind[id] = SimProgram::SlotKind::kLogic;
        break;
    }
  }
  b.prog.inputs = nl.inputs();
  b.prog.params = nl.params();
  b.prog.outputs = nl.outputs();
  for (const auto& latch : nl.latches()) {
    b.prog.latches.push_back(SimLatch{
        latch.input, latch.output,
        static_cast<std::uint8_t>(latch.init_value == 1 ? 1 : 0)});
  }
  std::vector<std::uint32_t> fanin_slots;
  for (netlist::NodeId id : nl.topo_order()) {
    const auto& node = nl.node(id);
    fanin_slots.assign(node.fanins.begin(), node.fanins.end());
    b.lower_function(node.function, fanin_slots,
                     static_cast<std::uint32_t>(fanin_slots.size()), id);
  }
  b.finish();
  return std::move(b.prog);
}

namespace {

enum class MappedLowering { kGeneric, kSpecialized, kBindable };

/// Lowers `mn` as `mode` says; kSpecialized binds `param_values`.
SimProgram lower_mapped(const map::MappedNetlist& mn, MappedLowering mode,
                        const std::vector<bool>* param_values) {
  using map::MKind;
  Builder b;
  b.prog.num_slots = mn.num_cells();
  b.prog.num_design_nodes = mn.num_cells();
  b.slot_level.assign(mn.num_cells(), 0);
  b.prog.node_kind.resize(mn.num_cells());
  b.prog.op_of_node.assign(mn.num_cells(), kNoOp);
  for (map::CellId id = 0; id < mn.num_cells(); ++id) {
    switch (mn.cell(id).kind) {
      case MKind::kConst0:
        b.prog.node_kind[id] = SimProgram::SlotKind::kConst0;
        break;
      case MKind::kInput:
        b.prog.node_kind[id] = SimProgram::SlotKind::kInput;
        break;
      case MKind::kParam:
        b.prog.node_kind[id] = SimProgram::SlotKind::kParam;
        break;
      case MKind::kLatchOut:
        b.prog.node_kind[id] = SimProgram::SlotKind::kLatchOut;
        break;
      case MKind::kLut:
      case MKind::kTlut:
      case MKind::kTcon:
        b.prog.node_kind[id] = SimProgram::SlotKind::kLogic;
        break;
    }
  }
  b.prog.inputs = mn.inputs();
  b.prog.params = mn.params();
  b.prog.outputs = mn.outputs();
  for (const auto& latch : mn.latches()) {
    b.prog.latches.push_back(SimLatch{
        latch.input, latch.output,
        static_cast<std::uint8_t>(latch.init_value == 1 ? 1 : 0)});
  }
  // Bound value per cell id; read only for parameter cells.
  std::vector<std::uint8_t> bound;
  if (mode == MappedLowering::kSpecialized) {
    FPGADBG_REQUIRE(param_values->size() == mn.params().size(),
                    "specialized lowering needs one value per parameter");
    bound.assign(mn.num_cells(), 0);
    for (std::size_t i = 0; i < mn.params().size(); ++i) {
      const std::uint8_t v = (*param_values)[i] ? 1 : 0;
      b.prog.param_values.push_back(v);
      bound[mn.params()[i]] = v;
    }
  }
  std::vector<std::uint32_t> fanin_slots;
  for (map::CellId id : mn.topo_order()) {
    const auto& cell = mn.cell(id);
    fanin_slots.assign(cell.data_inputs.begin(), cell.data_inputs.end());
    const auto num_data = static_cast<std::uint32_t>(fanin_slots.size());
    fanin_slots.insert(fanin_slots.end(), cell.param_inputs.begin(),
                       cell.param_inputs.end());
    if (mode == MappedLowering::kBindable && cell.kind == MKind::kTcon) {
      // No op.  The slot sits at the level of its highest data input, so
      // every reader sorts after whichever input a binding selects.
      std::uint32_t level = 0;
      for (map::CellId in : cell.data_inputs) {
        level = std::max(level, b.slot_level[in]);
      }
      b.slot_level[id] = level;
      continue;
    }
    if (mode == MappedLowering::kBindable && cell.kind == MKind::kTlut &&
        num_data <= SimProgram::kMaxOpArity) {
      // The all-zero assignment's residual: the table's low 2^nd bits.
      const std::uint64_t tail =
          num_data == SimProgram::kMaxOpArity
              ? ~0ULL
              : (1ULL << (std::size_t{1} << num_data)) - 1;
      b.emit(cell.function.words()[0] & tail, fanin_slots.data(), num_data,
             id);
      continue;
    }
    if (mode != MappedLowering::kSpecialized) {
      b.lower_function(cell.function, fanin_slots,
                       static_cast<std::uint32_t>(fanin_slots.size()), id);
      continue;
    }
    // A specialized program binds every parameter fanin.
    std::uint32_t fixed = 0;
    std::uint32_t values = 0;
    for (std::size_t j = 0; j < fanin_slots.size(); ++j) {
      if (b.prog.node_kind[fanin_slots[j]] == SimProgram::SlotKind::kParam) {
        fixed |= 1U << j;
        values |= static_cast<std::uint32_t>(bound[fanin_slots[j]]) << j;
      }
    }
    b.lower_specialized(cell.function, fanin_slots, fixed, values, id);
  }
  b.finish();
  return std::move(b.prog);
}

}  // namespace

SimProgram lower_program(const map::MappedNetlist& mn) {
  return lower_mapped(mn, MappedLowering::kGeneric, nullptr);
}

SimProgram lower_program(const map::MappedNetlist& mn,
                         const std::vector<bool>& param_values) {
  return lower_mapped(mn, MappedLowering::kSpecialized, &param_values);
}

SimProgram lower_bindable_program(const map::MappedNetlist& mn) {
  return lower_mapped(mn, MappedLowering::kBindable, nullptr);
}

}  // namespace fpgadbg::sim
