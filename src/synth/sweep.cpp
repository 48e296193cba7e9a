#include "synth/sweep.h"

#include <optional>

#include "support/error.h"

namespace fpgadbg::synth {

using netlist::kNullNode;
using netlist::Netlist;
using netlist::Node;
using netlist::NodeId;
using netlist::NodeKind;
using logic::TruthTable;

namespace {

// Value a node is known to carry: a constant, an alias of another node, or
// itself (opaque).
struct Known {
  std::optional<bool> constant;
  NodeId alias = kNullNode;  // forwarding target when the node is a buffer
};

}  // namespace

Netlist sweep(const Netlist& nl, SweepStats* stats) {
  SweepStats local;
  SweepStats& st = stats ? *stats : local;
  st = SweepStats{};

  // Pass 1: forward propagation over topological order.  For every logic
  // node, prune fanins its function ignores, substitute known-constant
  // fanins, and detect constants/buffers.
  std::vector<Known> known(nl.num_nodes());
  struct Simplified {
    std::vector<NodeId> fanins;  // resolved through aliases
    TruthTable function;
  };
  std::vector<Simplified> simp(nl.num_nodes());

  auto resolve = [&](NodeId id) {
    while (known[id].alias != kNullNode) id = known[id].alias;
    return id;
  };

  for (NodeId id : nl.topo_order()) {
    TruthTable f = nl.function(id);
    std::vector<NodeId> fanins = nl.fanins(id);

    // Substitute constants: cofactor the function.
    for (std::size_t i = 0; i < fanins.size(); ++i) {
      const NodeId src = resolve(fanins[i]);
      fanins[i] = src;
      const int v = static_cast<int>(i);
      if (nl.kind(src) == NodeKind::kConst0) {
        f = f.cofactor0(v);
      } else if (known[src].constant.has_value()) {
        f = *known[src].constant ? f.cofactor1(v) : f.cofactor0(v);
      }
    }

    // Prune fanins the (possibly cofactored) function ignores.
    std::vector<int> keep = f.support();
    if (keep.size() != fanins.size()) {
      st.fanins_pruned += fanins.size() - keep.size();
      std::vector<NodeId> new_fanins;
      std::vector<int> perm(static_cast<std::size_t>(f.num_vars()), 0);
      TruthTable g(static_cast<int>(keep.size()));
      // Build the compacted function by gathering: variable keep[j] -> j.
      for (std::size_t j = 0; j < keep.size(); ++j) {
        new_fanins.push_back(fanins[static_cast<std::size_t>(keep[j])]);
      }
      // permuted() needs a distinct destination for every current var: the
      // irrelevant ones go above the kept ones, where they are dropped.
      std::size_t j = 0;
      int dropped = static_cast<int>(keep.size());
      for (int v = 0; v < f.num_vars(); ++v) {
        const bool kept = j < keep.size() && keep[j] == v;
        perm[static_cast<std::size_t>(v)] =
            kept ? static_cast<int>(j++) : dropped++;
      }
      g = f.permuted(perm, std::max<int>(1, static_cast<int>(keep.size())));
      if (keep.empty()) {
        // Constant function.
        g = f.bit(0) ? TruthTable::one(0) : TruthTable::zero(0);
      }
      f = g;
      fanins = std::move(new_fanins);
    }

    simp[id].fanins = fanins;
    simp[id].function = f;

    if (f.num_vars() == 0 || f.is_const0() || f.is_const1()) {
      known[id].constant = !f.is_const0();
      ++st.const_folded;
    } else if (f.num_vars() == 1 && f == TruthTable::var(1, 0)) {
      known[id].alias = fanins[0];
      ++st.buffers_collapsed;
    }
  }

  // A node is "kept" when something externally visible still needs it:
  // outputs, latch inputs (after alias resolution), or a live fanin chain.
  Netlist out(nl.model_name());
  std::vector<NodeId> remap(nl.num_nodes(), kNullNode);

  // Sources copy over verbatim.
  for (NodeId id : nl.inputs()) remap[id] = out.add_input(nl.name(id));
  for (NodeId id : nl.params()) remap[id] = out.add_param(nl.name(id));
  for (NodeId id = 0; id < nl.num_nodes(); ++id) {
    if (nl.kind(id) == NodeKind::kConst0) {
      remap[id] = out.add_const0(nl.name(id));
    }
  }
  for (const auto& latch : nl.latches()) {
    remap[latch.output] =
        out.add_latch(nl.name(latch.output), kNullNode, latch.init_value);
  }

  // Liveness from outputs and latch inputs through simplified fanins.
  std::vector<bool> live(nl.num_nodes(), false);
  std::vector<NodeId> stack;
  auto mark = [&](NodeId id) {
    id = resolve(id);
    if (!live[id]) {
      live[id] = true;
      stack.push_back(id);
    }
    return id;
  };
  for (NodeId out_id : nl.outputs()) mark(out_id);
  for (const auto& latch : nl.latches()) mark(latch.input);
  while (!stack.empty()) {
    const NodeId id = stack.back();
    stack.pop_back();
    if (nl.kind(id) != NodeKind::kLogic) continue;
    if (known[id].constant.has_value()) continue;  // becomes a constant node
    for (NodeId f : simp[id].fanins) mark(f);
  }

  // Materialize constants on demand (shared const0 / const1 nodes).
  NodeId const0_id = kNullNode;
  NodeId const1_id = kNullNode;
  auto get_const = [&](bool value) {
    if (value) {
      if (const1_id == kNullNode) {
        const1_id = out.add_logic("__const1", {}, TruthTable::one(0));
      }
      return const1_id;
    }
    if (const0_id == kNullNode) {
      const0_id = out.add_logic("__const0", {}, TruthTable::zero(0));
    }
    return const0_id;
  };

  // Emit surviving logic in topological order.
  for (NodeId id : nl.topo_order()) {
    if (!live[id] || nl.kind(id) != NodeKind::kLogic) continue;
    if (known[id].constant.has_value() || known[id].alias != kNullNode) {
      continue;  // replaced by constant or alias target
    }
    std::vector<NodeId> fanins;
    fanins.reserve(simp[id].fanins.size());
    for (NodeId f : simp[id].fanins) {
      const NodeId r = resolve(f);
      NodeId mapped;
      if (nl.kind(r) == NodeKind::kLogic && known[r].constant.has_value()) {
        mapped = get_const(*known[r].constant);
      } else {
        FPGADBG_ASSERT(remap[r] != kNullNode, "sweep: fanin not yet emitted");
        mapped = remap[r];
      }
      fanins.push_back(mapped);
    }
    remap[id] = out.add_logic(nl.name(id), std::move(fanins),
                              simp[id].function);
  }

  // Count removed nodes.
  for (NodeId id = 0; id < nl.num_nodes(); ++id) {
    if (nl.kind(id) == NodeKind::kLogic && remap[id] == kNullNode &&
        !known[id].constant.has_value() && known[id].alias == kNullNode) {
      ++st.dead_removed;
    }
  }

  auto target_of = [&](NodeId id) -> NodeId {
    const NodeId r = resolve(id);
    if (nl.kind(r) == NodeKind::kLogic && known[r].constant.has_value()) {
      return get_const(*known[r].constant);
    }
    FPGADBG_ASSERT(remap[r] != kNullNode, "sweep: unresolved endpoint");
    return remap[r];
  };

  for (std::size_t i = 0; i < nl.latches().size(); ++i) {
    out.set_latch_input(i, target_of(nl.latches()[i].input));
  }
  for (std::size_t i = 0; i < nl.outputs().size(); ++i) {
    out.add_output(target_of(nl.outputs()[i]), nl.output_names()[i]);
  }
  out.check();
  return out;
}

}  // namespace fpgadbg::synth
