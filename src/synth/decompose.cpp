#include "synth/decompose.h"

#include <string>
#include <unordered_map>

#include "support/error.h"
#include "synth/sweep.h"

namespace fpgadbg::synth {

using netlist::kNullNode;
using netlist::Netlist;
using netlist::NodeId;
using netlist::NodeKind;
using logic::TruthTable;

namespace {

// Shannon-style decomposition.  Each node of arity > 2 is expanded as
//   f = (x & f|x=1) | (~x & f|x=0)
// over a well-chosen split variable, recursively, emitting 2-input gates:
//   hi = AND(x, dec(f1)),  lo = ANDN(x, dec(f0)),  f = OR(hi, lo)
// Cofactor trees have *nested* leaf sets (every subtree is a function of a
// subset of the original fanins), which keeps cut enumeration lossless: the
// boundary cut of the original node always reappears at the tree root.
// Cofactors are hash-consed so shared subfunctions (e.g. XOR chains) are
// built once.
class Decomposer {
 public:
  explicit Decomposer(const Netlist& in) : in_(in), out_(in.model_name()) {}

  Netlist run(DecomposeStats* stats) {
    remap_.assign(in_.num_nodes(), kNullNode);
    for (NodeId id : in_.inputs()) remap_[id] = out_.add_input(in_.name(id));
    for (NodeId id : in_.params()) remap_[id] = out_.add_param(in_.name(id));
    for (NodeId id = 0; id < in_.num_nodes(); ++id) {
      if (in_.kind(id) == NodeKind::kConst0) {
        remap_[id] = out_.add_const0(in_.name(id));
      }
    }
    for (const auto& latch : in_.latches()) {
      remap_[latch.output] =
          out_.add_latch(in_.name(latch.output), kNullNode, latch.init_value);
    }

    std::size_t nodes_in = 0;
    for (NodeId id : in_.topo_order()) {
      ++nodes_in;
      remap_[id] = decompose_node(id);
    }

    for (std::size_t i = 0; i < in_.latches().size(); ++i) {
      out_.set_latch_input(i, remap_[in_.latches()[i].input]);
    }
    for (std::size_t i = 0; i < in_.outputs().size(); ++i) {
      out_.add_output(remap_[in_.outputs()[i]], in_.output_names()[i]);
    }
    out_.check();
    if (stats) {
      stats->nodes_in = nodes_in;
      stats->nodes_out = out_.num_logic_nodes();
    }
    return std::move(out_);
  }

 private:
  std::string fresh_name() {
    return base_ + "$d" + std::to_string(counter_++);
  }

  /// Split-variable choice: the variable whose cofactors have the smallest
  /// combined support (muxes split on their select and become wires).
  int pick_var(const TruthTable& f) {
    int best = -1;
    int best_cost = 1 << 20;
    for (int v = 0; v < f.num_vars(); ++v) {
      if (!f.depends_on(v)) continue;
      const int cost =
          f.cofactor0(v).support_size() + f.cofactor1(v).support_size();
      if (cost <= best_cost) {  // ties -> highest index (params sit last)
        best_cost = cost;
        best = v;
      }
    }
    FPGADBG_ASSERT(best >= 0, "pick_var on a constant function");
    return best;
  }

  NodeId emit2(std::vector<NodeId> fanins, const TruthTable& tt) {
    // Hash-cons identical 2-input gates (exact structural key).
    std::string key = tt.to_hex();
    for (NodeId f : fanins) {
      key.push_back(':');
      key += std::to_string(f);
    }
    if (auto it = gate_cache_.find(key); it != gate_cache_.end()) {
      return it->second;
    }
    const NodeId id = out_.add_logic(fresh_name(), std::move(fanins), tt);
    gate_cache_.emplace(std::move(key), id);
    return id;
  }

  /// Recursively builds f over already-remapped fanin ids `leaves`.
  /// `f` has arity leaves.size().
  NodeId build(const TruthTable& f, const std::vector<NodeId>& leaves) {
    FPGADBG_ASSERT(!f.is_const0() && !f.is_const1(),
                   "constant reached Shannon recursion");
    const std::vector<int> supp = f.support();
    if (supp.size() == 1) {
      const int v = supp[0];
      if (f.cofactor1(v).is_const1()) return leaves[static_cast<std::size_t>(v)];
      // ~x as a 1-input gate.
      return emit2({leaves[static_cast<std::size_t>(v)]},
                   ~TruthTable::var(1, 0));
    }
    if (supp.size() == 2) {
      // Compact to a 2-input truth table: the support moves to variables 0
      // and 1, the irrelevant rest goes above them and is dropped.
      std::vector<int> perm(static_cast<std::size_t>(f.num_vars()));
      for (int v = 0, dropped = 2; v < f.num_vars(); ++v) {
        perm[static_cast<std::size_t>(v)] =
            v == supp[0] ? 0 : v == supp[1] ? 1 : dropped++;
      }
      const TruthTable g = f.permuted(perm, 2);
      return emit2({leaves[static_cast<std::size_t>(supp[0])],
                    leaves[static_cast<std::size_t>(supp[1])]},
                   g);
    }

    const int v = pick_var(f);
    const NodeId x = leaves[static_cast<std::size_t>(v)];
    const TruthTable f0 = f.cofactor0(v);
    const TruthTable f1 = f.cofactor1(v);

    // term(x, g, positive): the 2-input AND absorbing a constant or literal
    // cofactor where possible.
    auto term = [&](bool positive, const TruthTable& g) -> NodeId {
      const TruthTable xlit =
          positive ? TruthTable::var(2, 0) : ~TruthTable::var(2, 0);
      if (g.is_const0()) return kNullNode;
      if (g.is_const1()) {
        // x (or ~x) alone.
        if (positive) return x;
        return emit2({x}, ~TruthTable::var(1, 0));
      }
      const NodeId sub = build(g, leaves);
      return emit2({x, sub}, xlit & TruthTable::var(2, 1));
    };

    const NodeId hi = term(true, f1);
    const NodeId lo = term(false, f0);
    if (hi == kNullNode) return lo;
    if (lo == kNullNode) return hi;
    return emit2({hi, lo},
                 TruthTable::var(2, 0) | TruthTable::var(2, 1));
  }

  NodeId decompose_node(NodeId id) {
    const auto& fanins = in_.fanins(id);
    const TruthTable& f = in_.function(id);
    const std::string& name = in_.name(id);

    std::vector<NodeId> mapped;
    mapped.reserve(fanins.size());
    for (NodeId x : fanins) mapped.push_back(remap_[x]);

    if (fanins.size() <= 2) {
      return out_.add_logic(name, std::move(mapped), f);
    }

    base_ = name;
    const NodeId root = build(f, mapped);
    // The tree root carries a generated name; wrap it in a buffer so the
    // original signal name survives (later sweeps may collapse it).
    return out_.add_logic(name, {root}, TruthTable::var(1, 0));
  }

  const Netlist& in_;
  Netlist out_;
  std::vector<NodeId> remap_;
  std::unordered_map<std::string, NodeId> gate_cache_;
  std::string base_;
  std::size_t counter_ = 0;
};

}  // namespace

Netlist decompose(const Netlist& nl, DecomposeStats* stats) {
  return Decomposer(nl).run(stats);
}

Netlist synthesize(const Netlist& nl) {
  return decompose(sweep(nl), nullptr);
}

}  // namespace fpgadbg::synth
