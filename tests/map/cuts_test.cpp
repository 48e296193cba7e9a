#include "map/cuts.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "debug/signal_param.h"
#include "genbench/genbench.h"
#include "logic/truth_table.h"
#include "netlist/netlist.h"
#include "synth/decompose.h"

namespace fpgadbg::map {
namespace {

using netlist::Netlist;
using netlist::NodeId;
using logic::TruthTable;
using logic::tt_and;
using logic::tt_mux21;
using logic::tt_or;
using logic::tt_xor;

TEST(TconFeasible, MuxIsFeasible) {
  EXPECT_TRUE(tcon_feasible(tt_mux21(), 2, 1));
}

TEST(TconFeasible, AndWithParamIsFeasible) {
  // f(d; p) = d & p: p=1 -> wire, p=0 -> const0.
  const TruthTable f = TruthTable::var(2, 0) & TruthTable::var(2, 1);
  EXPECT_TRUE(tcon_feasible(f, 1, 1));
}

TEST(TconFeasible, XorWithParamIsNotFeasible) {
  // f(d; p) = d ^ p: p=1 residual is ~d, not routable as a plain wire.
  const TruthTable f = TruthTable::var(2, 0) ^ TruthTable::var(2, 1);
  EXPECT_FALSE(tcon_feasible(f, 1, 1));
}

TEST(TconFeasible, DataOnlyIsNotTcon) {
  EXPECT_FALSE(tcon_feasible(tt_and(2), 2, 0));
}

TEST(TconFeasible, TwoLevelMuxTree) {
  // 4:1 mux over (d0..d3; s0, s1).
  TruthTable f(6);
  for (std::uint64_t w = 0; w < 64; ++w) {
    const unsigned sel = static_cast<unsigned>((w >> 4) & 3);
    f.set_bit(w, ((w >> sel) & 1) != 0);
  }
  EXPECT_TRUE(tcon_feasible(f, 4, 2));
}

TEST(TconFeasible, MixedLogicIsNotFeasible) {
  // f = p ? (d0 & d1) : d0 — residual under p=1 is an AND, not a wire.
  const TruthTable d0 = TruthTable::var(3, 0);
  const TruthTable d1 = TruthTable::var(3, 1);
  const TruthTable p = TruthTable::var(3, 2);
  const TruthTable f = (p & d0 & d1) | (~p & d0);
  EXPECT_FALSE(tcon_feasible(f, 2, 1));
}

Netlist decomposed_and6() {
  Netlist nl;
  std::vector<NodeId> pis;
  for (int i = 0; i < 6; ++i) pis.push_back(nl.add_input("i" + std::to_string(i)));
  nl.add_output(nl.add_logic("a6", pis, tt_and(6)), "o");
  return synth::decompose(nl);
}

TEST(CutEnumerator, FindsFullBoundaryCut) {
  const Netlist dec = decomposed_and6();
  CutEnumerator en(dec, CutConfig{});
  const NodeId root = *dec.find("a6");
  bool found_full = false;
  for (const Cut& c : en.cuts(root)) {
    if (c.num_data() == 6) {
      found_full = true;
      EXPECT_EQ(c.function, tt_and(6));
    }
  }
  EXPECT_TRUE(found_full);
  EXPECT_EQ(en.est_arrival(root), 1);
}

TEST(CutEnumerator, TrivialCutAlwaysPresent) {
  const Netlist dec = decomposed_and6();
  CutEnumerator en(dec, CutConfig{});
  for (NodeId id : dec.topo_order()) {
    const auto& cuts = en.cuts(id);
    ASSERT_FALSE(cuts.empty());
    const Cut& last = cuts.back();
    EXPECT_EQ(last.num_data(), 1);
    EXPECT_EQ(last.data_leaves[0], id);
  }
}

TEST(CutEnumerator, RespectsLutSize) {
  const Netlist dec = decomposed_and6();
  CutConfig config;
  config.lut_size = 4;
  CutEnumerator en(dec, config);
  for (NodeId id : dec.topo_order()) {
    for (const Cut& c : en.cuts(id)) {
      // Trivial self-cut excepted (it is the leaf view, not a LUT).
      if (c.data_leaves.size() == 1 && c.data_leaves[0] == id) continue;
      EXPECT_LE(c.num_data(), 4);
    }
  }
  // Depth must grow: and6 cannot fit one 4-LUT.
  EXPECT_GE(en.est_arrival(*dec.find("a6")), 2);
}

TEST(CutEnumerator, ParamLeavesTrackedSeparately) {
  Netlist nl;
  const NodeId a = nl.add_input("a");
  const NodeId b = nl.add_input("b");
  const NodeId s = nl.add_param("s");
  nl.add_output(nl.add_logic("m", {a, b, s}, tt_mux21()), "o");
  const Netlist dec = synth::decompose(nl);
  CutConfig config;
  config.params_free = true;
  CutEnumerator en(dec, config);
  const NodeId root = *dec.find("m");
  bool found_tcon_cut = false;
  for (const Cut& c : en.cuts(root)) {
    if (c.num_params() == 1 && c.num_data() == 2 &&
        tcon_feasible(c.function, 2, 1)) {
      found_tcon_cut = true;  // the full-mux cut {a, b | s}
    }
    // Params never appear among data leaves in params_free mode.
    for (NodeId leaf : c.data_leaves) {
      EXPECT_NE(leaf, *dec.find("s"));
    }
  }
  EXPECT_TRUE(found_tcon_cut);
}

TEST(CutEnumerator, ParamsCountAgainstKWhenNotFree) {
  Netlist nl;
  const NodeId a = nl.add_input("a");
  const NodeId b = nl.add_input("b");
  const NodeId s = nl.add_param("s");
  nl.add_output(nl.add_logic("m", {a, b, s}, tt_mux21()), "o");
  const Netlist dec = synth::decompose(nl);
  CutConfig config;
  config.params_free = false;
  CutEnumerator en(dec, config);
  const NodeId root = *dec.find("m");
  for (const Cut& c : en.cuts(root)) {
    EXPECT_EQ(c.num_params(), 0);
  }
}

TEST(CutEnumerator, DebugLayerBarrierStopsExpansion) {
  // user: u = a & b; debug: mux(u, c; s).  With the barrier the mux's cuts
  // must treat u as a leaf, never reaching a or b.
  Netlist nl;
  const NodeId a = nl.add_input("a");
  const NodeId b = nl.add_input("b");
  const NodeId c = nl.add_input("c");
  const NodeId s = nl.add_param("s");
  const NodeId u = nl.add_logic("u", {a, b}, tt_and(2));
  const NodeId m = nl.add_logic("dbgmux_m", {u, c, s}, tt_mux21());
  nl.add_output(m, "o");
  nl.add_output(u, "ou");
  const Netlist dec = synth::decompose(nl);
  std::vector<bool> mask(dec.num_nodes(), false);
  for (NodeId id = 0; id < dec.num_nodes(); ++id) {
    if (dec.kind(id) == netlist::NodeKind::kLogic &&
        dec.name(id).rfind("dbgmux_", 0) == 0) {
      mask[id] = true;
    }
  }
  CutConfig config;
  config.params_free = true;
  config.debug_layer = &mask;
  CutEnumerator en(dec, config);
  // No debug cut may expand THROUGH the user node u into a or b; leaves may
  // be u itself, primary inputs of the mux, or other debug-layer nodes.
  const NodeId ad = *dec.find("a");
  const NodeId bd = *dec.find("b");
  const NodeId root = *dec.find("dbgmux_m");
  for (const Cut& cut : en.cuts(root)) {
    for (NodeId leaf : cut.data_leaves) {
      EXPECT_NE(leaf, ad) << "barrier pierced through u";
      EXPECT_NE(leaf, bd) << "barrier pierced through u";
    }
  }
}

/// The eager enumeration CutEnumerator replaced, kept as an oracle: build
/// every merged cut's function (with a bit-by-bit permute), then prune by
/// dominance and rank.  The enumerator builds functions only for the cuts it
/// keeps; its cut lists and arrivals must not differ from these.
class EagerCuts {
 public:
  EagerCuts(const Netlist& nl, const CutConfig& config)
      : nl_(nl), config_(config) {
    cuts_.resize(nl.num_nodes());
    est_arrival_.assign(nl.num_nodes(), 0);
    for (NodeId id : nl.topo_order()) enumerate(id);
  }

  const std::vector<Cut>& cuts(NodeId id) const { return cuts_[id]; }
  int est_arrival(NodeId id) const { return est_arrival_[id]; }

 private:
  static bool merge_sorted(const std::vector<NodeId>& a,
                           const std::vector<NodeId>& b, std::size_t limit,
                           std::vector<NodeId>* out) {
    out->clear();
    std::size_t i = 0, j = 0;
    while (i < a.size() || j < b.size()) {
      NodeId next;
      if (j >= b.size() || (i < a.size() && a[i] <= b[j])) {
        next = a[i];
        if (j < b.size() && b[j] == a[i]) ++j;
        ++i;
      } else {
        next = b[j];
        ++j;
      }
      if (out->size() == limit) return false;
      out->push_back(next);
    }
    return true;
  }

  static int index_of(const std::vector<NodeId>& sorted, NodeId id) {
    return static_cast<int>(
        std::lower_bound(sorted.begin(), sorted.end(), id) - sorted.begin());
  }

  /// The child's function over the merged leaves, one bit at a time.
  static TruthTable extend_function(const Cut& child, const Cut& merged) {
    std::vector<int> perm;
    for (NodeId leaf : child.data_leaves) {
      perm.push_back(index_of(merged.data_leaves, leaf));
    }
    for (NodeId leaf : child.param_leaves) {
      perm.push_back(merged.num_data() + index_of(merged.param_leaves, leaf));
    }
    TruthTable t(merged.num_data() + merged.num_params());
    for (std::size_t idx = 0; idx < t.num_bits(); ++idx) {
      std::uint64_t src = 0;
      for (std::size_t v = 0; v < perm.size(); ++v) {
        if ((idx >> perm[v]) & 1U) src |= 1ULL << v;
      }
      t.set_bit(idx, child.function.bit(static_cast<std::size_t>(src)));
    }
    return t;
  }

  static bool dominates(const Cut& a, const Cut& b) {
    return std::includes(b.data_leaves.begin(), b.data_leaves.end(),
                         a.data_leaves.begin(), a.data_leaves.end()) &&
           std::includes(b.param_leaves.begin(), b.param_leaves.end(),
                         a.param_leaves.begin(), a.param_leaves.end());
  }

  int cut_arrival(const Cut& cut) const {
    int worst = 0;
    for (NodeId leaf : cut.data_leaves) {
      worst = std::max(worst, nl_.is_source(leaf) ? 0 : est_arrival_[leaf]);
    }
    return worst + 1;
  }

  Cut leaf_cut(NodeId node) const {
    Cut c;
    if (config_.params_free && nl_.kind(node) == netlist::NodeKind::kParam) {
      c.param_leaves = {node};
    } else {
      c.data_leaves = {node};
    }
    c.function = TruthTable::var(1, 0);
    return c;
  }

  bool merge(const Cut& a, const Cut& b, const TruthTable& g, Cut* out) const {
    if (!merge_sorted(a.data_leaves, b.data_leaves,
                      static_cast<std::size_t>(config_.lut_size),
                      &out->data_leaves) ||
        !merge_sorted(a.param_leaves, b.param_leaves,
                      static_cast<std::size_t>(config_.max_param_leaves),
                      &out->param_leaves)) {
      return false;
    }
    const int total = out->num_data() + out->num_params();
    if (total > config_.max_total_vars || total == 0) return false;
    const TruthTable fa = extend_function(a, *out);
    const TruthTable fb = extend_function(b, *out);
    TruthTable result = TruthTable::zero(total);
    for (std::uint64_t m = 0; m < 4; ++m) {
      if (!g.bit(m)) continue;
      result = result | (((m & 1) ? fa : ~fa) & ((m & 2) ? fb : ~fb));
    }
    out->function = std::move(result);
    return true;
  }

  void enumerate(NodeId node) {
    const auto& fanins = nl_.fanins(node);
    const auto* mask = config_.debug_layer;
    const bool node_is_debug =
        mask != nullptr && node < mask->size() && (*mask)[node];
    auto view = [&](NodeId fanin,
                    std::vector<Cut>* leaf) -> const std::vector<Cut>* {
      if (nl_.is_source(fanin) ||
          (node_is_debug && !(fanin < mask->size() && (*mask)[fanin]))) {
        leaf->push_back(leaf_cut(fanin));
        return leaf;
      }
      return &cuts_[fanin];
    };
    std::vector<Cut> result, leaf0, leaf1;
    Cut merged;
    if (fanins.size() == 1) {
      const TruthTable g = nl_.function(node).extended_to(2);
      for (const Cut& c : *view(fanins[0], &leaf0)) {
        if (merge(c, c, g, &merged)) result.push_back(merged);
      }
    } else if (fanins.size() == 2) {
      const TruthTable& g = nl_.function(node);
      const std::vector<Cut>* cuts0 = view(fanins[0], &leaf0);
      const std::vector<Cut>* cuts1 = view(fanins[1], &leaf1);
      for (const Cut& c0 : *cuts0) {
        for (const Cut& c1 : *cuts1) {
          if (merge(c0, c1, g, &merged)) result.push_back(merged);
        }
      }
    }

    std::vector<bool> keep(result.size(), true);
    for (std::size_t i = 0; i < result.size(); ++i) {
      for (std::size_t j = 0; j < result.size() && keep[i]; ++j) {
        if (i == j || !keep[j]) continue;
        if (dominates(result[j], result[i]) &&
            !(dominates(result[i], result[j]) && j > i)) {
          keep[i] = false;
        }
      }
    }
    std::vector<Cut> pruned;
    for (std::size_t i = 0; i < result.size(); ++i) {
      if (keep[i]) pruned.push_back(std::move(result[i]));
    }
    std::stable_sort(pruned.begin(), pruned.end(),
                     [this](const Cut& x, const Cut& y) {
                       const int ax = cut_arrival(x);
                       const int ay = cut_arrival(y);
                       if (ax != ay) return ax < ay;
                       return x.num_data() + x.num_params() <
                              y.num_data() + y.num_params();
                     });
    const auto limit = static_cast<std::size_t>(config_.cut_limit);
    if (pruned.size() > limit) {
      const std::size_t delay_slots = (limit + 1) / 2;
      std::vector<Cut> kept(pruned.begin(),
                            pruned.begin() +
                                static_cast<std::ptrdiff_t>(delay_slots));
      std::stable_sort(
          pruned.begin() + static_cast<std::ptrdiff_t>(delay_slots),
          pruned.end(), [this](const Cut& x, const Cut& y) {
            const int sx = x.num_data() + x.num_params();
            const int sy = y.num_data() + y.num_params();
            if (sx != sy) return sx < sy;
            return cut_arrival(x) < cut_arrival(y);
          });
      for (std::size_t i = delay_slots;
           i < pruned.size() && kept.size() < limit; ++i) {
        kept.push_back(std::move(pruned[i]));
      }
      pruned = std::move(kept);
    }
    int best_arrival = pruned.empty() ? 1 : cut_arrival(pruned.front());
    for (const Cut& c : pruned) {
      best_arrival = std::min(best_arrival, cut_arrival(c));
    }
    est_arrival_[node] = best_arrival;
    Cut trivial;
    trivial.data_leaves = {node};
    trivial.function = TruthTable::var(1, 0);
    pruned.push_back(std::move(trivial));
    cuts_[node] = std::move(pruned);
  }

  const Netlist& nl_;
  CutConfig config_;
  std::vector<std::vector<Cut>> cuts_;
  std::vector<int> est_arrival_;
};

TEST(CutEnumerator, MatchesEagerReference) {
  for (const int radix : {2, 4}) {
    genbench::CircuitSpec spec{"eager" + std::to_string(radix), 10, 8, 6, 90,
                               4, 6, static_cast<std::uint64_t>(40 + radix)};
    debug::InstrumentOptions opt;
    opt.trace_width = 6;
    opt.mux_radix = radix;
    const Netlist nl = synth::synthesize(
        debug::parameterize_signals(genbench::generate(spec), opt).netlist);
    // The mapper's layer mask: debug-layer logic carries the dbgmux_ prefix.
    std::vector<bool> mask(nl.num_nodes(), false);
    for (NodeId id = 0; id < nl.num_nodes(); ++id) {
      mask[id] = nl.kind(id) == netlist::NodeKind::kLogic &&
                 nl.name(id).rfind("dbgmux_", 0) == 0;
    }
    for (const bool params_free : {true, false}) {
      for (const int cut_limit : {4, 8}) {
        CutConfig config;
        config.cut_limit = cut_limit;
        config.params_free = params_free;
        config.debug_layer = params_free ? &mask : nullptr;
        const CutEnumerator en(nl, config);
        const EagerCuts ref(nl, config);
        const std::string where = "radix " + std::to_string(radix) +
                                  (params_free ? ", params free" : "") +
                                  ", cut_limit " + std::to_string(cut_limit);
        std::size_t compared = 0;
        for (NodeId id : nl.topo_order()) {
          ASSERT_EQ(en.est_arrival(id), ref.est_arrival(id)) << where;
          const std::vector<Cut>& got = en.cuts(id);
          const std::vector<Cut>& want = ref.cuts(id);
          ASSERT_EQ(got.size(), want.size()) << where << ", node " << id;
          for (std::size_t i = 0; i < got.size(); ++i) {
            ASSERT_EQ(got[i].data_leaves, want[i].data_leaves)
                << where << ", node " << id << ", cut " << i;
            ASSERT_EQ(got[i].param_leaves, want[i].param_leaves)
                << where << ", node " << id << ", cut " << i;
            ASSERT_EQ(got[i].function, want[i].function)
                << where << ", node " << id << ", cut " << i;
            ++compared;
          }
        }
        EXPECT_GT(compared, 4 * nl.topo_order().size()) << where;
      }
    }
  }
}

}  // namespace
}  // namespace fpgadbg::map
