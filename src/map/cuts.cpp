#include "map/cuts.h"

#include <algorithm>

#include "map/mapped_netlist.h"
#include "support/error.h"
#include "support/telemetry.h"

namespace fpgadbg::map {

using logic::TruthTable;
using netlist::Netlist;
using netlist::NodeId;
using netlist::NodeKind;

namespace {

/// Merge two sorted id lists; returns false if the union exceeds `limit`.
bool merge_sorted(const std::vector<NodeId>& a, const std::vector<NodeId>& b,
                  std::size_t limit, std::vector<NodeId>* out) {
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

int index_of(const std::vector<NodeId>& sorted, NodeId id) {
  const auto it = std::lower_bound(sorted.begin(), sorted.end(), id);
  FPGADBG_ASSERT(it != sorted.end() && *it == id, "cut leaf lookup failed");
  return static_cast<int>(it - sorted.begin());
}

/// Extend a child cut function onto the merged leaf space.
TruthTable extend_function(const Cut& child, const Cut& merged) {
  const int total =
      merged.num_data() + merged.num_params();
  std::vector<int> perm;
  perm.reserve(child.function.num_vars() == 0
                   ? 0
                   : static_cast<std::size_t>(child.function.num_vars()));
  for (NodeId leaf : child.data_leaves) {
    perm.push_back(index_of(merged.data_leaves, leaf));
  }
  for (NodeId leaf : child.param_leaves) {
    perm.push_back(merged.num_data() + index_of(merged.param_leaves, leaf));
  }
  return child.function.permuted(perm, total);
}

/// True when cut a's leaves are a subset of cut b's (a dominates b).
bool dominates(const Cut& a, const Cut& b) {
  return std::includes(b.data_leaves.begin(), b.data_leaves.end(),
                       a.data_leaves.begin(), a.data_leaves.end()) &&
         std::includes(b.param_leaves.begin(), b.param_leaves.end(),
                       a.param_leaves.begin(), a.param_leaves.end());
}

}  // namespace

bool tcon_feasible(const TruthTable& f, int nd, int np) {
  if (np == 0) return false;  // a TCON must be parameter-steered
  for (std::uint64_t pa = 0; pa < (1ULL << np); ++pa) {
    if (tcon_source(f, nd, pa) == kTconNotWire) return false;
  }
  return true;
}

CutEnumerator::CutEnumerator(const Netlist& nl, const CutConfig& config)
    : nl_(nl), config_(config) {
  FPGADBG_REQUIRE(config.lut_size >= 2 && config.lut_size <= 8,
                  "cut enumeration supports K in [2,8]");
  FPGADBG_REQUIRE(config.max_total_vars <= TruthTable::kMaxVars,
                  "max_total_vars exceeds truth-table limit");
  cuts_.resize(nl.num_nodes());
  est_arrival_.assign(nl.num_nodes(), 0);
  telemetry::TraceScope span("map.cut_enumeration", "map");
  std::size_t kept = 0;
  for (NodeId id : nl.topo_order()) {
    enumerate(id);
    kept += cuts_[id].size();
  }
  telemetry::MetricsRegistry& m = telemetry::metrics();
  m.counter("map.cuts_enumerated").add(generated_cuts_);
  m.counter("map.cuts_kept").add(kept);
  m.counter("map.nodes_enumerated").add(nl.topo_order().size());
}

int CutEnumerator::cut_arrival(const Cut& cut) const {
  int worst = 0;
  for (NodeId leaf : cut.data_leaves) {
    worst = std::max(worst, nl_.is_source(leaf) ? 0 : est_arrival_[leaf]);
  }
  return worst + 1;  // parameters are configuration; they add no level
}

Cut CutEnumerator::leaf_cut(NodeId node) const {
  Cut c;
  if (config_.params_free && nl_.kind(node) == NodeKind::kParam) {
    c.param_leaves = {node};
  } else {
    c.data_leaves = {node};
  }
  c.function = TruthTable::var(1, 0);
  return c;
}

bool CutEnumerator::merge(const Cut& a, const Cut& b, const TruthTable& g,
                          Cut* out) const {
  if (!merge_sorted(a.data_leaves, b.data_leaves,
                    static_cast<std::size_t>(config_.lut_size),
                    &out->data_leaves)) {
    return false;
  }
  if (!merge_sorted(a.param_leaves, b.param_leaves,
                    static_cast<std::size_t>(config_.max_param_leaves),
                    &out->param_leaves)) {
    return false;
  }
  const int total = out->num_data() + out->num_params();
  if (total > config_.max_total_vars) return false;
  if (total == 0) return false;

  const TruthTable fa = extend_function(a, *out);
  const TruthTable fb = extend_function(b, *out);
  // g is the 2-input root function over (fanin0, fanin1).
  TruthTable result = TruthTable::zero(total);
  for (std::uint64_t m = 0; m < 4; ++m) {
    if (!g.bit(m)) continue;
    TruthTable term = (m & 1) ? fa : ~fa;
    term = term & ((m & 2) ? fb : ~fb);
    result = result | term;
  }
  out->function = std::move(result);
  return true;
}

void CutEnumerator::enumerate(NodeId node) {
  const auto& fanins = nl_.fanins(node);
  FPGADBG_REQUIRE(fanins.size() <= 2,
                  "cut enumeration requires a decomposed (arity<=2) network");
  std::vector<Cut> result;

  const auto* mask = config_.debug_layer;
  const bool node_is_debug =
      mask != nullptr && node < mask->size() && (*mask)[node];
  // A fanin contributes only its leaf view when it is a source, or when a
  // debug-layer node looks at a user-circuit logic node (layer barrier).
  auto leaf_only_view = [&](NodeId fanin) {
    if (nl_.is_source(fanin)) return true;
    if (node_is_debug && mask != nullptr &&
        !(fanin < mask->size() && (*mask)[fanin])) {
      return true;
    }
    return false;
  };

  if (fanins.empty()) {
    // Constant node: single cut with the constant function over one dummy
    // leaf (itself), handled by the trivial cut below.
  } else if (fanins.size() == 1) {
    const TruthTable& g1 = nl_.function(node);
    // Treat as a 2-input g with an irrelevant second input.
    const TruthTable g = g1.extended_to(2);
    const std::vector<Cut>* in_cuts = &cuts_[fanins[0]];
    std::vector<Cut> leaf_only;
    if (leaf_only_view(fanins[0])) {
      leaf_only.push_back(leaf_cut(fanins[0]));
      in_cuts = &leaf_only;
    }
    Cut merged;
    for (const Cut& c : *in_cuts) {
      if (merge(c, c, g, &merged)) result.push_back(merged);
    }
  } else {
    const TruthTable& g = nl_.function(node);
    std::vector<Cut> leaf0, leaf1;
    const std::vector<Cut>* cuts0 = &cuts_[fanins[0]];
    const std::vector<Cut>* cuts1 = &cuts_[fanins[1]];
    if (leaf_only_view(fanins[0])) {
      leaf0.push_back(leaf_cut(fanins[0]));
      cuts0 = &leaf0;
    }
    if (leaf_only_view(fanins[1])) {
      leaf1.push_back(leaf_cut(fanins[1]));
      cuts1 = &leaf1;
    }
    Cut merged;
    for (const Cut& c0 : *cuts0) {
      for (const Cut& c1 : *cuts1) {
        if (merge(c0, c1, g, &merged)) result.push_back(merged);
      }
    }
  }

  generated_cuts_ += result.size();

  // Dominance pruning: remove any cut whose leaves are a superset of
  // another's.
  std::vector<bool> keep(result.size(), true);
  for (std::size_t i = 0; i < result.size(); ++i) {
    for (std::size_t j = 0; j < result.size() && keep[i]; ++j) {
      if (i == j || !keep[j]) continue;
      // j knocks out i when j's leaves are a subset; exact duplicates keep
      // the earlier index.
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

  // Priority: split the budget between delay-best cuts (they let the cover
  // recover the pre-decomposition logic depth) and smallest cuts (they are
  // the structural/local cuts whose leaf sets stay compatible, so fanout
  // merges keep succeeding on the way up a decomposition tree).  Keeping
  // only one flavor loses either depth or coverage.
  std::stable_sort(pruned.begin(), pruned.end(),
                   [this](const Cut& x, const Cut& y) {
                     const int ax = cut_arrival(x);
                     const int ay = cut_arrival(y);
                     if (ax != ay) return ax < ay;
                     return x.num_data() + x.num_params() <
                            y.num_data() + y.num_params();
                   });
  if (pruned.size() > static_cast<std::size_t>(config_.cut_limit)) {
    const std::size_t limit = static_cast<std::size_t>(config_.cut_limit);
    const std::size_t delay_slots = (limit + 1) / 2;
    std::vector<Cut> kept(pruned.begin(),
                          pruned.begin() + static_cast<std::ptrdiff_t>(
                                               delay_slots));
    std::stable_sort(pruned.begin() + static_cast<std::ptrdiff_t>(delay_slots),
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

  // Trivial cut last (always available as a fallback and as the leaf view
  // for fanout merging).
  Cut trivial;
  trivial.data_leaves = {node};
  trivial.function = TruthTable::var(1, 0);
  pruned.push_back(std::move(trivial));

  cuts_[node] = std::move(pruned);
}

}  // namespace fpgadbg::map
