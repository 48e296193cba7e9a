#include "map/cuts.h"

#include <algorithm>
#include <array>

#include "map/mapped_netlist.h"
#include "support/error.h"
#include "support/stopwatch.h"
#include "support/telemetry.h"

namespace fpgadbg::map {

using logic::TruthTable;
using netlist::Netlist;
using netlist::NodeId;
using netlist::NodeKind;

namespace {

/// Merges two sorted leaf runs into `out`; returns false if the union
/// exceeds `limit`.
bool merge_sorted(const NodeId* a, std::size_t na, const NodeId* b,
                  std::size_t nb, std::size_t limit, NodeId* out,
                  std::size_t* count) {
  std::size_t i = 0, j = 0, n = 0;
  while (i < na || j < nb) {
    NodeId next;
    if (j >= nb || (i < na && a[i] <= b[j])) {
      next = a[i];
      if (j < nb && b[j] == a[i]) ++j;
      ++i;
    } else {
      next = b[j];
      ++j;
    }
    if (n == limit) return false;
    out[n++] = next;
  }
  *count = n;
  return true;
}

/// Bit (id % 64) of every leaf: a cut whose signature has a bit another's
/// lacks cannot be a subset of it.
std::uint64_t signature(const NodeId* leaves, std::size_t n) {
  std::uint64_t sig = 0;
  for (std::size_t i = 0; i < n; ++i) sig |= 1ULL << (leaves[i] % 64);
  return sig;
}

int index_of(const NodeId* first, const NodeId* last, NodeId id) {
  const NodeId* it = std::lower_bound(first, last, id);
  FPGADBG_ASSERT(it != last && *it == id, "cut leaf lookup failed");
  return static_cast<int>(it - first);
}

/// A merged leaf set whose function is not built yet: data leaves then
/// parameter leaves, each run sorted, held inline.  Pruning and ranking read
/// only this; the function is built for the cuts that survive.
struct Candidate {
  std::array<NodeId, TruthTable::kMaxVars> leaves{};
  std::uint8_t num_data = 0;
  std::uint8_t num_params = 0;
  std::uint64_t sig = 0;
  int arrival = 0;
  std::uint32_t parent0 = 0;  ///< index into the first fanin's cut list
  std::uint32_t parent1 = 0;  ///< index into the second (or the same) list

  int size() const { return num_data + num_params; }
  const NodeId* data_begin() const { return leaves.data(); }
  const NodeId* data_end() const { return leaves.data() + num_data; }
  const NodeId* params_end() const { return data_end() + num_params; }

  /// True when this cut's leaves are a subset of `o`'s (this dominates o).
  bool dominates(const Candidate& o) const {
    if (num_data > o.num_data || num_params > o.num_params ||
        (sig & ~o.sig) != 0) {
      return false;
    }
    return std::includes(o.data_begin(), o.data_end(), data_begin(),
                         data_end()) &&
           std::includes(o.data_end(), o.params_end(), data_end(),
                         params_end());
  }
};

/// Merges the leaf sets of cuts a and b into `out` (all but its arrival and
/// parents); false when the union breaks a leaf limit.  Every limit is also
/// capped by max_total_vars, the size of the inline array.
bool merge_leaves(const Cut& a, const Cut& b, const CutConfig& config,
                  Candidate* out) {
  const auto total_limit =
      static_cast<std::size_t>(std::max(config.max_total_vars, 0));
  std::size_t nd = 0, np = 0;
  if (!merge_sorted(a.data_leaves.data(), a.data_leaves.size(),
                    b.data_leaves.data(), b.data_leaves.size(),
                    std::min(static_cast<std::size_t>(config.lut_size),
                             total_limit),
                    out->leaves.data(), &nd)) {
    return false;
  }
  if (!merge_sorted(a.param_leaves.data(), a.param_leaves.size(),
                    b.param_leaves.data(), b.param_leaves.size(),
                    std::min(static_cast<std::size_t>(config.max_param_leaves),
                             total_limit - nd),
                    out->leaves.data() + nd, &np)) {
    return false;
  }
  if (nd + np == 0) return false;
  out->num_data = static_cast<std::uint8_t>(nd);
  out->num_params = static_cast<std::uint8_t>(np);
  out->sig = signature(out->leaves.data(), nd + np);
  return true;
}

/// Extend a child cut function onto the merged leaf space.
TruthTable extend_function(const Cut& child, const Candidate& merged) {
  std::vector<int> perm;
  perm.reserve(child.data_leaves.size() + child.param_leaves.size());
  for (NodeId leaf : child.data_leaves) {
    perm.push_back(index_of(merged.data_begin(), merged.data_end(), leaf));
  }
  for (NodeId leaf : child.param_leaves) {
    perm.push_back(merged.num_data +
                   index_of(merged.data_end(), merged.params_end(), leaf));
  }
  return child.function.permuted(perm, merged.size());
}

/// The kept cut of `cand`: its leaves, and the root function g (over fanin0,
/// fanin1) applied to the parents' functions, one word at a time.
Cut build_cut(const Candidate& cand, const Cut& a, const Cut& b,
              const TruthTable& g) {
  Cut cut;
  cut.data_leaves.assign(cand.data_begin(), cand.data_end());
  cut.param_leaves.assign(cand.data_end(), cand.params_end());
  const TruthTable fa = extend_function(a, cand);
  const TruthTable fb = extend_function(b, cand);
  const std::uint64_t m0 = g.bit(0) ? ~0ULL : 0;
  const std::uint64_t m1 = g.bit(1) ? ~0ULL : 0;
  const std::uint64_t m2 = g.bit(2) ? ~0ULL : 0;
  const std::uint64_t m3 = g.bit(3) ? ~0ULL : 0;
  const std::vector<std::uint64_t>& wa = fa.words();
  const std::vector<std::uint64_t>& wb = fb.words();
  std::vector<std::uint64_t> words(wa.size());
  for (std::size_t w = 0; w < words.size(); ++w) {
    const std::uint64_t x = wa[w];
    const std::uint64_t y = wb[w];
    words[w] = (m0 & ~x & ~y) | (m1 & x & ~y) | (m2 & ~x & y) | (m3 & x & y);
  }
  cut.function = TruthTable::from_words(cand.size(), std::move(words));
  return cut;
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
  Stopwatch timer;
  std::size_t kept = 0;
  for (NodeId id : nl.topo_order()) {
    enumerate(id);
    kept += cuts_[id].size();
  }
  telemetry::MetricsRegistry& m = telemetry::metrics();
  m.counter("map.cuts_enumerated").add(generated_cuts_);
  m.counter("map.cuts_kept").add(kept);
  m.counter("map.nodes_enumerated").add(nl.topo_order().size());
  m.histogram("map.cut_enumeration_seconds").observe(timer.elapsed_seconds());
}

int CutEnumerator::cut_arrival(const NodeId* data_begin,
                               const NodeId* data_end) const {
  int worst = 0;
  for (const NodeId* leaf = data_begin; leaf != data_end; ++leaf) {
    worst = std::max(worst, nl_.is_source(*leaf) ? 0 : est_arrival_[*leaf]);
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

void CutEnumerator::enumerate(NodeId node) {
  const auto& fanins = nl_.fanins(node);
  FPGADBG_REQUIRE(fanins.size() <= 2,
                  "cut enumeration requires a decomposed (arity<=2) network");

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

  // The parent cut lists.  A one-fanin node merges each cut with itself
  // (both lists are its fanin's) under a 2-input g whose second input is
  // irrelevant.  The leaf-only views live here until the kept cuts'
  // functions are built from them.
  std::vector<Cut> leaf0, leaf1;
  const std::vector<Cut>* cuts0 = nullptr;
  const std::vector<Cut>* cuts1 = nullptr;
  TruthTable g;
  if (!fanins.empty()) {
    cuts0 = &cuts_[fanins[0]];
    if (leaf_only_view(fanins[0])) {
      leaf0.push_back(leaf_cut(fanins[0]));
      cuts0 = &leaf0;
    }
  }
  if (fanins.size() == 1) {
    g = nl_.function(node).extended_to(2);
    cuts1 = cuts0;
  } else if (fanins.size() == 2) {
    g = nl_.function(node);
    cuts1 = &cuts_[fanins[1]];
    if (leaf_only_view(fanins[1])) {
      leaf1.push_back(leaf_cut(fanins[1]));
      cuts1 = &leaf1;
    }
  }

  // Merge leaf sets only; a constant node has none and keeps only the
  // trivial cut below.
  std::vector<Candidate> cands;
  Candidate merged;
  auto add = [&](const Cut& a, const Cut& b, std::size_t i, std::size_t j) {
    if (!merge_leaves(a, b, config_, &merged)) return;
    merged.arrival = cut_arrival(merged.data_begin(), merged.data_end());
    merged.parent0 = static_cast<std::uint32_t>(i);
    merged.parent1 = static_cast<std::uint32_t>(j);
    cands.push_back(merged);
  };
  if (fanins.size() == 1) {
    cands.reserve(cuts0->size());
    for (std::size_t i = 0; i < cuts0->size(); ++i) {
      add((*cuts0)[i], (*cuts0)[i], i, i);
    }
  } else if (fanins.size() == 2) {
    cands.reserve(cuts0->size() * cuts1->size());
    for (std::size_t i = 0; i < cuts0->size(); ++i) {
      for (std::size_t j = 0; j < cuts1->size(); ++j) {
        add((*cuts0)[i], (*cuts1)[j], i, j);
      }
    }
  }
  generated_cuts_ += cands.size();

  // Dominance pruning: remove any cut whose leaves are a superset of
  // another's.
  std::vector<bool> keep(cands.size(), true);
  for (std::size_t i = 0; i < cands.size(); ++i) {
    for (std::size_t j = 0; j < cands.size() && keep[i]; ++j) {
      if (i == j || !keep[j]) continue;
      // j knocks out i when j's leaves are a subset; exact duplicates keep
      // the earlier index.
      if (cands[j].dominates(cands[i]) &&
          !(cands[i].dominates(cands[j]) && j > i)) {
        keep[i] = false;
      }
    }
  }
  std::vector<std::size_t> pruned;
  for (std::size_t i = 0; i < cands.size(); ++i) {
    if (keep[i]) pruned.push_back(i);
  }

  // Priority: split the budget between delay-best cuts (they let the cover
  // recover the pre-decomposition logic depth) and smallest cuts (they are
  // the structural/local cuts whose leaf sets stay compatible, so fanout
  // merges keep succeeding on the way up a decomposition tree).  Keeping
  // only one flavor loses either depth or coverage.
  std::stable_sort(pruned.begin(), pruned.end(),
                   [&cands](std::size_t x, std::size_t y) {
                     const Candidate& cx = cands[x];
                     const Candidate& cy = cands[y];
                     if (cx.arrival != cy.arrival) {
                       return cx.arrival < cy.arrival;
                     }
                     return cx.size() < cy.size();
                   });
  const auto limit = static_cast<std::size_t>(config_.cut_limit);
  if (pruned.size() > limit) {
    const auto delay_slots = static_cast<std::ptrdiff_t>((limit + 1) / 2);
    std::stable_sort(pruned.begin() + delay_slots, pruned.end(),
                     [&cands](std::size_t x, std::size_t y) {
                       const Candidate& cx = cands[x];
                       const Candidate& cy = cands[y];
                       if (cx.size() != cy.size()) {
                         return cx.size() < cy.size();
                       }
                       return cx.arrival < cy.arrival;
                     });
    pruned.resize(limit);
  }
  // The delay-best cut leads: the second sort never moves the first slot.
  est_arrival_[node] = pruned.empty() ? 1 : cands[pruned.front()].arrival;

  // Only now build the kept cuts' functions.
  std::vector<Cut> result;
  result.reserve(pruned.size() + 1);
  for (std::size_t i : pruned) {
    const Candidate& cand = cands[i];
    result.push_back(
        build_cut(cand, (*cuts0)[cand.parent0], (*cuts1)[cand.parent1], g));
  }

  // Trivial cut last (always available as a fallback and as the leaf view
  // for fanout merging).
  Cut trivial;
  trivial.data_leaves = {node};
  trivial.function = TruthTable::var(1, 0);
  result.push_back(std::move(trivial));

  cuts_[node] = std::move(result);
}

}  // namespace fpgadbg::map
