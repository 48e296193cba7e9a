#include "pnr/route.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <queue>
#include <unordered_map>

#include "support/error.h"
#include "support/log.h"
#include "support/stopwatch.h"
#include "support/telemetry.h"

namespace fpgadbg::pnr {

using arch::RREdgeId;
using arch::RRGraph;
using arch::RRKind;
using arch::RRNode;
using arch::RRNodeId;
using map::MappedNetlist;

namespace {

/// PathFinder's negotiation schedule: at most kMaxIterations iterations; the
/// present-congestion factor starts at kPresFacInit and grows by
/// kPresFacMult per iteration; each iteration adds kHistFac times a node's
/// overuse to its history cost.
constexpr int kMaxIterations = 40;
constexpr double kPresFacInit = 0.6;
constexpr double kPresFacMult = 1.6;
constexpr double kHistFac = 0.4;

/// Group-aware occupancy of one RR node: a short list of (group, count).
/// Ungrouped nets use unique synthetic group ids so each counts separately.
struct NodeOcc {
  std::vector<std::pair<int, int>> groups;

  int occupancy() const { return static_cast<int>(groups.size()); }

  bool holds(int group) const {
    for (const auto& [g, c] : groups) {
      if (g == group) return true;
    }
    return false;
  }
  void add(int group) {
    for (auto& [g, c] : groups) {
      if (g == group) {
        ++c;
        return;
      }
    }
    groups.emplace_back(group, 1);
  }
  void remove(int group) {
    for (std::size_t i = 0; i < groups.size(); ++i) {
      if (groups[i].first == group) {
        if (--groups[i].second == 0) {
          groups[i] = groups.back();
          groups.pop_back();
        }
        return;
      }
    }
    FPGADBG_ASSERT(false, "removing absent group from RR node");
  }
};

struct QueueEntry {
  double f;  ///< g + astar_fac * lookahead (== g under plain Dijkstra)
  double g;  ///< accumulated path cost
  RRNodeId node;
  /// Min-heap order on f; among equal f the deeper node (larger g) pops
  /// first, so a search runs down one shortest path instead of widening
  /// over every node of equal f.
  bool operator>(const QueueEntry& o) const {
    return f > o.f || (f == o.f && g < o.g);
  }
};

/// Inclusive tile-coordinate rectangle.  The router prunes expansion to the
/// net's box: a node is tested against its own (x, y).
struct BBox {
  int x0 = 0, y0 = 0, x1 = -1, y1 = -1;

  bool contains(int x, int y) const {
    return x >= x0 && x <= x1 && y >= y0 && y <= y1;
  }
  void include(int x, int y) {
    if (x1 < x0) {
      x0 = x1 = x;
      y0 = y1 = y;
      return;
    }
    x0 = std::min(x0, x);
    x1 = std::max(x1, x);
    y0 = std::min(y0, y);
    y1 = std::max(y1, y);
  }
  void clamp(int width, int height) {
    x0 = std::max(x0, 0);
    y0 = std::max(y0, 0);
    x1 = std::min(x1, width - 1);
    y1 = std::min(y1, height - 1);
  }
  bool covers(int width, int height) const {
    return x0 <= 0 && y0 <= 0 && x1 >= width - 1 && y1 >= height - 1;
  }
};

/// Per-search scratch state, allocated once per route() call and reused by
/// every net (the O(num_nodes) arrays are reset by stamping, not clearing).
struct SearchContext {
  explicit SearchContext(std::size_t num_nodes)
      : dist(num_nodes),
        prev_edge(num_nodes),
        stamp(num_nodes, 0),
        tree_stamp(num_nodes, 0) {}

  std::vector<double> dist;  ///< g cost per node, valid where stamp == now
  std::vector<RREdgeId> prev_edge;
  std::vector<std::uint32_t> stamp;
  std::uint32_t now = 0;
  /// Stamped membership of the net currently being routed: tree_stamp[id] ==
  /// tree_token iff id is in net_nodes[n].  Dedupes both occupancy updates
  /// and the Dijkstra/A* seeds of subsequent sinks (the route tree would
  /// otherwise accumulate duplicate nodes on every walk-back).
  std::vector<std::uint64_t> tree_stamp;
  std::uint64_t tree_token = 0;
};

/// Net terminals in RR space.
struct Terminals {
  RRNodeId source = 0;
  std::vector<RRNodeId> sinks;
  /// NetSink indices (into PhysNet::sinks) merged into each kept sink: two
  /// logical connections landing on the same IPIN dedupe into one routed
  /// sink, and timing-driven costing takes the worst criticality of the
  /// merged set.
  std::vector<std::vector<std::size_t>> sink_conns;
  int group = 0;
  int source_group = 0;  ///< keyed by driver: all fanout nets share the OPIN
};

/// The negotiation state shared by every net routing of one route() call.
struct Router {
  Router(const RRGraph& graph, const RouteOptions& opts, RouteResult* res)
      : rr(graph),
        astar_fac(std::max(opts.astar_fac, 0.0)),
        width(graph.device().width()),
        height(graph.device().height()),
        result(res) {}

  const RRGraph& rr;
  double astar_fac;  ///< RouteOptions::astar_fac; a negative weight acts as 0
  int width;
  int height;

  std::vector<Terminals> terms;
  std::vector<NodeOcc> occ;
  std::vector<double> history;
  std::vector<std::vector<RRNodeId>> net_nodes;  ///< per-net used nodes
  std::vector<BBox> net_bb;      ///< current expansion box per net
  std::vector<BBox> term_bb;     ///< terminal-only box per net (fixed)
  std::vector<int> net_margin;   ///< current margin around term_bb
  std::vector<char> net_failed;  ///< sink(s) unreached in the last attempt
  std::vector<int> congested_reroutes;  ///< reroutes caused by overuse
  RouteResult* result = nullptr;
  double pres_fac = 0.0;

  // Timing-driven state, refreshed once per iteration after every dirty net
  // has rerouted (read-only while nets route).
  bool timing_driven = false;
  double crit_weight = 1.0;      ///< TimingOptions::route_crit_weight
  double pin_delay_units = 1.0;  ///< pin_ns / segment_ns (wire segment = 1)
  /// Effective criticality (crit^crit_exp, capped below 1 so congestion
  /// pressure never vanishes) per net per kept sink.
  std::vector<std::vector<double>> conn_crit;
  /// Per-net sink visit order: most critical first, ties by sink index.
  std::vector<std::vector<std::uint32_t>> sink_order;

  std::size_t bbox_expansions = 0;

  // Group used by net n on node id: OPINs are keyed by driver (all fanout
  // nets of one driver share the physical pin), everything else by the
  // net's exclusivity group.
  int group_at(std::size_t n, RRNodeId id) const {
    return rr.node(id).kind == RRKind::kOpin ? terms[n].source_group
                                             : terms[n].group;
  }

  /// Intrinsic delay of entering a node, in units of one wire segment's
  /// delay (so the congestion base cost of 1.0 and a segment's delay cost of
  /// 1.0 share a scale).
  double delay_units(RRNodeId id) const {
    const RRKind kind = rr.node(id).kind;
    return (kind == RRKind::kChanX || kind == RRKind::kChanY)
               ? 1.0
               : pin_delay_units;
  }

  /// Node cost for a sink of criticality `crit` (0 in wirelength mode): the
  /// VPR blend crit·delay + (1-crit)·congestion.  Critical connections price
  /// wires by delay and shrug at congestion; non-critical ones detour around
  /// it — the negotiation moves shareable slack onto the nets that have it.
  double node_cost(RRNodeId id, int group, double crit) const {
    const auto& node = rr.node(id);
    int occupancy = occ[id].occupancy();
    if (!occ[id].holds(group)) occupancy += 1;  // cost as if we were added
    const int over = std::max(0, occupancy - node.capacity);
    const double congestion =
        (1.0 + history[id]) * (1.0 + pres_fac * over);
    if (crit <= 0.0) return congestion;
    return (1.0 - crit) * congestion + crit * crit_weight * delay_units(id);
  }

  /// Exact A* lookahead: the number of RR nodes still to be entered to
  /// reach the target on the empty fabric (target IPIN included), times
  /// `scale` — the cheapest possible per-node cost of the current search
  /// (1.0 in wirelength mode, where every node costs at least 1.0).  A true
  /// shortest distance keeps the estimate admissible and consistent (it
  /// drops by at most 1 per edge while every entered node costs at least
  /// `scale`); on an uncongested fabric it is the path's own cost, so each
  /// search pops only its path.
  double lookahead(RRNodeId id, int tx, int ty, double scale) const {
    return astar_fac * scale *
           static_cast<double>(rr.min_nodes_to_ipin(id, tx, ty));
  }

  /// Lower bound on node_cost() over every node kind for a sink of
  /// criticality `crit`: congestion cost is >= 1.0, delay cost is >= the
  /// cheapest delay unit.  Scaling the lookahead by it keeps A* admissible
  /// under the timing blend.
  double min_node_cost(double crit) const {
    if (crit <= 0.0) return 1.0;
    const double min_units = std::min(1.0, pin_delay_units);
    return (1.0 - crit) + crit * crit_weight * min_units;
  }

  void rip_up(std::size_t n) {
    for (RRNodeId id : net_nodes[n]) occ[id].remove(group_at(n, id));
    net_nodes[n].clear();
    result->routes[n].clear();
  }

  /// Widens net n's box by doubling its margin (clamped to the device).  A
  /// box that already covers the device stays as it is.
  void grow_bb(std::size_t n) {
    if (net_bb[n].covers(width, height)) return;
    net_margin[n] = std::max(net_margin[n] * 2, 1);
    BBox bb = term_bb[n];
    bb.x0 -= net_margin[n];
    bb.y0 -= net_margin[n];
    bb.x1 += net_margin[n];
    bb.y1 += net_margin[n];
    bb.clamp(width, height);
    net_bb[n] = bb;
    ++bbox_expansions;
  }

  /// Routes every sink of net n inside its current bounding box.  Returns
  /// false as soon as a sink is unreachable within the box (the net is
  /// ripped up and left unrouted for the caller to grow + retry).  When
  /// `last_resort` is set, an unreachable sink no longer aborts: the partial
  /// route is kept and PathFinder keeps negotiating (classic behaviour).
  bool route_net(SearchContext& ctx, std::size_t n, bool last_resort,
                 std::size_t* pops_out) {
    rip_up(n);
    net_failed[n] = 0;
    const BBox& bb = net_bb[n];
    std::size_t pops = 0;

    occ[terms[n].source].add(group_at(n, terms[n].source));
    net_nodes[n].push_back(terms[n].source);
    ++ctx.tree_token;
    ctx.tree_stamp[terms[n].source] = ctx.tree_token;

    // Timing-driven: most critical sink first, so the scarce direct wires go
    // to the connections that need them; the rest share what remains.
    const std::size_t num_sinks = terms[n].sinks.size();
    for (std::size_t si = 0; si < num_sinks; ++si) {
      const std::size_t k =
          timing_driven ? sink_order[n][si] : si;
      const RRNodeId target = terms[n].sinks[k];
      const double crit = timing_driven ? conn_crit[n][k] : 0.0;
      const double la_scale = min_node_cost(crit);
      const RRNode& tnode = rr.node(target);
      const int tx = tnode.x;
      const int ty = tnode.y;
      ++ctx.now;
      std::priority_queue<QueueEntry, std::vector<QueueEntry>,
                          std::greater<QueueEntry>>
          queue;
      // The whole current route tree seeds the search at cost 0.
      for (RRNodeId t : net_nodes[n]) {
        ctx.dist[t] = 0.0;
        ctx.stamp[t] = ctx.now;
        ctx.prev_edge[t] = static_cast<RREdgeId>(-1);
        queue.push(QueueEntry{lookahead(t, tx, ty, la_scale), 0.0, t});
      }
      bool reached = false;
      while (!queue.empty()) {
        const QueueEntry top = queue.top();
        queue.pop();
        ++pops;
        if (ctx.stamp[top.node] == ctx.now && top.g > ctx.dist[top.node]) {
          continue;
        }
        if (top.node == target) {
          reached = true;
          break;
        }
        for (RREdgeId e : rr.out_edges(top.node)) {
          const RRNodeId next = rr.edge(e).to;
          // IPINs are only enterable when they are the target (a pin is
          // not a through-route).
          if (rr.node(next).kind == RRKind::kIpin && next != target) {
            continue;
          }
          const RRNode& nnode = rr.node(next);
          if (!bb.contains(nnode.x, nnode.y)) continue;
          const double g = top.g + node_cost(next, group_at(n, next), crit);
          if (ctx.stamp[next] != ctx.now || g < ctx.dist[next]) {
            ctx.stamp[next] = ctx.now;
            ctx.dist[next] = g;
            ctx.prev_edge[next] = e;
            queue.push(
                QueueEntry{g + lookahead(next, tx, ty, la_scale), g, next});
          }
        }
      }
      if (!reached) {
        net_failed[n] = 1;
        if (!last_resort) {
          // The caller grows the box and retries.
          rip_up(n);
          *pops_out += pops;
          return false;
        }
        // Device-wide search already: keep the partial route, PathFinder
        // keeps negotiating next iteration.
        continue;
      }
      // Walk back, adding new nodes to the tree.  tree_stamp dedupes: a
      // node already on the tree is neither re-added to net_nodes nor
      // double-counted in occupancy.
      RRNodeId cur = target;
      while (ctx.prev_edge[cur] != static_cast<RREdgeId>(-1)) {
        const RREdgeId e = ctx.prev_edge[cur];
        result->routes[n].push_back(e);
        if (ctx.tree_stamp[cur] != ctx.tree_token) {
          ctx.tree_stamp[cur] = ctx.tree_token;
          occ[cur].add(group_at(n, cur));
          net_nodes[n].push_back(cur);
        }
        cur = rr.edge(e).from;
      }
    }
    *pops_out += pops;
    return true;
  }

  /// Routes one net to completion: attempt inside the current box, grow on
  /// failure, device-wide last resort.
  void route_net_growing(SearchContext& ctx, std::size_t n,
                         std::size_t* pops_out) {
    for (;;) {
      const bool last_resort = net_bb[n].covers(width, height);
      if (route_net(ctx, n, last_resort, pops_out)) return;
      grow_bb(n);
    }
  }
};

}  // namespace

RouteResult route(const RRGraph& rr, const MappedNetlist& mn,
                  const Packing& packing, const NetExtraction& nets,
                  const Placement& placement, const RouteOptions& options,
                  const TimingOptions& timing) {
  Stopwatch timer;
  RouteResult result;
  result.routes.resize(nets.nets.size());

  Router router(rr, options, &result);
  router.terms.resize(nets.nets.size());
  for (std::size_t n = 0; n < nets.nets.size(); ++n) {
    const PhysNet& net = nets.nets[n];
    const auto dpos = placement.cell_pos(mn, packing, net.driver);
    Terminals t;
    t.source = rr.opin_at(dpos.first, dpos.second);
    t.group = net.exclusive_group >= 0
                  ? net.exclusive_group
                  : -(static_cast<int>(n) + 2);  // unique synthetic group
    // A physical output pin drives arbitrary fanout: every net of the same
    // driver occupies the OPIN once, together.
    t.source_group = -(static_cast<int>(net.driver) + 2);
    std::unordered_map<RRNodeId, std::size_t> seen;  // ipin -> kept index
    for (std::size_t s = 0; s < net.sinks.size(); ++s) {
      const NetSink& sink = net.sinks[s];
      std::pair<int, int> pos;
      switch (sink.kind) {
        case SinkKind::kCellPin:
          pos = placement.cell_pos(mn, packing, sink.cell);
          break;
        case SinkKind::kPrimaryOutput:
          pos = placement.io_of_output[sink.index];
          break;
        case SinkKind::kTraceBuffer:
          pos = placement.bram_of_lane[sink.index];
          break;
      }
      if (pos == dpos) continue;  // intra-tile connection: no routing needed
      const RRNodeId ipin = rr.ipin_at(pos.first, pos.second);
      const auto [it, inserted] = seen.emplace(ipin, t.sinks.size());
      if (inserted) {
        t.sinks.push_back(ipin);
        t.sink_conns.push_back({s});
      } else {
        t.sink_conns[it->second].push_back(s);
      }
    }
    router.terms[n] = std::move(t);
  }

  router.occ.resize(rr.num_nodes());
  router.history.assign(rr.num_nodes(), 0.0);
  router.net_nodes.resize(nets.nets.size());
  router.net_failed.assign(nets.nets.size(), 0);
  router.congested_reroutes.assign(nets.nets.size(), 0);
  router.pres_fac = kPresFacInit;

  // Initial per-net expansion boxes: the terminal bounding box plus the
  // configured margin; bb_margin < 0 disables pruning (device-wide boxes).
  router.term_bb.resize(nets.nets.size());
  router.net_bb.resize(nets.nets.size());
  router.net_margin.assign(nets.nets.size(), std::max(options.bb_margin, 0));
  for (std::size_t n = 0; n < nets.nets.size(); ++n) {
    BBox tb;
    const RRNode& src = rr.node(router.terms[n].source);
    tb.include(src.x, src.y);
    for (RRNodeId s : router.terms[n].sinks) {
      tb.include(rr.node(s).x, rr.node(s).y);
    }
    router.term_bb[n] = tb;
    if (options.bb_margin < 0) {
      router.net_bb[n] =
          BBox{0, 0, router.width - 1, router.height - 1};
    } else {
      BBox bb = tb;
      bb.x0 -= options.bb_margin;
      bb.y0 -= options.bb_margin;
      bb.x1 += options.bb_margin;
      bb.y1 += options.bb_margin;
      bb.clamp(router.width, router.height);
      router.net_bb[n] = bb;
    }
  }

  // Timing-driven setup: the STA starts at placed fidelity (no routes yet)
  // and its critical-path estimate becomes the clock budget the slack series
  // converges against.  Criticalities are refreshed once per iteration, after
  // every dirty net has rerouted, so all nets of one iteration read the same
  // values.
  std::unique_ptr<TimingAnalyzer> sta;
  auto refresh_criticalities = [&]() {
    for (std::size_t n = 0; n < router.terms.size(); ++n) {
      const Terminals& t = router.terms[n];
      auto& crit = router.conn_crit[n];
      auto& order = router.sink_order[n];
      crit.assign(t.sinks.size(), 0.0);
      order.resize(t.sinks.size());
      for (std::size_t k = 0; k < t.sinks.size(); ++k) {
        double worst = 0.0;
        for (std::size_t conn : t.sink_conns[k]) {
          worst = std::max(worst, sta->connection_criticality(n, conn));
        }
        // Sharpen, then cap below 1: a connection must never go fully blind
        // to congestion or the negotiation cannot evict it from overuse.
        crit[k] = std::min(0.95, std::pow(worst, timing.crit_exp));
        order[k] = static_cast<std::uint32_t>(k);
      }
      std::sort(order.begin(), order.end(),
                [&](std::uint32_t a, std::uint32_t b) {
                  if (crit[a] != crit[b]) return crit[a] > crit[b];
                  return a < b;
                });
    }
  };
  if (timing.timing_driven) {
    router.timing_driven = true;
    router.crit_weight = timing.route_crit_weight;
    router.pin_delay_units = timing.delays.segment_ns > 0.0
                                 ? timing.delays.pin_ns / timing.delays.segment_ns
                                 : 1.0;
    router.conn_crit.resize(nets.nets.size());
    router.sink_order.resize(nets.nets.size());
    sta = std::make_unique<TimingAnalyzer>(mn, nets, timing.delays);
    sta->use_placed_delays(packing, placement);
    sta->update();
    sta->set_clock_budget_ns(sta->critical_path_ns());
    refresh_criticalities();
  }

  SearchContext ctx(rr.num_nodes());

  static telemetry::Counter& iter_counter =
      telemetry::metrics().counter("pnr.route.iterations");
  static telemetry::Counter& rerouted_counter =
      telemetry::metrics().counter("pnr.route.rerouted_nets");
  static telemetry::Counter& pops_counter =
      telemetry::metrics().counter("pnr.route.heap_pops");
  static telemetry::Counter& bbox_counter =
      telemetry::metrics().counter("pnr.route.bbox_expansions");
  static telemetry::Gauge& overuse_gauge =
      telemetry::metrics().gauge("pnr.route.overused_nodes");
  static telemetry::Histogram& iter_hist =
      telemetry::metrics().histogram("pnr.route.iteration_seconds");
  // Ordered convergence trajectory (one point per iteration), so the metrics
  // JSON and a live /metrics scrape can show the negotiation closing in on
  // zero overuse rather than only the final state.
  static telemetry::Series& overused_series =
      telemetry::metrics().series("pnr.route.iteration.overused_nodes");
  static telemetry::Series& rerouted_series =
      telemetry::metrics().series("pnr.route.iteration.rerouted_nets");
  static telemetry::Series& pops_series =
      telemetry::metrics().series("pnr.route.iteration.heap_pops");

  telemetry::ProgressReporter progress("pnr.route");
  progress.set_total(static_cast<std::uint64_t>(kMaxIterations));

  // Incremental rip-up can stall: the dirty nets need wires that nets with
  // legal routes hold, and those nets are never rerouted, so the overuse
  // only moves from node to node.  After kStallIterations iterations without
  // a new lowest overused-node count, one iteration reroutes every net,
  // with the history costs gathered so far.
  constexpr int kStallIterations = 5;
  std::size_t best_overused = SIZE_MAX;
  int stalled = 0;

  for (int iter = 1; iter <= kMaxIterations; ++iter) {
    telemetry::TraceScope iter_span("pnr.route.iteration");
    Stopwatch iter_timer;
    iter_counter.add(1);
    result.iterations = iter;

    // Dirty set: iteration 1 (or non-incremental mode, or a stalled
    // negotiation) reroutes everything; afterwards only nets crossing an
    // overused node or with an unreached sink renegotiate.  Ascending net
    // ids keep the order deterministic.
    const bool full_ripup =
        iter == 1 || !options.incremental || stalled >= kStallIterations;
    if (stalled >= kStallIterations) stalled = 0;
    std::vector<std::size_t> dirty;
    for (std::size_t n = 0; n < nets.nets.size(); ++n) {
      if (router.terms[n].sinks.empty()) continue;
      bool congested = false;
      if (iter > 1 && !router.net_failed[n]) {
        for (RRNodeId id : router.net_nodes[n]) {
          if (router.occ[id].occupancy() > rr.node(id).capacity) {
            congested = true;
            break;
          }
        }
      }
      if (full_ripup || router.net_failed[n] || congested) dirty.push_back(n);
      // A net can keep routing "successfully" through overused wires when
      // its expansion box holds no free ones, and a box only grows on
      // outright failure.  Break that trap: a net still congested after
      // several renegotiations gets more room.
      if (congested && ++router.congested_reroutes[n] % 3 == 0) {
        router.grow_bb(n);
      }
    }
    result.rerouted_nets += dirty.size();
    rerouted_counter.add(dirty.size());

    // Reroute in ascending net order; a net that fails inside its box grows
    // it and retries at once.
    std::size_t iter_pops = 0;
    for (const std::size_t n : dirty) {
      router.route_net_growing(ctx, n, &iter_pops);
    }
    result.heap_pops += iter_pops;
    pops_counter.add(iter_pops);

    // Overuse check + history update.
    bool any_overuse = false;
    std::size_t overused_nodes = 0;
    for (RRNodeId id = 0; id < rr.num_nodes(); ++id) {
      const int over = router.occ[id].occupancy() - rr.node(id).capacity;
      if (over > 0) {
        any_overuse = true;
        ++overused_nodes;
        router.history[id] += kHistFac * over;
      }
    }
    for (std::size_t n = 0; n < nets.nets.size(); ++n) {
      if (router.net_failed[n]) any_overuse = true;
    }
    if (overused_nodes < best_overused) {
      best_overused = overused_nodes;
      stalled = 0;
    } else {
      ++stalled;
    }
    // Congestion trajectory: the negotiation is converging when this gauge
    // falls iteration over iteration.
    overuse_gauge.set(static_cast<double>(overused_nodes));
    iter_hist.observe(iter_timer.elapsed_seconds());
    overused_series.append(static_cast<double>(overused_nodes));
    rerouted_series.append(static_cast<double>(dirty.size()));
    pops_series.append(static_cast<double>(iter_pops));
    progress.advance(static_cast<std::uint64_t>(iter));
    progress.field("overused_nodes", static_cast<double>(overused_nodes));
    progress.field("rerouted_nets", static_cast<double>(dirty.size()));
    progress.field("heap_pops", static_cast<double>(iter_pops));
    // Timing refresh: re-derive routed delays from the routes
    // this iteration produced, record the slack trajectory, and hand the next
    // iteration its updated criticalities.  Worst slack is measured against
    // the placed-fidelity budget captured before iteration 1, so the series
    // shows the router winning back (or conceding) the placer's plan.
    if (sta) {
      sta->use_routed_delays(rr, result.routes);
      sta->update();
      telemetry::metrics()
          .series("pnr.timing.iteration.worst_slack_ns")
          .append(sta->worst_slack_ns());
      telemetry::metrics()
          .series("pnr.timing.iteration.fmax_mhz")
          .append(sta->max_frequency_mhz());
      progress.field("worst_slack_ns", sta->worst_slack_ns());
      refresh_criticalities();
    }
    LOG_DEBUG << "pathfinder iteration " << iter << ": " << dirty.size()
              << " nets rerouted, " << overused_nodes << " overused nodes, pres_fac "
              << router.pres_fac;
    if (!any_overuse) {
      result.success = true;
      break;
    }
    router.pres_fac *= kPresFacMult;
  }
  result.bbox_expansions = router.bbox_expansions;
  bbox_counter.add(result.bbox_expansions);

  // Final statistics over wires.
  for (RRNodeId id = 0; id < rr.num_nodes(); ++id) {
    const RRKind kind = rr.node(id).kind;
    if (kind != RRKind::kChanX && kind != RRKind::kChanY) continue;
    const int users = router.occ[id].occupancy();
    if (users > 0) {
      ++result.wire_nodes_used;
      result.total_wirelength += static_cast<std::size_t>(users);
    }
  }
  result.runtime_seconds = timer.elapsed_seconds();
  return result;
}

}  // namespace fpgadbg::pnr
