// TRoute: PathFinder negotiated-congestion routing with tuneable sharing.
//
// Standard PathFinder (rip-up & re-route with growing present-congestion
// penalties and history costs), extended with the paper's key routing
// property: nets in the same *exclusive group* are parameter alternatives —
// at any moment only one of them is configured into the fabric — so they may
// occupy the same wires without conflict.  Occupancy therefore counts
// distinct groups per routing resource, not distinct nets.  This is what
// produces the ~3x wire reduction of §V-C1.
//
// The search stack layers three compounding optimisations over the classic
// algorithm (VPR / nextpnr-router2 lineage, see DESIGN.md "Router"):
//   * A* wavefront expansion with an exact lookahead: the empty fabric's
//     shortest distance to the sink pin (RRGraph::min_nodes_to_ipin), so
//     an uncongested search pops only its path,
//   * per-net expansion bounding boxes that grow on routing failure and
//     under repeated congestion,
//   * incremental rip-up: after iteration 1 only nets crossing an overused
//     node are rerouted, unless the negotiation has stalled.
// Each iteration reroutes its dirty nets one at a time in ascending net
// order, so a route is a pure function of its inputs and options.
//
// Timing-driven mode (TimingOptions.timing_driven) blends a per-connection
// criticality term into the node cost — critical sinks buy short wires,
// non-critical sinks absorb congestion — with the STA refreshed once per
// iteration, after every dirty net has rerouted.
#pragma once

#include <cstdint>
#include <vector>

#include "arch/frames.h"
#include "arch/rr_graph.h"
#include "pnr/nets.h"
#include "pnr/place.h"
#include "pnr/timing.h"

namespace fpgadbg::pnr {

struct RouteOptions {
  /// Weight on the A* lookahead (the number of RR nodes still to enter to
  /// reach the sink pin on the empty fabric, RRGraph::min_nodes_to_ipin).
  /// 1.0 keeps the heuristic admissible: each search returns a path of the
  /// same minimum cost as Dijkstra's, though ties may pick a different one.
  /// Larger values trade path optimality for fewer heap pops; 0 (or a
  /// negative value) disables the lookahead entirely (plain Dijkstra).
  double astar_fac = 1.0;
  /// Initial margin (in tiles) added around a net's terminal bounding box.
  /// The box doubles its margin every time the net fails to route inside it,
  /// and on every third reroute the net is still congested.
  /// Negative disables bounding boxes (every net may expand device-wide, and
  /// growths leave that box as it is).
  int bb_margin = 3;
  /// After iteration 1, rip up and reroute only nets whose current route
  /// crosses an overused node; when the overused-node count has not reached
  /// a new low for five iterations, the next iteration reroutes every net.
  /// false restores the classic full rip-up of every net on every
  /// iteration.
  bool incremental = true;
  /// Ignored: routing runs on the calling thread.  Kept only because
  /// perfbench/cpp/compile_ops.cpp assigns it.
  int route_threads = 0;
};

struct RouteResult {
  bool success = false;
  int iterations = 0;
  /// RR edges per net (same order as the input nets).
  std::vector<std::vector<arch::RREdgeId>> routes;
  /// Distinct CHANX/CHANY nodes carrying at least one net.
  std::size_t wire_nodes_used = 0;
  /// Sum of per-wire occupancy (shared group segments count once).
  std::size_t total_wirelength = 0;
  double runtime_seconds = 0.0;
  // Search-effort counters (deterministic given options, but — like
  // runtime_seconds — not part of the serialized route artifact).
  std::size_t rerouted_nets = 0;    ///< net routings summed over iterations
  std::size_t heap_pops = 0;        ///< priority-queue pops over all searches
  /// Bounding-box growths: on failure, and on every third congested reroute.
  std::size_t bbox_expansions = 0;
};

RouteResult route(const arch::RRGraph& rr, const map::MappedNetlist& mn,
                  const Packing& packing, const NetExtraction& nets,
                  const Placement& placement, const RouteOptions& options = {},
                  const TimingOptions& timing = {});

}  // namespace fpgadbg::pnr
