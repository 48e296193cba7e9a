// Router determinism and cache-interaction tests.
//
// The router reroutes each iteration's dirty nets in ascending net order, so
// a route is a pure function of its inputs and options.  These tests pin
// that for timing-driven mode, compare the full search stack against plain
// Dijkstra (whole designs, and one connection at a time), bound the A*
// search's pops, check the bounding-box and stall rules, and check the
// artifact cache's view of the route options: any cost-shaping RouteOptions
// change invalidates exactly route -> pconf-build.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>

#include "debug/signal_param.h"
#include "flow/pipeline.h"
#include "genbench/genbench.h"
#include "map/mappers.h"
#include "pnr/flow.h"

namespace fpgadbg::pnr {
namespace {

/// A placed design, ready to route repeatedly with different RouteOptions.
struct Placed {
  map::MappedNetlist net;
  Packing packing;
  NetExtraction nets;
  std::unique_ptr<arch::Device> device;
  std::unique_ptr<arch::RRGraph> rr;
  Placement placement;
};

Placed placed_design(std::uint64_t seed, std::size_t gates = 80) {
  genbench::CircuitSpec spec{"rd" + std::to_string(seed), 10, 8, 4, gates,
                             4,    6,
                             seed};
  auto nl = genbench::generate(spec);
  debug::InstrumentOptions opt;
  opt.trace_width = 6;
  debug::Instrumented inst = debug::parameterize_signals(nl, opt);
  map::MapResult mapping = map::tcon_map(inst.netlist);

  Placed p;
  p.net = std::move(mapping.netlist);
  p.packing = pack(p.net, arch::ArchParams{});
  const std::size_t min_clbs =
      static_cast<std::size_t>(
          static_cast<double>(p.packing.num_clusters()) * 1.4) +
      4;
  p.device = std::make_unique<arch::Device>(arch::ArchParams{}, min_clbs);
  p.rr = std::make_unique<arch::RRGraph>(*p.device);
  p.nets = extract_nets(p.net, inst.trace_outputs);
  p.placement = place(p.net, p.packing, p.nets, *p.device, PlaceOptions{});
  return p;
}

TEST(RouteDeterminism, FullStackMatchesDijkstraRoutability) {
  const Placed p = placed_design(22);

  // Classic PathFinder baseline: heuristic-free, full rip-up, unbounded.
  RouteOptions baseline;
  baseline.astar_fac = 0.0;
  baseline.bb_margin = -1;
  baseline.incremental = false;
  const RouteResult rb =
      route(*p.rr, p.net, p.packing, p.nets, p.placement, baseline);

  const RouteResult rf = route(*p.rr, p.net, p.packing, p.nets, p.placement);
  ASSERT_TRUE(rb.success);
  ASSERT_TRUE(rf.success);
  // A* with an admissible lookahead finds minimum-cost paths too, so the
  // negotiation converges in (almost) the same number of iterations.
  EXPECT_NEAR(rf.iterations, rb.iterations, 1);
  // The full stack does strictly less search work.
  EXPECT_LT(rf.heap_pops, rb.heap_pops);
}

TEST(RouteDeterminism, DeviceWideBoxesStayDeviceWide) {
  // bb_margin < 0 means every net may expand device-wide, on every reroute:
  // neither a failed search nor a thrice-congested net may shrink its box.
  const Placed p = placed_design(22);
  RouteOptions baseline;
  baseline.astar_fac = 0.0;
  baseline.bb_margin = -1;
  baseline.incremental = false;
  const RouteResult r =
      route(*p.rr, p.net, p.packing, p.nets, p.placement, baseline);
  ASSERT_TRUE(r.success);
  EXPECT_EQ(r.bbox_expansions, 0u);
}

TEST(RouteDeterminism, StalledNegotiationReroutesEveryNet) {
  // perfbench's 150-gate design at seed 579 (W = 32).  With incremental
  // rip-up alone, one overused node moves between nets that cannot leave it
  // from iteration 7 on, and the route ends illegal after 40 iterations.
  // Five iterations without a new low trigger one full rip-up, after which
  // the negotiation converges (13 iterations).
  const genbench::CircuitSpec spec{"c150", 12, 10, 8, 150, 4, 6,
                                   0x239219d671839ef4ULL};
  debug::OfflineOptions options;
  options.instrument.trace_width = 8;
  options.compile.arch.channel_width = 32;
  auto run = flow::Pipeline(options).run(genbench::generate(spec));
  ASSERT_TRUE(run.ok()) << run.status().to_string();
  const CompileReport& report = run.value().offline.compiled->report;
  EXPECT_TRUE(report.route_success);
  EXPECT_LT(report.route_iterations, 25);
}

/// One net, driver to one of its sinks, as its own extraction.
NetExtraction one_connection(const PhysNet& net, std::size_t sink) {
  NetExtraction one;
  PhysNet conn;
  conn.driver = net.driver;
  conn.sinks = {net.sinks[sink]};
  one.nets.push_back(conn);
  return one;
}

std::pair<int, int> sink_pos(const Placed& p, const NetSink& sink) {
  switch (sink.kind) {
    case SinkKind::kCellPin:
      return p.placement.cell_pos(p.net, p.packing, sink.cell);
    case SinkKind::kPrimaryOutput:
      return p.placement.io_of_output[sink.index];
    case SinkKind::kTraceBuffer:
      return p.placement.bram_of_lane[sink.index];
  }
  return {0, 0};
}

TEST(Route, AStarPathsCostWhatDijkstraPathsCost) {
  // Alone on an empty device in wirelength mode every entered node costs
  // 1.0, so a minimum-cost path is a minimum-node path.  The A* lookahead
  // and its tie rule may pick a different path than Dijkstra, but never a
  // longer one.  The lookahead is the exact node count to the sink pin, so
  // every node of a shortest path has the same f, and the deeper-first tie
  // rule walks down one such path: a search pops at most the path's nodes
  // and the source.
  const Placed p = placed_design(24);
  RouteOptions astar;
  astar.astar_fac = 1.0;
  RouteOptions dijkstra;
  dijkstra.astar_fac = 0.0;
  std::size_t compared = 0;
  for (const PhysNet& net : p.nets.nets) {
    for (std::size_t s = 0; s < net.sinks.size(); ++s) {
      const NetExtraction one = one_connection(net, s);
      const RouteResult a =
          route(*p.rr, p.net, p.packing, one, p.placement, astar);
      const RouteResult d =
          route(*p.rr, p.net, p.packing, one, p.placement, dijkstra);
      ASSERT_TRUE(a.success);
      ASSERT_TRUE(d.success);
      ASSERT_EQ(a.routes[0].size(), d.routes[0].size())
          << "net driven by cell " << net.driver << ", sink " << s;
      EXPECT_LE(a.heap_pops, d.heap_pops);
      EXPECT_LE(a.heap_pops, a.routes[0].size() + 1)
          << "net driven by cell " << net.driver << ", sink " << s;
      if (!a.routes[0].empty()) ++compared;
    }
  }
  EXPECT_GT(compared, 50u);
}

TEST(Route, SearchPopsStayNearTheShortestPath) {
  // The longest two-terminal connection of a placed design (14 tiles, a
  // 16-node route), alone on an empty W = 32 device.  With the exact
  // lookahead and ties going to the deeper node, the search pops the
  // source and the 16 nodes of its path, nothing else.  An estimate even
  // one node short leaves a plateau of nodes below the sink's f, on all 32
  // tracks, for the search to pop first.
  const Placed p = placed_design(22);
  ASSERT_EQ(p.device->params().channel_width, 32);
  const PhysNet* longest = nullptr;
  std::size_t longest_sink = 0;
  int longest_dist = -1;
  for (const PhysNet& net : p.nets.nets) {
    const auto from = p.placement.cell_pos(p.net, p.packing, net.driver);
    for (std::size_t s = 0; s < net.sinks.size(); ++s) {
      const auto to = sink_pos(p, net.sinks[s]);
      const int dist =
          std::abs(from.first - to.first) + std::abs(from.second - to.second);
      if (dist > longest_dist) {
        longest = &net;
        longest_sink = s;
        longest_dist = dist;
      }
    }
  }
  ASSERT_NE(longest, nullptr);
  ASSERT_GE(longest_dist, 8);
  const NetExtraction one = one_connection(*longest, longest_sink);
  const RouteResult r =
      route(*p.rr, p.net, p.packing, one, p.placement, RouteOptions{});
  ASSERT_TRUE(r.success);
  EXPECT_EQ(r.routes[0].size(), 16u);
  EXPECT_LE(r.heap_pops, r.routes[0].size() + 1);
}

/// Fresh per-test cache directory (removed on destruction).
struct TempCacheDir {
  explicit TempCacheDir(const std::string& stem)
      : path("/tmp/fpgadbg_route_" + std::to_string(::getpid()) + "_" + stem) {
    std::filesystem::remove_all(path);
  }
  ~TempCacheDir() { std::filesystem::remove_all(path); }
  std::string path;
};

TEST(RouteDeterminism, TimingDrivenBitIdenticalAcrossThreadCounts) {
  // The criticality-blended node costs add an STA refreshed once per
  // iteration; two runs on the same placed design must still agree exactly,
  // search effort included.
  const Placed p = placed_design(23);
  TimingOptions timing;
  timing.timing_driven = true;

  auto route_timed = [&] {
    return route(*p.rr, p.net, p.packing, p.nets, p.placement,
                 RouteOptions{}, timing);
  };
  const RouteResult r1 = route_timed();
  ASSERT_TRUE(r1.success);
  const RouteResult r2 = route_timed();
  EXPECT_EQ(r2.success, r1.success);
  EXPECT_EQ(r2.iterations, r1.iterations);
  EXPECT_EQ(r2.routes, r1.routes);
  EXPECT_EQ(r2.total_wirelength, r1.total_wirelength);
  EXPECT_EQ(r2.heap_pops, r1.heap_pops);
  EXPECT_EQ(r2.rerouted_nets, r1.rerouted_nets);
}

TEST(RouteDeterminism, DelayKnobInvalidatesExactlyPlaceRoutePconf) {
  // The delay model steers both optimizers, so editing one knob must re-run
  // place -> route -> pconf-build and nothing earlier — even though
  // pconf-build chains content hashes (a knob change whose place/route
  // outputs happen to be byte-identical must still miss deterministically).
  TempCacheDir cache("delay");
  genbench::CircuitSpec spec{"rdc3", 8, 6, 4, 36, 3, 5, 33};
  const auto user = genbench::generate(spec);

  debug::OfflineOptions options;
  options.instrument.trace_width = 6;
  options.cache_dir = cache.path;
  options.compile.timing.timing_driven = true;
  {
    auto cold = flow::Pipeline(options).run(user);
    ASSERT_TRUE(cold.ok()) << cold.status().to_string();
    ASSERT_EQ(cold.value().stages_executed, 6u);
  }

  options.compile.timing.delays.segment_ns *= 2.0;
  auto rerun = flow::Pipeline(options).run(user);
  ASSERT_TRUE(rerun.ok()) << rerun.status().to_string();
  EXPECT_EQ(rerun.value().stages_from_cache, 3u);
  EXPECT_EQ(rerun.value().stages_executed, 3u);
  ASSERT_EQ(rerun.value().stages.size(), 6u);
  EXPECT_TRUE(rerun.value().stages[0].from_cache);   // instrument
  EXPECT_TRUE(rerun.value().stages[1].from_cache);   // tcon-map
  EXPECT_TRUE(rerun.value().stages[2].from_cache);   // pack
  EXPECT_FALSE(rerun.value().stages[3].from_cache);  // place
  EXPECT_FALSE(rerun.value().stages[4].from_cache);  // route
  EXPECT_FALSE(rerun.value().stages[5].from_cache);  // pconf-build
}

TEST(RouteDeterminism, RouteOptionChangeInvalidatesExactlyRouteAndPconf) {
  TempCacheDir cache("inval");
  genbench::CircuitSpec spec{"rdc2", 8, 6, 4, 36, 3, 5, 32};
  const auto user = genbench::generate(spec);

  debug::OfflineOptions options;
  options.instrument.trace_width = 6;
  options.cache_dir = cache.path;
  {
    auto cold = flow::Pipeline(options).run(user);
    ASSERT_TRUE(cold.ok()) << cold.status().to_string();
  }

  // A cost-shaping route option invalidates route and everything after it —
  // and nothing before it.
  options.compile.route.astar_fac = 0.5;
  auto rerun = flow::Pipeline(options).run(user);
  ASSERT_TRUE(rerun.ok()) << rerun.status().to_string();
  EXPECT_EQ(rerun.value().stages_from_cache, 4u);
  EXPECT_EQ(rerun.value().stages_executed, 2u);
  ASSERT_EQ(rerun.value().stages.size(), 6u);
  EXPECT_TRUE(rerun.value().stages[0].from_cache);   // instrument
  EXPECT_TRUE(rerun.value().stages[1].from_cache);   // tcon-map
  EXPECT_TRUE(rerun.value().stages[2].from_cache);   // pack
  EXPECT_TRUE(rerun.value().stages[3].from_cache);   // place
  EXPECT_FALSE(rerun.value().stages[4].from_cache);  // route
  EXPECT_FALSE(rerun.value().stages[5].from_cache);  // pconf-build
}

}  // namespace
}  // namespace fpgadbg::pnr
