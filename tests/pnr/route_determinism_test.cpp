// Router determinism and cache-interaction tests.
//
// The router reroutes each iteration's dirty nets in ascending net order, so
// a route is a pure function of its inputs and options.  These tests pin
// that for timing-driven mode, compare the full search stack against plain
// Dijkstra, and check the artifact cache's view of the route options: any
// cost-shaping RouteOptions change invalidates exactly route -> pconf-build.
#include <gtest/gtest.h>

#include <unistd.h>

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
