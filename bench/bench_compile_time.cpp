// Reproduces the paper's §V-C1 compile-time comparison on small designs:
// with parameterized resources the flow needs ~3x fewer wires (paper:
// 5316 vs 15699), up to 4x fewer CLBs, and place & route runs up to 3x
// faster than the conventional flow on the same instrumented designs.
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <filesystem>

#include "common.h"
#include "debug/signal_param.h"
#include "flow/pipeline.h"
#include "genbench/genbench.h"
#include "map/mappers.h"
#include "pnr/flow.h"
#include "support/stopwatch.h"
#include "support/telemetry.h"

using namespace fpgadbg;

namespace {

struct Row {
  std::string name;
  pnr::CompileReport conv;
  pnr::CompileReport prop;
};

Row run_one(const genbench::CircuitSpec& spec) {
  Row row;
  row.name = spec.name;
  const auto user = genbench::generate(spec);
  debug::InstrumentOptions inst_opt;
  inst_opt.trace_width = 8;
  const auto inst = debug::parameterize_signals(user, inst_opt);

  pnr::CompileOptions options;
  {
    auto mapping = map::abc_map(inst.netlist);
    row.conv = pnr::compile(std::move(mapping.netlist), inst.trace_outputs,
                            options)
                   .report;
  }
  {
    auto mapping = map::tcon_map(inst.netlist);
    row.prop = pnr::compile(std::move(mapping.netlist), inst.trace_outputs,
                            options)
                   .report;
  }
  return row;
}

/// Artifact-cache section: times the staged pipeline on the same design with
/// a cold cache, a warm cache (all six stages hit) and a warm cache after a
/// place-option change (only place/route/pconf-build re-run).  Timings are
/// recorded as bench.cache.* histograms so they land in the JSON dump.
/// Returns false when a run fails or routes illegally.
bool run_cache_section() {
  std::printf("\n=== staged pipeline: artifact-cache incrementality ===\n");
  const std::string cache_dir =
      "/tmp/fpgadbg_bench_cache_" + std::to_string(::getpid());
  std::filesystem::remove_all(cache_dir);

  const genbench::CircuitSpec spec{"cache90", 12, 8, 8, 90, 4, 6, 203};
  const auto user = genbench::generate(spec);
  debug::OfflineOptions options;
  options.instrument.trace_width = 8;
  options.cache_dir = cache_dir;

  bool ok = true;
  auto timed_run = [&](const char* label, const char* metric) {
    Stopwatch timer;
    auto result = flow::Pipeline(options).run(user);
    const double seconds = telemetry::metrics()
                               .histogram(metric)
                               .observe(timer.elapsed_seconds());
    if (!result.ok()) {
      std::fprintf(stderr, "%s: %s\n", label,
                   result.status().to_string().c_str());
      ok = false;
      return std::make_pair(seconds, std::size_t{0});
    }
    const pnr::CompiledDesign& compiled = *result.value().offline.compiled;
    if (!compiled.routing.success) {
      std::fprintf(stderr, "%s: route is illegal (%s)\n", label,
                   compiled.report.device.c_str());
      ok = false;
      return std::make_pair(seconds, std::size_t{0});
    }
    std::printf("  %-24s %8.3f s  (%zu stages executed, %zu from cache)\n",
                label, seconds, result.value().stages_executed,
                result.value().stages_from_cache);
    return std::make_pair(seconds, result.value().stages_executed);
  };

  const auto [cold_s, cold_exec] =
      timed_run("cold cache", "bench.cache.cold_seconds");
  const auto [warm_s, warm_exec] =
      timed_run("warm cache", "bench.cache.warm_seconds");
  options.compile.place.seed += 1;
  const auto [inval_s, inval_exec] =
      timed_run("place-option change", "bench.cache.invalidated_seconds");

  if (ok) {
    std::printf("  warm speedup over cold: %.0fx (%zu -> %zu stage "
                "executions)\n",
                cold_s / std::max(1e-9, warm_s), cold_exec, warm_exec);
    std::printf("  place change re-runs %zu/6 stages in %.0f%% of the cold "
                "time\n",
                inval_exec, 100.0 * inval_s / std::max(1e-9, cold_s));
  }
  std::filesystem::remove_all(cache_dir);
  return ok;
}

}  // namespace

int main() {
  std::printf("=== SS V-C1: compile-time overhead on small designs ===\n");
  std::printf("conventional flow (ABC map, no sharing) vs proposed flow "
              "(TCONMap, parameterized routing sharing)\n\n");

  const std::vector<genbench::CircuitSpec> specs = {
      {"small40", 8, 6, 4, 40, 3, 5, 201},
      {"small60", 10, 8, 6, 60, 4, 5, 202},
      {"small90", 12, 8, 8, 90, 4, 6, 203},
  };

  std::printf("%-8s | %10s | %13s | %13s | %15s\n", "design", "CLBs c/p",
              "wires c/p", "wirelen c/p", "P&R ms c/p");
  double wl_ratio = 1.0, clb_ratio = 1.0, time_ratio = 1.0;
  for (const auto& spec : specs) {
    const Row row = run_one(spec);
    // An illegal route's wires and P&R time are not the flow's numbers.
    for (const pnr::CompileReport* report : {&row.conv, &row.prop}) {
      if (report->route_success) continue;
      std::fprintf(stderr, "%s: %s route is illegal (%s)\n", row.name.c_str(),
                   report == &row.conv ? "conventional" : "proposed",
                   report->device.c_str());
      return 1;
    }
    std::printf("%-8s | %4zu %5zu | %6zu %6zu | %6zu %6zu | %7.1f %7.1f\n",
                row.name.c_str(), row.conv.clbs_used, row.prop.clbs_used,
                row.conv.wire_nodes_used, row.prop.wire_nodes_used,
                row.conv.total_wirelength, row.prop.total_wirelength,
                1e3 * (row.conv.place_seconds + row.conv.route_seconds),
                1e3 * (row.prop.place_seconds + row.prop.route_seconds));
    wl_ratio *= static_cast<double>(row.conv.total_wirelength) /
                static_cast<double>(row.prop.total_wirelength);
    clb_ratio *= static_cast<double>(row.conv.clbs_used) /
                 static_cast<double>(row.prop.clbs_used);
    time_ratio *= (row.conv.place_seconds + row.conv.route_seconds) /
                  std::max(1e-9, row.prop.place_seconds + row.prop.route_seconds);
  }
  const double n = static_cast<double>(specs.size());
  std::printf("\ngeomean wirelength ratio (conv/prop): %.2fx (paper ~3x: 15699 vs 5316)\n",
              std::pow(wl_ratio, 1.0 / n));
  std::printf("geomean CLB ratio (conv/prop):        %.2fx (paper: up to 4x)\n",
              std::pow(clb_ratio, 1.0 / n));
  std::printf("geomean P&R runtime ratio (conv/prop): %.2fx (paper: up to 3x faster)\n",
              std::pow(time_ratio, 1.0 / n));
  if (!run_cache_section()) return 1;
  fpgadbg::bench::dump_metrics("compile_time");
  return 0;
}
