// Shared experiment driver for the Table I / Table II / Fig. 7 harness
// (bench_mapping_tables).
//
// Runs the paper's mapping experiment on every benchmark: generate the
// circuit, run the signal parameterisation, then map with the two
// conventional mappers and the proposed one, plus the uninstrumented
// "initial" mapping.  Set FPGADBG_QUICK=1 in the environment to restrict
// the sweep to the small circuits (useful while iterating).
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "genbench/paper_table.h"
#include "map/cover.h"

namespace fpgadbg::bench {

struct BenchmarkRun {
  std::string name;
  std::size_t gates = 0;
  map::MapStats initial;    ///< original circuit, ABC mapper
  map::MapStats simplemap;  ///< instrumented, SimpleMap
  map::MapStats abc;        ///< instrumented, ABC
  map::MapStats proposed;   ///< instrumented, TCONMap
  genbench::PaperRow paper;
  double seconds = 0.0;
};

/// Runs the experiment over the paper benchmarks (all 8, or the first 3 when
/// FPGADBG_QUICK is set).
std::vector<BenchmarkRun> run_mapping_experiment();

/// Geometric mean over runs of ratio(run).
double geomean(const std::vector<BenchmarkRun>& runs,
               double (*ratio)(const BenchmarkRun&));

/// Writes BENCH_<name>.json in the working directory: the per-benchmark rows
/// plus the full telemetry metrics-registry snapshot, so a harness run leaves
/// a machine-readable artifact next to its human-readable table.  Returns
/// the path written, or "" on IO failure.
std::string dump_results(const std::string& name,
                         const std::vector<BenchmarkRun>& runs);

/// Metrics-only variant for harnesses that don't produce BenchmarkRun rows.
std::string dump_metrics(const std::string& name);

/// The median of `v` (the mean of the middle two when even); 0 when empty.
double median(std::vector<double> v);

/// An A/B timing on a shared host.  run() times the two legs (each returns
/// its seconds) interleaved, `pairs` times, switching which leg goes first
/// every pair, so a slow stretch of the host slows both alike.  Each pair
/// gives B's overhead over A in percent; a budget is judged on their median
/// only when their spread, the MAD (median absolute deviation), is within
/// it.
struct Trial {
  double a_seconds = 0.0;     ///< median of leg A
  double b_seconds = 0.0;     ///< median of leg B
  double overhead_pct = 0.0;  ///< median of the per-pair (B - A) / A
  double mad_pct = 0.0;       ///< MAD of the per-pair overheads

  static Trial run(int pairs, const std::function<double()>& a,
                   const std::function<double()>& b);
  /// "within budget", "over budget", or "unresolved" when the MAD exceeds
  /// the budget: an overhead of that size would not show.
  std::string verdict(double budget_pct) const;
};

}  // namespace fpgadbg::bench
