#include "common.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "debug/signal_param.h"
#include "genbench/genbench.h"
#include "map/mappers.h"
#include "support/stopwatch.h"
#include "support/telemetry.h"

namespace fpgadbg::bench {

std::vector<BenchmarkRun> run_mapping_experiment() {
  const bool quick = std::getenv("FPGADBG_QUICK") != nullptr;
  std::vector<BenchmarkRun> runs;
  auto specs = genbench::paper_benchmarks();
  if (quick) specs.resize(3);

  for (const auto& spec : specs) {
    Stopwatch timer;
    BenchmarkRun run;
    run.name = spec.name;
    run.gates = spec.num_gates;
    run.paper = genbench::paper_row(spec.name);

    const auto user = genbench::generate(spec);
    const auto inst = debug::parameterize_signals(user, {});

    run.initial = map::abc_map(user).stats;
    run.simplemap = map::simple_map(inst.netlist).stats;
    run.abc = map::abc_map(inst.netlist).stats;
    run.proposed = map::tcon_map(inst.netlist).stats;
    run.seconds = timer.elapsed_seconds();
    std::fprintf(stderr, "  [%s done in %.1fs]\n", run.name.c_str(),
                 run.seconds);
    runs.push_back(std::move(run));
  }
  return runs;
}

namespace {

void write_stats(std::ofstream& out, const char* key,
                 const map::MapStats& s) {
  out << "\"" << key << "\": {\"luts\": " << s.num_luts
      << ", \"tluts\": " << s.num_tluts << ", \"tcons\": " << s.num_tcons
      << ", \"lut_area\": " << s.lut_area << ", \"depth\": " << s.depth
      << ", \"runtime_seconds\": " << s.runtime_seconds << "}";
}

}  // namespace

std::string dump_results(const std::string& name,
                         const std::vector<BenchmarkRun>& runs) {
  const std::string path = "BENCH_" + name + ".json";
  std::ofstream out(path);
  if (!out) return "";
  out << "{\n  \"benchmark\": \"" << name << "\",\n  \"runs\": [";
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const BenchmarkRun& r = runs[i];
    out << (i ? ",\n    " : "\n    ");
    out << "{\"name\": \"" << r.name << "\", \"gates\": " << r.gates
        << ", \"seconds\": " << r.seconds << ",\n     ";
    write_stats(out, "initial", r.initial);
    out << ",\n     ";
    write_stats(out, "simplemap", r.simplemap);
    out << ",\n     ";
    write_stats(out, "abc", r.abc);
    out << ",\n     ";
    write_stats(out, "proposed", r.proposed);
    out << "}";
  }
  out << (runs.empty() ? "" : "\n  ") << "],\n  \"metrics\": ";
  telemetry::metrics().write_json(out);
  out << "}\n";
  if (!out) return "";
  std::fprintf(stderr, "wrote %s\n", path.c_str());
  return path;
}

std::string dump_metrics(const std::string& name) {
  const std::string path = "BENCH_" + name + ".json";
  std::ofstream out(path);
  if (!out) return "";
  out << "{\n  \"benchmark\": \"" << name << "\",\n  \"metrics\": ";
  telemetry::metrics().write_json(out);
  out << "}\n";
  if (!out) return "";
  std::fprintf(stderr, "wrote %s\n", path.c_str());
  return path;
}

double geomean(const std::vector<BenchmarkRun>& runs,
               double (*ratio)(const BenchmarkRun&)) {
  if (runs.empty()) return 0.0;
  double log_sum = 0.0;
  for (const auto& run : runs) log_sum += std::log(ratio(run));
  return std::exp(log_sum / static_cast<double>(runs.size()));
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

Trial Trial::run(int pairs, const std::function<double()>& a,
                 const std::function<double()>& b) {
  std::vector<double> as, bs, overheads;
  for (int p = 0; p < pairs; ++p) {
    double ta = 0.0, tb = 0.0;
    if (p % 2 == 0) {
      ta = a();
      tb = b();
    } else {
      tb = b();
      ta = a();
    }
    as.push_back(ta);
    bs.push_back(tb);
    overheads.push_back((tb - ta) / ta * 100.0);
  }
  Trial t;
  t.a_seconds = median(as);
  t.b_seconds = median(bs);
  t.overhead_pct = median(overheads);
  std::vector<double> deviations;
  for (double o : overheads) deviations.push_back(std::abs(o - t.overhead_pct));
  t.mad_pct = median(deviations);
  return t;
}

std::string Trial::verdict(double budget_pct) const {
  if (mad_pct > budget_pct) return "unresolved";
  return overhead_pct <= budget_pct ? "within budget" : "over budget";
}

}  // namespace fpgadbg::bench
