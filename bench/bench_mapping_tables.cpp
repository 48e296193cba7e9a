// Reproduces paper Table I (area in #LUTs), Table II (logic depth) and
// Fig. 7 (the Table I area drawn as grouped bars) from one run of the
// mapping experiment: the conventional mappers (SimpleMap, ABC) versus the
// proposed parameterized mapper (TCONMap), next to the published numbers.
//
// Reproduction target is the SHAPE, not the absolute values: the proposed
// mapping should cost roughly the initial design's area while the
// conventional mappers pay several times more (paper: ~3.5x on average),
// and it should preserve the golden depth (TCONs live in routing and add no
// LUT level) while the conventional mappers add levels for the multiplexer
// network.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "common.h"

using fpgadbg::bench::BenchmarkRun;

namespace {

void print_table1(const std::vector<BenchmarkRun>& runs) {
  std::printf("=== Table I: area results in #LUTs ===\n");
  std::printf("(measured | paper)\n\n");
  std::printf("%-9s %6s | %13s %15s %15s %15s %19s\n", "bench", "#gate",
              "initial", "SimpleMap", "ABC", "proposed", "(TLUT/TCON)");
  for (const BenchmarkRun& r : runs) {
    char tuneables[64];
    std::snprintf(tuneables, sizeof tuneables, "%zu/%zu | %zu/%zu",
                  r.proposed.num_tluts, r.proposed.num_tcons, r.paper.tlut,
                  r.paper.tcon);
    std::printf("%-9s %6zu | %5zu | %5zu %7zu | %5zu %7zu | %5zu %7zu | %5zu %19s\n",
                r.name.c_str(), r.gates, r.initial.lut_area, r.paper.initial,
                r.simplemap.lut_area, r.paper.simplemap, r.abc.lut_area,
                r.paper.abc, r.proposed.lut_area, r.paper.proposed,
                tuneables);
  }

  const double sm_ratio = fpgadbg::bench::geomean(runs, [](const BenchmarkRun& r) {
    return static_cast<double>(r.simplemap.lut_area) /
           static_cast<double>(r.proposed.lut_area);
  });
  const double abc_ratio = fpgadbg::bench::geomean(runs, [](const BenchmarkRun& r) {
    return static_cast<double>(r.abc.lut_area) /
           static_cast<double>(r.proposed.lut_area);
  });
  const double vs_initial = fpgadbg::bench::geomean(runs, [](const BenchmarkRun& r) {
    return static_cast<double>(r.proposed.lut_area) /
           static_cast<double>(r.initial.lut_area);
  });
  std::printf("\ngeomean SimpleMap/proposed area ratio: %.2fx (paper ~3.5x)\n",
              sm_ratio);
  std::printf("geomean ABC/proposed area ratio:       %.2fx (paper ~3.5x)\n",
              abc_ratio);
  std::printf("geomean proposed/initial area ratio:   %.2fx (paper ~1.0x: "
              "debugging almost for free)\n",
              vs_initial);
}

void print_table2(const std::vector<BenchmarkRun>& runs) {
  std::printf("=== Table II: logic depth (LUT levels) ===\n");
  std::printf("(measured | paper)\n\n");
  std::printf("%-9s | %11s | %11s | %11s | %11s\n", "bench", "golden",
              "SimpleMap", "ABC", "proposed");
  int preserved = 0;
  for (const BenchmarkRun& r : runs) {
    std::printf("%-9s | %4d %4d | %4d %4d | %4d %4d | %4d %4d\n",
                r.name.c_str(), r.initial.depth, r.paper.depth_golden,
                r.simplemap.depth, r.paper.depth_simplemap, r.abc.depth,
                r.paper.depth_abc, r.proposed.depth, r.paper.depth_proposed);
    if (r.proposed.depth <= r.initial.depth) ++preserved;
  }
  std::printf("\nproposed depth == golden depth on %d/%zu benchmarks "
              "(paper: 8/8 within -1..0)\n",
              preserved, runs.size());
  std::printf("conventional mappers add levels on every benchmark where the "
              "mux network sits on the critical path\n");
}

void ascii_bar(const char* label, std::size_t value, std::size_t scale_max) {
  const int width = static_cast<int>(60.0 * static_cast<double>(value) /
                                     static_cast<double>(scale_max));
  std::printf("    %-10s %6zu |%s\n", label, value,
              std::string(static_cast<std::size_t>(std::max(width, 1)), '#')
                  .c_str());
}

/// Fig. 7: a gnuplot-ready data block plus an ASCII rendering, so the
/// series shape (conventional mappers towering over initial/proposed) is
/// visible in the terminal.
void print_fig7(const std::vector<BenchmarkRun>& runs) {
  std::printf("=== Fig. 7: area results in terms of look-up tables ===\n\n");
  std::printf("# gnuplot data: bench initial simplemap abc proposed\n");
  for (const BenchmarkRun& r : runs) {
    std::printf("%-9s %6zu %6zu %6zu %6zu\n", r.name.c_str(),
                r.initial.lut_area, r.simplemap.lut_area, r.abc.lut_area,
                r.proposed.lut_area);
  }

  std::printf("\n# per-benchmark bars (measured)\n");
  for (const BenchmarkRun& r : runs) {
    const std::size_t scale_max =
        std::max({r.initial.lut_area, r.simplemap.lut_area, r.abc.lut_area,
                  r.proposed.lut_area});
    std::printf("  %s:\n", r.name.c_str());
    ascii_bar("initial", r.initial.lut_area, scale_max);
    ascii_bar("SimpleMap", r.simplemap.lut_area, scale_max);
    ascii_bar("ABC", r.abc.lut_area, scale_max);
    ascii_bar("proposed", r.proposed.lut_area, scale_max);
  }
  std::printf("\nexpected shape (paper): SimpleMap/ABC bars several times the "
              "initial bar; proposed bar at or below initial-size.\n");
}

}  // namespace

int main() {
  const auto runs = fpgadbg::bench::run_mapping_experiment();
  print_table1(runs);
  std::printf("\n");
  print_table2(runs);
  std::printf("\n");
  print_fig7(runs);
  fpgadbg::bench::dump_results("mapping_tables", runs);
  return 0;
}
