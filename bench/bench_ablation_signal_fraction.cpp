// Ablation B (DESIGN.md): critical signal selection.
//
// The paper's future work proposes limiting the automatically produced
// parameters with a critical-signal-selection step to cut compile time and
// area further.  This sweep instruments only a fraction of the nets and
// measures the resulting parameter count, area and PConf size.
#include <cstdio>

#include "bitstream/builder.h"
#include "debug/flow.h"
#include "genbench/genbench.h"

using namespace fpgadbg;

int main() {
  std::printf("=== Ablation B: fraction of signals made observable ===\n\n");
  genbench::CircuitSpec spec{"fraction", 10, 8, 6, 80, 4, 5, 402};
  const auto user = genbench::generate(spec);
  const std::size_t observable = user.num_logic_nodes() + user.latches().size();

  std::printf("%-9s | %8s | %7s | %9s | %7s | %11s | %12s\n", "fraction",
              "observed", "params", "LUT area", "TCONs", "param bits",
              "param frames");
  for (int percent : {10, 25, 50, 75, 100}) {
    debug::OfflineOptions options;
    options.instrument.trace_width = 8;
    options.instrument.max_observed =
        std::max<std::size_t>(1, observable * static_cast<std::size_t>(percent) / 100);
    const auto offline = debug::run_offline(user, options);
    // An illegal route's PConf is not the flow's.
    if (!offline.compiled->routing.success) {
      std::fprintf(stderr, "%s at %d%%: route is illegal at W = %d\n",
                   spec.name.c_str(), percent,
                   offline.compiled->device->params().channel_width);
      return 1;
    }
    std::printf("%8d%% | %8zu | %7zu | %9zu | %7zu | %11zu | %12zu\n", percent,
                offline.instrumented.num_observable(),
                offline.instrumented.netlist.params().size(),
                offline.mapping.stats.lut_area,
                offline.mapping.stats.num_tcons,
                offline.pconf->num_parameterized_bits(),
                offline.pconf->parameterized_frames().size());
  }
  std::printf("\nobserving fewer signals shrinks parameters, TCON count and "
              "the reconfigurable frame footprint, exactly the lever the "
              "paper's future work pulls.\n");
  return 0;
}
