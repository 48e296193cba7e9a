// Quickstart: the whole library in one page.
//
// 1. Build (or load) a circuit.
// 2. Run the OFFLINE stage once: signal parameterisation -> TCON mapping ->
//    place & route -> generalized (parameterized) bitstream.
// 3. Debug ONLINE: pick internal signals; each selection costs a Boolean
//    evaluation plus a partial reconfiguration — never a recompile.
#include <cstdio>

#include "debug/session.h"
#include "netlist/blif.h"
#include "support/rng.h"

using namespace fpgadbg;

int main() {
  // --- 1. a small sequential circuit (could also be netlist::read_blif_file)
  netlist::Netlist design("quickstart");
  const auto a = design.add_input("a");
  const auto b = design.add_input("b");
  const auto c = design.add_input("c");
  const auto q = design.add_latch("state", netlist::kNullNode, 0);
  const auto g1 = design.add_logic("g1", {a, b}, logic::tt_and(2));
  const auto g2 = design.add_logic("g2", {g1, c}, logic::tt_xor(2));
  const auto g3 = design.add_logic("g3", {g2, q}, logic::tt_or(2));
  const auto g4 = design.add_logic("g4", {g3, a}, logic::tt_nand(2));
  design.set_latch_input(0, g4);
  design.add_output(g3, "out");

  // --- 2. offline generic stage (run once)
  debug::OfflineOptions options;
  options.instrument.trace_width = 4;  // 4 trace-buffer lanes
  const auto offline = debug::run_offline(design, options);
  if (!offline.compiled->routing.success) {
    std::fprintf(stderr, "%s: route is illegal at W = %d\n",
                 design.model_name().c_str(),
                 offline.compiled->device->params().channel_width);
    return 1;
  }

  std::printf("offline stage:\n");
  std::printf("  observable signals : %zu\n",
              offline.instrumented.num_observable());
  std::printf("  parameters         : %zu (mux select lines)\n",
              offline.instrumented.netlist.params().size());
  std::printf("  mapped             : %zu LUTs, %zu TLUTs, %zu TCONs\n",
              offline.mapping.stats.num_luts, offline.mapping.stats.num_tluts,
              offline.mapping.stats.num_tcons);
  std::printf("  device             : %s\n",
              offline.compiled->report.device.c_str());
  std::printf("  generalized bitstream: %zu bits, %zu parameterized\n\n",
              offline.pconf->total_bits(),
              offline.pconf->num_parameterized_bits());

  // --- 3. online stage: two debugging turns with different signal sets
  debug::DebugSession session(offline);
  Rng rng(1);
  for (const std::vector<std::string>& watch :
       {std::vector<std::string>{"g1", "g2"},
        std::vector<std::string>{"g4", "state"}}) {
    const auto turn = session.observe(watch);
    std::printf("observe {%s, %s}: %zu frames reconfigured in %.1f us "
                "(SCG eval %.1f us) — no recompilation\n",
                watch[0].c_str(), watch[1].c_str(), turn.frames_reconfigured,
                turn.reconfig_seconds * 1e6, turn.scg_eval_seconds * 1e6);

    session.reset();
    for (int cycle = 0; cycle < 8; ++cycle) {
      session.step({rng.next_bool(), rng.next_bool(), rng.next_bool()});
    }
    std::printf("  8-cycle trace, per lane:");
    for (std::size_t lane = 0; lane < session.num_lanes(); ++lane) {
      std::printf(" %s=", turn.observed[lane].c_str());
      for (const auto& sample : session.trace().read_window()) {
        std::printf("%d", sample.get(lane) ? 1 : 0);
      }
    }
    std::printf("\n");
  }

  const auto summary = session.summary();
  std::printf("\nsession: %zu turns, %zu cycles emulated, "
              "%.1f us spent on reconfiguration total\n",
              summary.turns, summary.cycles_emulated,
              (summary.total_eval_seconds + summary.total_reconfig_seconds) *
                  1e6);
  std::printf("the conventional flow would have recompiled %zu times "
              "(~%.2f s with this toolchain; hours with vendor tools)\n",
              summary.turns, summary.conventional_recompile_seconds);
  return 0;
}
