// Bug hunt: localize an RTL bug with iterative re-parameterization.
//
// A processor-like circuit (or1200-style profile, scaled down) ships with an
// inadvertently inverted gate.  The debug loop compares trace windows
// against a golden software model, narrowing the observation window each
// turn.  Every turn is a parameter evaluation + partial reconfiguration; the
// conventional flow would recompile the FPGA design once per window.
#include <algorithm>
#include <cstdio>
#include <map>

#include "debug/session.h"
#include "genbench/genbench.h"
#include "sim/simulator.h"
#include "support/rng.h"

using namespace fpgadbg;

namespace {

std::vector<bool> stimulus(Rng& rng, std::size_t n) {
  std::vector<bool> bits(n);
  for (std::size_t i = 0; i < n; ++i) bits[i] = rng.next_bool();
  return bits;
}

}  // namespace

int main() {
  // A scaled-down or1200-like core: deep, registered, 200 gates.
  genbench::CircuitSpec spec{"or1200_mini", 16, 12, 24, 200, 8, 6, 4242};
  const netlist::Netlist golden_design = genbench::generate(spec);

  // The bug: one gate's function is inverted (a classic wrong-polarity RTL
  // error).  In real life nobody knows this yet.
  netlist::Netlist buggy = golden_design;
  const std::string victim = "g137";
  const auto victim_id = *buggy.find(victim);
  buggy.rewrite_logic(victim_id, buggy.fanins(victim_id),
                      ~buggy.function(victim_id));
  std::printf("injected bug: inverted function of %s (the debug loop does "
              "not know this)\n\n",
              victim.c_str());

  // Offline stage on the buggy silicon-to-be.
  debug::OfflineOptions options;
  options.instrument.trace_width = 8;
  const auto offline = debug::run_offline(buggy, options);
  if (!offline.compiled->routing.success) {
    std::fprintf(stderr, "%s: route is illegal at W = %d\n",
                 spec.name.c_str(),
                 offline.compiled->device->params().channel_width);
    return 1;
  }
  debug::DebugSession session(offline);
  sim::NetlistSimulator golden(golden_design);

  // The failure is first noticed at the primary outputs.
  {
    Rng rng(7);
    sim::MappedSimulator& dut = session.dut();
    golden.reset();
    bool mismatch = false;
    for (int cycle = 0; cycle < 64 && !mismatch; ++cycle) {
      const auto in = stimulus(rng, golden_design.inputs().size());
      dut.set_inputs(in);
      golden.set_inputs(in);
      dut.eval();
      golden.eval();
      for (std::size_t i = 0; i < golden_design.outputs().size(); ++i) {
        if (dut.output(i) != golden.output(i)) {
          std::printf("failure observed: output '%s' wrong at cycle %d\n",
                      golden_design.output_names()[i].c_str(), cycle);
          mismatch = true;
          break;
        }
      }
      dut.step();
      golden.step();
    }
    if (!mismatch) {
      std::printf("outputs agreed in the smoke window; widening the hunt\n");
    }
  }

  // Debug loop: sweep observation windows over all signals, every turn a
  // partial reconfiguration.  A signal is "suspicious" when its trace
  // diverges from the golden model; we record WHEN it first diverged,
  // because in a sequential circuit corrupted state eventually poisons
  // everything — the bug site is the earliest divergence.
  std::map<std::string, int> first_divergence;
  std::size_t turns = 0;
  double reconfig_total = 0.0;
  const auto& lanes = offline.instrumented.lane_signals;
  std::size_t max_index = 0;
  for (const auto& lane : lanes) max_index = std::max(max_index, lane.size());

  for (std::size_t index = 0; index < max_index; ++index) {
    std::vector<std::string> window;
    for (const auto& lane : lanes) {
      if (index < lane.size()) window.push_back(lane[index]);
    }
    std::sort(window.begin(), window.end());
    window.erase(std::unique(window.begin(), window.end()), window.end());
    std::vector<std::string> selected;
    for (const auto& name : window) {
      auto trial = selected;
      trial.push_back(name);
      try {
        (void)offline.instrumented.select_signals(trial);
        selected = std::move(trial);
      } catch (const Error&) {
        // lane conflict; this signal will come around in another window
      }
    }
    if (selected.empty()) continue;

    const auto turn = session.observe(selected);
    ++turns;
    reconfig_total += turn.turn_seconds;

    session.reset();
    golden.reset();
    Rng rng(7);  // identical stimulus every window
    for (int cycle = 0; cycle < 48; ++cycle) {
      const auto in = stimulus(rng, golden_design.inputs().size());
      golden.set_inputs(in);
      golden.eval();
      const BitVec& sample = session.step(in);
      for (std::size_t lane = 0; lane < session.num_lanes(); ++lane) {
        const auto id = golden_design.find(turn.observed[lane]);
        if (id && sample.get(lane) != golden.value(*id)) {
          auto [it, inserted] =
              first_divergence.try_emplace(turn.observed[lane], cycle);
          if (!inserted) it->second = std::min(it->second, cycle);
        }
      }
      golden.step();
    }
  }

  std::printf("\nswept every internal signal in %zu debugging turns "
              "(total reconfiguration cost: %.2f ms — one vendor recompile "
              "costs minutes to hours)\n",
              turns, reconfig_total * 1e3);
  std::printf("%zu signals diverge from the golden model\n",
              first_divergence.size());

  // Localization: the bug site diverges at the EARLIEST cycle; among the
  // signals that diverge in that first cycle, the topologically first one is
  // the root cause (everything after it is fault propagation).
  int first_cycle = 1 << 30;
  for (const auto& [name, cycle] : first_divergence) {
    first_cycle = std::min(first_cycle, cycle);
  }
  std::string root;
  for (const auto id : buggy.topo_order()) {
    const auto it = first_divergence.find(buggy.name(id));
    if (it != first_divergence.end() && it->second == first_cycle) {
      root = buggy.name(id);
      break;
    }
  }
  std::printf("earliest divergence at cycle %d; first diverging signal: "
              "'%s'\n",
              first_cycle, root.c_str());
  if (root == victim) {
    std::printf("=> bug localized to %s, which is exactly the injected "
                "fault site.  QED.\n",
                victim.c_str());
  } else {
    std::printf("=> inspect '%s' and its fanin cone (injected site was %s)\n",
                root.c_str(), victim.c_str());
  }
  return 0;
}
