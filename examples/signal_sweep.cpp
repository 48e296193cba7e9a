// Signal sweep: "virtually enlarging the set of observed signals".
//
// The trace buffers only have W inputs, but the parameterized mux network
// lets the debugger walk observation windows across ALL internal nets of a
// design, one partial reconfiguration per window.  This example sweeps every
// net, records a waveform database, and totals what the same sweep would
// cost with recompile-per-window (the conventional flow of paper Fig. 4a).
#include <cstdio>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "debug/session.h"
#include "genbench/genbench.h"
#include "sim/vcd.h"
#include "support/rng.h"

using namespace fpgadbg;

int main() {
  genbench::CircuitSpec spec{"sweep_dut", 12, 8, 10, 120, 5, 6, 99};
  const netlist::Netlist design = genbench::generate(spec);

  debug::OfflineOptions options;
  options.instrument.trace_width = 8;
  const auto offline = debug::run_offline(design, options);
  if (!offline.compiled->routing.success) {
    std::fprintf(stderr, "%s: route is illegal at W = %d\n",
                 spec.name.c_str(),
                 offline.compiled->device->params().channel_width);
    return 1;
  }
  debug::DebugSession session(offline);

  std::printf("design has %zu observable nets; trace buffer width is %zu\n",
              offline.instrumented.num_observable(), session.num_lanes());

  constexpr int kCycles = 32;
  std::map<std::string, std::string> waves;  // net -> bit string
  std::size_t turns = 0;
  double param_cost = 0.0;

  const auto& lanes = offline.instrumented.lane_signals;
  std::size_t max_index = 0;
  for (const auto& lane : lanes) max_index = std::max(max_index, lane.size());

  for (std::size_t index = 0; index < max_index; ++index) {
    std::vector<std::string> window;
    for (const auto& lane : lanes) {
      if (index < lane.size() && !waves.contains(lane[index])) {
        window.push_back(lane[index]);
      }
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
      }
    }
    if (selected.empty()) continue;

    const auto turn = session.observe(selected);
    ++turns;
    param_cost += turn.turn_seconds;

    // Re-run the SAME stimulus for every window so waveforms line up.
    session.reset();
    Rng rng(12345);
    for (int cycle = 0; cycle < kCycles; ++cycle) {
      std::vector<bool> in(design.inputs().size());
      for (std::size_t i = 0; i < in.size(); ++i) in[i] = rng.next_bool();
      const BitVec& sample = session.step(in);
      for (std::size_t lane = 0; lane < session.num_lanes(); ++lane) {
        const std::string& name = turn.observed[lane];
        auto [it, inserted] = waves.try_emplace(name, "");
        if (it->second.size() < static_cast<std::size_t>(kCycles)) {
          it->second.push_back(sample.get(lane) ? '1' : '0');
        }
      }
    }
  }

  std::printf("captured %d-cycle waveforms for %zu nets in %zu debugging "
              "turns\n\n",
              kCycles, waves.size(), turns);

  // A taste of the waveform database.
  int shown = 0;
  for (const auto& [name, wave] : waves) {
    if (++shown > 6) break;
    std::printf("  %-12s %s\n", name.c_str(), wave.c_str());
  }
  std::printf("  ... (%zu more)\n\n", waves.size() - 6);

  // Export the complete multi-window waveform database as a standard VCD —
  // as if the whole design had simulator-like observability (paper [12]).
  {
    std::vector<std::string> names;
    names.reserve(waves.size());
    for (const auto& [name, wave] : waves) names.push_back(name);
    std::vector<BitVec> samples(kCycles, BitVec(names.size()));
    for (std::size_t s = 0; s < names.size(); ++s) {
      const std::string& wave = waves[names[s]];
      for (std::size_t t = 0; t < wave.size() && t < samples.size(); ++t) {
        samples[t].set(s, wave[t] == '1');
      }
    }
    std::ofstream vcd("/tmp/fpgadbg_sweep.vcd");
    sim::write_vcd(vcd, names, samples, spec.name);
    std::printf("wrote /tmp/fpgadbg_sweep.vcd (%zu signals x %d cycles) — "
                "open it in any waveform viewer\n\n",
                names.size(), kCycles);
  }

  // Cost comparison (paper Fig. 4a vs 4b).
  const double recompile_each =
      offline.map_seconds + offline.pnr_seconds + offline.bitstream_seconds;
  std::printf("parameterized flow: %zu reconfigurations, %.2f ms total\n",
              turns, param_cost * 1e3);
  std::printf("conventional flow:  %zu recompilations, ~%.1f s with this "
              "toolchain (and hours with commercial tools on real designs)\n",
              turns, recompile_each * static_cast<double>(turns));
  std::printf("speedup of the debug cycle: %.0fx\n",
              recompile_each * static_cast<double>(turns) / param_cost);
  return 0;
}
