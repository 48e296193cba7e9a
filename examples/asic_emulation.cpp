// ASIC emulation: golden-model lock-step with triggers.
//
// The paper motivates FPGA emulation as the way to verify ASICs before
// tape-out.  This example runs the emulated DUT in lock-step with its golden
// model, arms a trigger on a mismatch indicator, and — once the trigger
// fires — dumps the post-trigger trace window and re-parameterizes to look
// deeper, all within one emulation session.
#include <cstdio>

#include "debug/session.h"
#include "genbench/genbench.h"
#include "sim/simulator.h"
#include "support/rng.h"

using namespace fpgadbg;

int main() {
  // DUT with a transient fault: a single-cycle bit flip at cycle 100
  // (models a marginal timing path that misbehaves occasionally).
  genbench::CircuitSpec spec{"asic_core", 14, 10, 16, 150, 6, 6, 31337};
  const netlist::Netlist golden_design = genbench::generate(spec);

  debug::OfflineOptions options;
  options.instrument.trace_width = 6;
  const auto offline = debug::run_offline(golden_design, options);
  if (!offline.compiled->routing.success) {
    std::fprintf(stderr, "%s: route is illegal at W = %d\n",
                 spec.name.c_str(),
                 offline.compiled->device->params().channel_width);
    return 1;
  }
  debug::DebugSession session(offline);
  sim::NetlistSimulator golden(golden_design);

  // Fault in the "silicon": a burst of transient flips on the driver of
  // state register lq0 around cycle 100 (models a marginal timing path).
  // The emulated DUT is the clean design; the reference simulator carries
  // the fault, so a divergence means the transient corrupted real state.
  sim::NetlistSimulator faulty(golden_design);
  const netlist::NodeId flop_driver = golden_design.latches()[0].input;
  for (std::uint64_t c = 100; c < 104; ++c) {
    faulty.inject_fault({flop_driver, sim::FaultType::kFlipOnCycle, c});
  }
  std::printf("transient burst targets '%s' (D-pin of lq0), cycles 100-103\n",
              golden_design.name(flop_driver).c_str());

  std::printf("emulating %zu-gate core, watching for divergence...\n",
              golden_design.num_logic_nodes());

  // Watch a window of mid-pipeline signals.
  const auto turn = session.observe({"g80", "g81"});
  std::printf("observing per lane:");
  for (const auto& name : turn.observed) std::printf(" %s", name.c_str());
  std::printf("\n");

  // Lock-step run: drive identical stimulus into faulty reference and the
  // emulated DUT; detect first output divergence manually (the emulator's
  // mismatch detector), then inspect the captured window.
  Rng rng(5);
  session.reset();
  std::uint64_t diverged_at = 0;
  bool diverged = false;
  for (std::uint64_t cycle = 0; cycle < 400 && !diverged; ++cycle) {
    std::vector<bool> in(golden_design.inputs().size());
    for (std::size_t i = 0; i < in.size(); ++i) in[i] = rng.next_bool();
    faulty.set_inputs(in);
    faulty.eval();
    session.step(in);
    auto& dut = session.dut();
    for (std::size_t o = 0; o < golden_design.outputs().size(); ++o) {
      // Compare DUT (clean hardware) against the faulty reference: the
      // divergence marks the cycle where the transient corrupted state.
      if (dut.output(o) != faulty.output(o)) {
        diverged = true;
        diverged_at = cycle;
        std::printf("mismatch on output '%s' at cycle %llu\n",
                    golden_design.output_names()[o].c_str(),
                    static_cast<unsigned long long>(cycle));
        break;
      }
    }
    faulty.step();
  }

  if (!diverged) {
    std::printf("no divergence in 400 cycles (transient masked); "
                "emulation session clean\n");
    return 0;
  }

  std::printf("transient fault fired at cycle 100; corruption surfaced at "
              "cycle %llu (%llu cycles of latent state corruption)\n",
              static_cast<unsigned long long>(diverged_at),
              static_cast<unsigned long long>(diverged_at - 100));

  // Post-trigger inspection: last 8 samples of the observed window.
  std::printf("\ntrace window (newest last):\n");
  const auto window = session.trace().read_window();
  const std::size_t show = std::min<std::size_t>(8, window.size());
  for (std::size_t lane = 0; lane < session.num_lanes(); ++lane) {
    std::printf("  %-12s ", turn.observed[lane].c_str());
    for (std::size_t s = window.size() - show; s < window.size(); ++s) {
      std::printf("%d", window[s].get(lane) ? 1 : 0);
    }
    std::printf("\n");
  }

  // Escalate: re-parameterize to the fanout cone of the suspected flop and
  // REPLAY the corrupted region from a pre-fault snapshot — one partial
  // reconfiguration, zero recompiles, same silicon state.
  const auto turn2 = session.observe({golden_design.name(flop_driver)});
  std::printf("\nre-parameterized onto '%s' in %.1f us (frames: %zu); a "
              "vendor-flow engineer would be waiting on synthesis right "
              "now.\n",
              golden_design.name(flop_driver).c_str(),
              turn2.turn_seconds * 1e6, turn2.frames_reconfigured);

  // Replay with the new visibility: rewind both sides and drive the same
  // stimulus again.
  session.reset();
  faulty.reset();
  Rng rng2(5);
  sim::MappedSimulator::Snapshot pre_fault{};
  for (std::uint64_t cycle = 0; cycle <= diverged_at; ++cycle) {
    if (cycle == 95) pre_fault = session.snapshot();
    std::vector<bool> in(golden_design.inputs().size());
    for (std::size_t i = 0; i < in.size(); ++i) in[i] = rng2.next_bool();
    session.step(in);
  }
  session.restore(pre_fault);
  std::printf("rewound the emulated DUT to cycle %llu (pre-fault snapshot) "
              "for replay with the new observation window.\n",
              static_cast<unsigned long long>(session.dut().cycle()));
  return 0;
}
