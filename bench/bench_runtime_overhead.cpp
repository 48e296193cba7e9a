// Reproduces the paper's §V-C2 run-time overhead analysis:
//   * SCG evaluation of a parameterized configuration: <= ~50 us, measured
//     on the real PConf of a compiled design;
//   * each parameterized (partial) reconfiguration is ~3 orders of magnitude
//     faster than a full reconfiguration (176 ms on a Virtex-5);
//   * at 400 MHz with a 4-tick debug loop, the ~50 us activation cost breaks
//     even after ~5000 debugging turns (the amortization series).
// It also times the emulation hot path: DebugSession::run() per cycle
// against the bare engine's set_inputs() + step() loop on the session's
// backend, watching the session's lane cells under the session's parameters
// so both sweep the same cone; the ratio has a <= 1.2x target.  A run right
// after a debugging turn, in perfbench's shape (a sparse observe(), reset(),
// a 48-cycle run()), is timed next to the steady state, so a per-turn cost
// of the emulator shows.  The journal, server and sampler overhead rows are
// bench::Trial A/B legs, judged against their budgets only when their
// spread can resolve them.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "bitstream/icap.h"
#include "common.h"
#include "debug/session.h"
#include "genbench/genbench.h"
#include "sim/trigger.h"
#include "support/introspect.h"
#include "support/profiler.h"
#include "support/rng.h"
#include "support/telemetry.h"
#include "support/stopwatch.h"

using namespace fpgadbg;

namespace {

// The hot-path and throughput timings below are the best of kRepeats runs
// of kCycles cycles, each drawing fresh random stimulus per cycle, so run()
// and the bare engine compare directly.  Each overhead row is kPairs
// alternated pairs of one such run per leg.
constexpr std::uint64_t kCycles = 20000;
constexpr int kRepeats = 5;
constexpr int kPairs = 15;
// perfbench's session turn: 48 emulated cycles after each observe().
constexpr std::uint64_t kTurnCycles = 48;
constexpr int kTurns = 400;

/// "<what>: A ms <a_label>, B ms <b_label> -> overhead (MAD, budget: verdict)"
void print_trial(const char* what, const char* a_label, const char* b_label,
                 const bench::Trial& t, double budget_pct) {
  std::printf("  %s: %.3f ms %s, %.3f ms %s -> %+.2f%% overhead (MAD "
              "%.2f%%, budget <= %.0f%%: %s)\n",
              what, t.a_seconds * 1e3, a_label, t.b_seconds * 1e3, b_label,
              t.overhead_pct, t.mad_pct, budget_pct,
              t.verdict(budget_pct).c_str());
}

/// Seconds for one run of kCycles cycles of a bare DUT.
double bare_run_seconds(sim::MappedSimulator& simulator) {
  std::vector<bool> inputs(simulator.netlist().inputs().size());
  Rng rng(17);
  Stopwatch timer;
  for (std::uint64_t c = 0; c < kCycles; ++c) {
    for (std::size_t i = 0; i < inputs.size(); ++i) inputs[i] = rng.next_bool();
    simulator.set_inputs(inputs);
    simulator.step();
  }
  return timer.elapsed_seconds();
}

/// Best of kRepeats bare runs under one simulator backend.
double emulation_seconds(const map::MappedNetlist& mn,
                         sim::SimBackend backend) {
  sim::MappedSimulator simulator(mn, backend);
  double best = 1e9;
  for (int rep = 0; rep < kRepeats; ++rep) {
    best = std::min(best, bare_run_seconds(simulator));
  }
  return best;
}

}  // namespace

int main() {
  std::printf("=== SS V-C2: run-time overhead ===\n\n");

  genbench::CircuitSpec spec{"runtime", 12, 8, 8, 90, 4, 6, 301};
  const auto user = genbench::generate(spec);
  debug::OfflineOptions options;
  options.instrument.trace_width = 8;
  const auto offline = debug::run_offline(user, options);
  // An illegal route's design is not the flow's; no number comes from it.
  if (!offline.compiled->routing.success) {
    std::fprintf(stderr, "%s: route is illegal at W = %d\n",
                 spec.name.c_str(),
                 offline.compiled->device->params().channel_width);
    return 1;
  }
  std::printf("design: %zu gates -> %zu LUTs + %zu TCONs, %zu parameters, "
              "%zu-frame device\n",
              spec.num_gates, offline.mapping.stats.lut_area,
              offline.mapping.stats.num_tcons,
              offline.instrumented.netlist.params().size(),
              offline.pconf->total_bits() / arch::FrameGeometry::kFrameBits);

  bitstream::IcapModel icap;
  debug::DebugSession session(offline, icap);
  std::printf("emulation backend: %s\n",
              sim::to_string(session.dut().backend()).c_str());

  // Measure a series of real debugging turns.  The constructor ran the one
  // full specialization, so every turn below is incremental; this design's
  // supports fit the table cap, so each reads rows and visits no BDD node.
  telemetry::Counter& nodes_visited =
      telemetry::metrics().counter("scg.bdd_nodes_visited");
  telemetry::Counter& rows_read =
      telemetry::metrics().counter("scg.table_rows_read");
  const std::uint64_t nodes_before = nodes_visited.value();
  const std::uint64_t rows_before = rows_read.value();
  double worst_eval = 0.0, sum_eval = 0.0, sum_reconf = 0.0;
  std::size_t sum_frames = 0;
  const int turns = 50;
  const auto& lanes = offline.instrumented.lane_signals;
  for (int t = 0; t < turns; ++t) {
    const auto& lane = lanes[static_cast<std::size_t>(t) % lanes.size()];
    const auto rep =
        session.observe({lane[static_cast<std::size_t>(t) % lane.size()]});
    worst_eval = std::max(worst_eval, rep.scg_eval_seconds);
    sum_eval += rep.scg_eval_seconds;
    sum_reconf += rep.reconfig_seconds;
    sum_frames += rep.frames_reconfigured;
  }
  const std::uint64_t turn_nodes = nodes_visited.value() - nodes_before;
  const std::uint64_t turn_rows = rows_read.value() - rows_before;
  const double avg_eval = sum_eval / turns;
  const double avg_reconf = sum_reconf / turns;
  const double activation = avg_eval + avg_reconf;
  const double full = icap.full_seconds(icap.reference_frames);

  std::printf("\nmeasured over %d signal-set activations:\n", turns);
  std::printf("  SCG evaluation:      avg %7.1f us, worst %7.1f us "
              "(paper: max ~50 us)\n",
              avg_eval * 1e6, worst_eval * 1e6);
  std::printf("  SCG work per turn:   %.1f table rows read, %.1f BDD nodes "
              "visited\n",
              static_cast<double>(turn_rows) / turns,
              static_cast<double>(turn_nodes) / turns);
  if (turn_nodes != 0) {
    std::fprintf(stderr, "%s: incremental turns visited %llu BDD nodes; every "
                 "support group should read its table\n",
                 spec.name.c_str(), static_cast<unsigned long long>(turn_nodes));
    return 1;
  }
  std::printf("  partial reconfig:    avg %7.1f us over avg %.1f frames\n",
              avg_reconf * 1e6,
              static_cast<double>(sum_frames) / turns);
  std::printf("  full reconfiguration:        %7.1f ms (Virtex-5 reference)\n",
              full * 1e3);
  std::printf("  speedup vs full reconfig:    %7.0fx (paper: ~3 orders of "
              "magnitude)\n",
              full / activation);

  bitstream::RuntimeOverheadModel model;
  std::printf("\namortization at %.0f MHz, %.0f-tick debug loop "
              "(turn = %.0f ns):\n",
              model.clock_hz / 1e6, model.ticks_per_turn,
              model.turn_seconds() * 1e9);
  std::printf("  break-even for a 50 us activation: %.0f turns "
              "(paper: 5000)\n",
              model.break_even_turns(50e-6));
  std::printf("  break-even for measured activation (%.1f us): %.0f turns\n",
              activation * 1e6, model.break_even_turns(activation));

  std::printf("\n  %-12s %s\n", "turns", "relative activation overhead");
  for (double t : {100.0, 1000.0, 5000.0, 10000.0, 100000.0, 1000000.0}) {
    std::printf("  %-12.0f %.3f (50us model) / %.3f (measured)\n", t,
                model.relative_overhead(50e-6, t),
                model.relative_overhead(activation, t));
  }
  // Flight-recorder cost on the emulation hot path: run() only bumps a
  // pending-cycle counter per step (events batch-flush at turn boundaries),
  // so the journal should stay within a ~5% overhead budget with no sink.
  auto session_run_seconds = [&] {
    // Fires on the first sample; post-trigger window spans the whole run,
    // so every run executes exactly kCycles emulated cycles.
    sim::Trigger trig(std::string(session.num_lanes(), 'x'), kCycles);
    Rng jrng(17);
    std::vector<bool> jin(offline.mapping.netlist.inputs().size());
    Stopwatch timer;
    session.run(
        trig,
        [&](std::uint64_t) {
          for (std::size_t i = 0; i < jin.size(); ++i) {
            jin[i] = jrng.next_bool();
          }
          return jin;
        },
        kCycles);
    return timer.elapsed_seconds();
  };
  auto journal_run = [&](bool enabled) {
    return [&session, &session_run_seconds, enabled] {
      session.journal().set_enabled(enabled);
      return session_run_seconds();
    };
  };
  const std::string run_label =
      "run() of " + std::to_string(kCycles) + " cycles";
  session_run_seconds();  // warm-up
  const bench::Trial journal =
      bench::Trial::run(kPairs, journal_run(false), journal_run(true));
  session.journal().set_enabled(true);
  std::printf("\nsession flight recorder (journal, in-memory ring, no "
              "sink; median of %d alternated pairs):\n",
              kPairs);
  print_trial(run_label.c_str(), "journal off", "journal on", journal, 5.0);

  // The hot path's target: run(), journal off, costs at most 1.2x the bare
  // engine of the session's own backend.  The bare engine watches the lane
  // cells under the session's parameters, so both legs sweep the same cone
  // and the ratio is run()'s own per-cycle cost.  The two alternate run by
  // run, so a slow stretch of a shared host slows both alike.
  const sim::SimBackend backend = session.dut().backend();
  const map::MappedNetlist& mn = offline.mapping.netlist;
  sim::MappedSimulator bare(mn, backend);
  for (map::CellId p : mn.params()) bare.set_param(p, session.dut().value(p));
  bare.set_watched(session.lane_cells());
  // Ops per eval() of each leg, from the engine's own counters.
  const telemetry::Counter& evals = telemetry::metrics().counter("sim.evals");
  const telemetry::Counter& swept =
      telemetry::metrics().counter("sim.sweep.ops");
  struct Sweeps {
    std::uint64_t ops = 0;
    std::uint64_t evals = 0;
    double per_eval() const {
      return evals == 0 ? 0.0 : static_cast<double>(ops) / evals;
    }
  };
  auto counted = [&](Sweeps& sweeps, auto&& leg) {
    const std::uint64_t ops0 = swept.value();
    const std::uint64_t evals0 = evals.value();
    const double seconds = leg();
    sweeps.ops += swept.value() - ops0;
    sweeps.evals += evals.value() - evals0;
    return seconds;
  };
  Sweeps bare_sweeps, run_sweeps;
  session.journal().set_enabled(false);
  double bare_best = 1e9;
  double run_best = 1e9;
  for (int rep = 0; rep < kRepeats; ++rep) {
    bare_best = std::min(bare_best, counted(bare_sweeps, [&] {
                           return bare_run_seconds(bare);
                         }));
    run_best = std::min(run_best, counted(run_sweeps, session_run_seconds));
  }
  session.journal().set_enabled(true);
  const double run_ns = run_best / kCycles * 1e9;
  const double bare_ns = bare_best / kCycles * 1e9;
  const double run_ratio = run_ns / bare_ns;
  std::printf("\nemulation hot path (best of %d runs of %llu cycles; the "
              "whole design is %zu ops):\n",
              kRepeats, static_cast<unsigned long long>(kCycles),
              bare.sweep_size());
  const std::string bare_label =
      "bare " + sim::to_string(backend) + " engine (set_inputs + step):";
  std::printf("  %-44s %8.1f ns/cycle %8.1f ops/sweep\n", bare_label.c_str(),
              bare_ns, bare_sweeps.per_eval());
  std::printf("  %-44s %8.1f ns/cycle %8.1f ops/sweep\n",
              "DebugSession::run(), journal off:", run_ns,
              run_sweeps.per_eval());
  std::printf("  run() / bare engine: %.2fx (target <= 1.2x)\n", run_ratio);
  telemetry::metrics().gauge("bench.emulation.bare_ns_per_cycle").set(bare_ns);
  telemetry::metrics().gauge("bench.emulation.run_ns_per_cycle").set(run_ns);
  telemetry::metrics().gauge("bench.emulation.run_vs_bare_ratio").set(run_ratio);

  // The two engines behind the session, each sweeping the whole design
  // (the interpreter has no watched cone).
  const double interp_rate =
      kCycles / emulation_seconds(mn, sim::SimBackend::kInterpreted);
  const double compiled_rate =
      kCycles / emulation_seconds(mn, sim::SimBackend::kCompiled);
  std::printf("\nDUT emulation throughput (scalar stimulus, whole design):\n");
  std::printf("  interpreted backend: %10.0f cycles/s\n", interp_rate);
  std::printf("  compiled backend:    %10.0f cycles/s (%.1fx)\n",
              compiled_rate, compiled_rate / interp_rate);

  // A run right after a turn, in perfbench's shape: a sparse observe()
  // (one lane's signal swapped), reset(), then a kTurnCycles run().  The
  // first run pays what the turn left to the emulator (its cone re-walk, a
  // cache the turn cooled); a second run on the same turn is the steady
  // state.
  {
    session.journal().set_enabled(false);
    Rng trng(23);
    std::vector<std::vector<bool>> rows(
        kTurnCycles, std::vector<bool>(mn.inputs().size()));
    for (auto& row : rows) {
      for (std::size_t i = 0; i < row.size(); ++i) row[i] = trng.next_bool();
    }
    auto turn_run_ns = [&] {
      session.reset();
      sim::Trigger trig(std::string(session.num_lanes(), 'x'), kTurnCycles);
      Stopwatch timer;
      session.run(
          trig, [&rows](std::uint64_t c) { return rows[c]; }, kTurnCycles);
      return timer.elapsed_seconds() / kTurnCycles * 1e9;
    };
    std::vector<std::size_t> pick(lanes.size(), 0);
    std::vector<double> first_ns, steady_ns;
    for (int t = 0; t < kTurns; ++t) {
      std::vector<std::size_t> trial = pick;
      const std::size_t l = trng.next_below(lanes.size());
      trial[l] = trng.next_below(lanes[l].size());
      std::vector<std::string> signals;
      for (std::size_t k = 0; k < lanes.size(); ++k) {
        signals.push_back(lanes[k][trial[k]]);
      }
      std::sort(signals.begin(), signals.end());
      signals.erase(std::unique(signals.begin(), signals.end()),
                    signals.end());
      if (!offline.instrumented.try_select_signals(signals).ok()) continue;
      pick = trial;
      session.observe(signals);
      first_ns.push_back(turn_run_ns());
      steady_ns.push_back(turn_run_ns());
    }
    session.journal().set_enabled(true);
    const double first = bench::median(first_ns);
    const double steady = bench::median(steady_ns);
    std::printf("\nemulation after a debugging turn (sparse observe(), "
                "reset(), %llu-cycle run(); median of %zu turns):\n",
                static_cast<unsigned long long>(kTurnCycles),
                first_ns.size());
    std::printf("  first run after the turn: %8.1f ns/cycle\n", first);
    std::printf("  second run (steady state): %7.1f ns/cycle\n", steady);
    std::printf("  the turn's cost to the run: %6.2f us\n",
                (first - steady) * kTurnCycles * 1e-3);
    telemetry::metrics()
        .gauge("bench.emulation.first_run_ns_per_cycle")
        .set(first);
    telemetry::metrics()
        .gauge("bench.emulation.steady_run_ns_per_cycle")
        .set(steady);
  }

  // Live introspection cost on the same hot paths: the server thread sits
  // in poll() and progress reporting is iteration-cadence, so running with
  // --introspect but no client attached must stay within a ~1% budget.
  // Leg B starts a server, runs, and stops it.
  auto start_server = [] {
    auto started =
        support::IntrospectServer::start(support::IntrospectOptions{});
    if (!started.ok()) {
      std::fprintf(stderr, "introspect server failed to start: %s\n",
                   started.status().to_string().c_str());
      std::exit(1);
    }
    return std::move(started.value());
  };
  session.journal().set_enabled(false);
  const bench::Trial server =
      bench::Trial::run(kPairs, session_run_seconds, [&] {
        const auto serving = start_server();
        const double seconds = session_run_seconds();
        serving->stop();
        return seconds;
      });

  // And a route negotiation (progress + series at iteration cadence) with
  // the idle server still up.
  auto timed_route = [&] {
    genbench::CircuitSpec rspec{"introroute", 13, 8, 8, 260, 5, 6, 977};
    const auto rnl = genbench::generate(rspec);
    debug::OfflineOptions ropt;
    ropt.instrument.trace_width = 8;
    // W = 32 leaves this design's route illegal; 40 routes it.
    ropt.compile.arch.channel_width = 40;
    Stopwatch timer;
    const auto roffline = debug::run_offline(rnl, ropt);
    const double seconds = timer.elapsed_seconds();
    if (!roffline.compiled->routing.success) {
      std::fprintf(stderr, "%s: route is illegal at W = %d\n",
                   rspec.name.c_str(),
                   roffline.compiled->device->params().channel_width);
      std::exit(1);
    }
    return seconds;
  };
  double route_serving = 0.0;
  {
    const auto serving = start_server();
    route_serving = timed_route();
    serving->stop();
  }
  const double route_plain = timed_route();
  const double route_overhead =
      (route_serving - route_plain) / route_plain * 100.0;

  std::printf("\nlive introspection server (idle, no client connected; "
              "median of %d alternated pairs):\n",
              kPairs);
  print_trial(run_label.c_str(), "server off", "server on", server, 1.0);
  std::printf("  route+flow:           %.3f s server off, %.3f s server "
              "on -> %+.2f%% apparent overhead (single sample; includes "
              "progress/series reporting)\n",
              route_plain, route_serving, route_overhead);

  // Sampling-profiler cost on the emulation hot path: a SIGPROF per thread
  // per tick interrupts the levelized sweep mid-flight, so the 99 Hz
  // default must stay within a 2% budget to be usable on live sessions.
  // Leg B starts the sampler, runs, and stops it; each start keeps its
  // predecessor's ring (the handler may still hold it), so the ring is
  // small.  The first tick comes a full period after the start, later than
  // one run ends, so each leg is kSamplerRuns runs: a few ticks.
  const int sample_hz = 99;
  constexpr int kSamplerRuns = 5;
  auto sampler_leg_seconds = [&] {
    double seconds = 0.0;
    for (int r = 0; r < kSamplerRuns; ++r) seconds += session_run_seconds();
    return seconds;
  };
  prof::ProfilerStats pstats;
  const bench::Trial sampler =
      bench::Trial::run(kPairs, sampler_leg_seconds, [&] {
        const auto started =
            prof::start_profiler(prof::ProfilerOptions{sample_hz, 1u << 10});
        if (!started.ok()) {
          std::fprintf(stderr, "profiler failed to start: %s\n",
                       started.to_string().c_str());
          std::exit(1);
        }
        const double seconds = sampler_leg_seconds();
        prof::stop_profiler();
        const prof::ProfilerStats leg = prof::profiler_stats();
        pstats.samples += leg.samples;
        pstats.dropped += leg.dropped;
        return seconds;
      });
  session.journal().set_enabled(true);
  std::printf("\nsampling profiler (%d Hz wall-clock, all threads; median "
              "of %d alternated pairs):\n",
              sample_hz, kPairs);
  const std::string sampler_label =
      std::to_string(kSamplerRuns) + " run() calls of " +
      std::to_string(kCycles) + " cycles";
  print_trial(sampler_label.c_str(), "sampler off", "sampler on", sampler,
              2.0);
  std::printf("  %llu samples captured, %llu dropped\n",
              static_cast<unsigned long long>(pstats.samples),
              static_cast<unsigned long long>(pstats.dropped));
  telemetry::metrics()
      .gauge("bench.profiler.overhead_pct")
      .set(sampler.overhead_pct);
  telemetry::metrics()
      .gauge("bench.profiler.sample_hz")
      .set(static_cast<double>(sample_hz));
  telemetry::metrics()
      .gauge("bench.profiler.samples")
      .set(static_cast<double>(pstats.samples));
  telemetry::metrics()
      .gauge("bench.profiler.dropped_samples")
      .set(static_cast<double>(pstats.dropped));

  std::printf("\nfor larger designs, the overhead becomes smaller relative to "
              "the debugging turn (paper conclusion).\n");
  fpgadbg::bench::dump_metrics("runtime_overhead");
  return 0;
}
