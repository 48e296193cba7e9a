#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <set>

#include "debug/flow.h"
#include "debug/session.h"
#include "genbench/genbench.h"
#include "sim/compiled_simulator.h"
#include "sim/equivalence.h"
#include "sim/simulator.h"
#include "support/error.h"
#include "support/rng.h"
#include "support/telemetry.h"

namespace fpgadbg::debug {
namespace {

using netlist::Netlist;

Netlist small_user(std::uint64_t seed) {
  genbench::CircuitSpec spec{"flow" + std::to_string(seed), 8, 6, 4, 36, 3, 5,
                             seed};
  return genbench::generate(spec);
}

OfflineOptions small_options() {
  OfflineOptions options;
  options.instrument.trace_width = 6;
  return options;
}

TEST(OfflineFlow, ProducesAllArtifacts) {
  const auto offline = run_offline(small_user(1), small_options());
  EXPECT_GT(offline.instrumented.num_observable(), 0u);
  EXPECT_GT(offline.mapping.stats.num_tcons, 0u);
  ASSERT_TRUE(offline.compiled);
  EXPECT_TRUE(offline.compiled->report.route_success);
  ASSERT_TRUE(offline.pconf);
  EXPECT_GT(offline.pconf->num_parameterized_bits(), 0u);
  EXPECT_GT(offline.total_seconds, 0.0);
}

TEST(OfflineFlow, MappingOnlyWhenPnrDisabled) {
  auto options = small_options();
  options.run_pnr = false;
  const auto offline = run_offline(small_user(2), options);
  EXPECT_FALSE(offline.compiled);
  EXPECT_FALSE(offline.pconf);
  EXPECT_GT(offline.mapping.stats.lut_area, 0u);
}

TEST(OfflineFlow, MappedDutIsEquivalentToInstrumented) {
  const auto offline = run_offline(small_user(3), small_options());
  Rng rng(3);
  const auto report = sim::check_equivalence(offline.instrumented.netlist,
                                             offline.mapping.netlist, 300, rng);
  EXPECT_TRUE(report.equivalent) << report.first_mismatch;
}

TEST(Session, ObserveRetargetsLanes) {
  const auto offline = run_offline(small_user(4), small_options());
  DebugSession session(offline);

  const std::string sig = offline.instrumented.lane_signals[2][1];
  const auto report = session.observe({sig});
  EXPECT_NE(std::find(report.observed.begin(), report.observed.end(), sig),
            report.observed.end());
  EXPECT_GT(report.frames_reconfigured, 0u);
  EXPECT_GT(report.scg_eval_seconds, 0.0);
  EXPECT_GT(report.reconfig_seconds, 0.0);
}

TEST(Session, TraceMatchesGoldenSimulation) {
  // Turn after turn, observe a new signal set without resetting the DUT and
  // run it on; a golden NetlistSimulator of the ORIGINAL user circuit must
  // agree with every captured sample, on both emulation backends.
  genbench::CircuitSpec spec{"golden", 10, 8, 6, 90, 4, 6, 55};
  const Netlist user = genbench::generate(spec);
  const auto offline = run_offline(user, small_options());
  // The design keeps the session DUT's widest ops covered: the ops its
  // sweep runs, those of the bindable program.
  const sim::CompiledSimulator lowered(offline.mapping.netlist);
  std::set<std::uint32_t> arities;
  for (const sim::SimOp& op : lowered.program().ops) {
    arities.insert(op.fanin_count);
  }
  ASSERT_TRUE(arities.count(5) && arities.count(6))
      << "the lowered DUT lost its 5- and 6-fanin ops";

  constexpr int kTurns = 8;
  constexpr int kCyclesPerTurn = 24;
  const auto& lanes = offline.instrumented.lane_signals;
  for (sim::SimBackend backend :
       {sim::SimBackend::kCompiled, sim::SimBackend::kInterpreted}) {
    SCOPED_TRACE(sim::to_string(backend));
    DebugSession session(offline, {}, 1024, backend);
    sim::NetlistSimulator golden(user);
    Rng rng(55);
    for (int turn = 0; turn < kTurns; ++turn) {
      // Window `turn`: the turn-th candidate of every lane.
      std::vector<std::string> want;
      for (const auto& lane : lanes) {
        const std::string& s = lane[static_cast<std::size_t>(turn) % lane.size()];
        if (std::find(want.begin(), want.end(), s) == want.end()) {
          want.push_back(s);
        }
      }
      const auto report = session.observe(want);
      for (int cycle = 0; cycle < kCyclesPerTurn; ++cycle) {
        std::vector<bool> inputs;
        for (std::size_t i = 0; i < user.inputs().size(); ++i) {
          inputs.push_back(rng.next_bool());
        }
        golden.set_inputs(inputs);
        golden.eval();
        const BitVec& sample = session.step(inputs);
        for (std::size_t lane = 0; lane < session.num_lanes(); ++lane) {
          const auto id = user.find(report.observed[lane]);
          ASSERT_TRUE(id.has_value());
          ASSERT_EQ(sample.get(lane), golden.value(*id))
              << "turn " << turn << " cycle " << cycle << " lane " << lane
              << " signal " << report.observed[lane];
        }
        golden.step();
      }
    }
    EXPECT_EQ(session.trace().samples_stored(),
              static_cast<std::size_t>(kTurns * kCyclesPerTurn));
  }
}

/// A perfbench-style turn plan: every fourth turn is dense (window i: the
/// i-th signal of every lane, as many as fit together), the turns between
/// are sparse (one signal swapped for a random other one that fits).
std::vector<std::vector<std::string>> mixed_turns(const Instrumented& inst,
                                                  int turns, Rng& rng) {
  std::size_t windows = 1;
  std::vector<std::string> observable;
  for (const auto& lane : inst.lane_signals) {
    windows = std::max(windows, lane.size());
    observable.insert(observable.end(), lane.begin(), lane.end());
  }
  std::vector<std::vector<std::string>> plan;
  std::vector<std::string> current;
  for (int turn = 0; turn < turns; ++turn) {
    std::vector<std::string> signals = current;
    if (turn % 4 == 0) {
      signals.clear();
      const std::size_t window = static_cast<std::size_t>(turn / 4) % windows;
      for (const auto& lane : inst.lane_signals) {
        if (window >= lane.size()) continue;
        auto trial = signals;
        if (std::find(trial.begin(), trial.end(), lane[window]) !=
            trial.end()) {
          continue;
        }
        trial.push_back(lane[window]);
        if (inst.try_select_signals(trial).ok()) signals = std::move(trial);
      }
    } else if (!current.empty()) {
      for (int draw = 0; draw < 64; ++draw) {
        const std::string& s = observable[rng.next_below(observable.size())];
        if (std::find(current.begin(), current.end(), s) != current.end()) {
          continue;
        }
        auto trial = current;
        trial[rng.next_below(trial.size())] = s;
        if (inst.try_select_signals(trial).ok()) {
          signals = std::move(trial);
          break;
        }
      }
    }
    plan.push_back(signals);
    current = std::move(signals);
  }
  return plan;
}

TEST(Session, CompiledDutMatchesInterpreterOverMixedTurns) {
  // The compiled DUT binds TCONs to wires and cofactors TLUTs once per turn;
  // the interpreter evaluates every cell's full function every cycle.  Over
  // mixed dense and sparse turns on two designs, both must capture the same
  // samples and agree on the value of every cell, TCONs included, each
  // cycle.  A snapshot taken before a turn and restored after it replays
  // the turn's samples.
  for (std::uint64_t seed : {31u, 32u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    genbench::CircuitSpec spec{"mixed" + std::to_string(seed), 8, 6, 6, 70,
                               4, 5, seed};
    const auto offline = run_offline(genbench::generate(spec), small_options());
    const map::MappedNetlist& mn = offline.mapping.netlist;
    ASSERT_GT(mn.count(map::MKind::kTcon), 0u);
    DebugSession compiled(offline, {}, 1024, sim::SimBackend::kCompiled);
    DebugSession interpreted(offline, {}, 1024, sim::SimBackend::kInterpreted);
    Rng rng(seed);
    const auto plan = mixed_turns(offline.instrumented, 64, rng);
    constexpr int kCycles = 12;
    for (std::size_t turn = 0; turn < plan.size(); ++turn) {
      const bool rewind = turn % 8 == 5;
      std::optional<sim::MappedSimulator::Snapshot> before_c, before_i;
      if (rewind) {
        before_c = compiled.snapshot();
        before_i = interpreted.snapshot();
      }
      ASSERT_EQ(compiled.observe(plan[turn]).observed,
                interpreted.observe(plan[turn]).observed);
      std::vector<std::vector<bool>> stimulus;
      std::vector<BitVec> samples;
      for (int cycle = 0; cycle < kCycles; ++cycle) {
        std::vector<bool> inputs(mn.inputs().size());
        for (std::size_t i = 0; i < inputs.size(); ++i) {
          inputs[i] = rng.next_bool();
        }
        const BitVec sample = compiled.step(inputs);
        ASSERT_TRUE(sample == interpreted.step(inputs))
            << "turn " << turn << " cycle " << cycle;
        for (map::CellId id = 0; id < mn.num_cells(); ++id) {
          ASSERT_EQ(compiled.dut().value(id), interpreted.dut().value(id))
              << "turn " << turn << " cycle " << cycle << " cell "
              << mn.cell(id).name;
        }
        stimulus.push_back(std::move(inputs));
        samples.push_back(sample);
      }
      if (!rewind) continue;
      compiled.restore(*before_c);
      interpreted.restore(*before_i);
      for (int cycle = 0; cycle < kCycles; ++cycle) {
        const auto c = static_cast<std::size_t>(cycle);
        ASSERT_TRUE(compiled.step(stimulus[c]) == samples[c])
            << "compiled replay, turn " << turn << " cycle " << cycle;
        ASSERT_TRUE(interpreted.step(stimulus[c]) == samples[c])
            << "interpreted replay, turn " << turn << " cycle " << cycle;
      }
    }
  }
}

TEST(Session, TurnRebindsOnlyCellsReadingChangedParams) {
  // A turn re-binds exactly the TCONs and TLUTs that read a parameter whose
  // value it changed: counted once per cell, however many of its
  // parameters changed.
  const auto offline = run_offline(small_user(9), small_options());
  const auto& inst = offline.instrumented;
  const map::MappedNetlist& mn = offline.mapping.netlist;
  DebugSession session(offline);
  const telemetry::Counter& rebound =
      telemetry::metrics().counter("sim.bind.cells");
  auto expected = [&](const std::unordered_map<std::string, bool>& from,
                      const std::unordered_map<std::string, bool>& to) {
    std::set<map::CellId> changed;
    for (map::CellId p : mn.params()) {
      const std::string& name = mn.cell(p).name;
      const bool a = from.count(name) != 0 && from.at(name);
      const bool b = to.count(name) != 0 && to.at(name);
      if (a != b) changed.insert(p);
    }
    std::uint64_t cells = 0;
    for (map::CellId id = 0; id < mn.num_cells(); ++id) {
      const auto& params = mn.cell(id).param_inputs;
      cells += std::any_of(params.begin(), params.end(), [&](map::CellId p) {
        return changed.count(p) != 0;
      });
    }
    return cells;
  };
  auto previous = inst.select_signals({});
  // One lane moves to its second signal, then every lane moves (dense).
  std::vector<std::vector<std::string>> turns = {{inst.lane_signals[1][1]}};
  std::vector<std::string> dense;
  for (const auto& lane : inst.lane_signals) {
    auto trial = dense;
    trial.push_back(lane.back());
    if (inst.try_select_signals(trial).ok()) dense = std::move(trial);
  }
  turns.push_back(dense);
  for (const auto& signals : turns) {
    const auto next = inst.select_signals(signals);
    const std::uint64_t want = expected(previous, next);
    EXPECT_GT(want, 0u);
    const std::uint64_t before = rebound.value();
    session.observe(signals);
    EXPECT_EQ(rebound.value() - before, want) << signals.size() << " signals";
    previous = next;
  }
  // Observing the same signals again changes no parameter: nothing re-binds.
  const std::uint64_t before = rebound.value();
  session.observe(dense);
  EXPECT_EQ(rebound.value(), before);
}

TEST(Session, ParameterOrderAgreesAcrossArtifacts) {
  // A turn's parameter values travel as one bit vector in lane_params
  // order (flattened, lane 0 first); the instrumented netlist, the mapped
  // netlist and the PConf keep that order at both mux radixes, with and
  // without replication.
  for (const int radix : {2, 4}) {
    for (const int replication : {1, 3}) {
      OfflineOptions options = small_options();
      options.instrument.mux_radix = radix;
      options.instrument.replication = replication;
      const auto offline = run_offline(small_user(12), options);
      const std::string where = "radix " + std::to_string(radix) +
                                ", replication " + std::to_string(replication);
      std::vector<std::string> order;
      for (const auto& lane : offline.instrumented.lane_params) {
        order.insert(order.end(), lane.begin(), lane.end());
      }
      const netlist::Netlist& nl = offline.instrumented.netlist;
      const map::MappedNetlist& mn = offline.mapping.netlist;
      std::vector<std::string> netlist_order, mapped_order;
      for (const auto p : nl.params()) netlist_order.push_back(nl.name(p));
      for (const auto p : mn.params()) mapped_order.push_back(mn.cell(p).name);
      EXPECT_EQ(netlist_order, order) << where;
      EXPECT_EQ(mapped_order, order) << where;
      ASSERT_TRUE(offline.pconf);
      EXPECT_EQ(offline.pconf->param_names(), order) << where;

      DebugSession session(offline);
      const std::string sig = offline.instrumented.lane_signals[1].back();
      const auto report = session.observe({sig});
      EXPECT_NE(std::find(report.observed.begin(), report.observed.end(), sig),
                report.observed.end())
          << where;
    }
  }
}

TEST(Session, PermutedLaneParamsThrow) {
  // Two lanes' parameter lists swapped: the names no longer line up with
  // the netlists' params(), with or without a PConf.
  for (const bool pnr : {true, false}) {
    OfflineOptions options = small_options();
    options.run_pnr = pnr;
    auto offline = run_offline(small_user(13), options);
    EXPECT_NO_THROW(DebugSession{offline});
    auto& lane_params = offline.instrumented.lane_params;
    ASSERT_GE(lane_params.size(), 2u);
    std::swap(lane_params[0], lane_params[1]);
    EXPECT_THROW(DebugSession{offline}, Error) << "run_pnr " << pnr;
  }
  // A PConf whose parameters come in another order than the netlists'.
  auto offline = run_offline(small_user(13), small_options());
  std::vector<std::string> names = offline.pconf->param_names();
  std::swap(names.front(), names.back());
  offline.pconf = std::make_unique<bitstream::PConf>(
      offline.pconf->total_bits(), std::move(names));
  EXPECT_THROW(DebugSession{offline}, Error);
}

TEST(Session, ReobservationWithoutRecompile) {
  const auto offline = run_offline(small_user(6), small_options());
  DebugSession session(offline);
  const auto& inst = offline.instrumented;
  // Many debugging turns: each must cost frames + microseconds, never a
  // recompile.  Cross-check cumulative accounting, and every turn's frame
  // and bit counts against a diff of two full specializations.
  const auto& lanes = inst.lane_signals;
  auto prev_asg = inst.select_signals({});
  double eval = 0.0, reconf = 0.0;
  for (int turn = 0; turn < 8; ++turn) {
    std::vector<std::string> signals;
    if (turn % 2 == 0) {
      const auto& lane = lanes[static_cast<std::size_t>(turn) % lanes.size()];
      signals.push_back(lane[static_cast<std::size_t>(turn) % lane.size()]);
    } else {
      // Dense: a fresh signal on every lane that can take one.
      for (std::size_t l = 0; l < lanes.size(); ++l) {
        auto trial = signals;
        trial.push_back(lanes[l][(static_cast<std::size_t>(turn) + l) %
                                 lanes[l].size()]);
        if (inst.try_select_signals(trial).ok()) signals = std::move(trial);
      }
      EXPECT_GT(signals.size(), 1u) << "dense turn " << turn;
    }
    const auto rep = session.observe(signals);
    eval += rep.scg_eval_seconds;
    reconf += rep.reconfig_seconds;
    EXPECT_LT(rep.frames_reconfigured,
              offline.pconf->total_bits() / arch::FrameGeometry::kFrameBits)
        << "turn must be partial, not full";
    const auto asg = inst.select_signals(signals);
    const auto before = offline.pconf->specialize(prev_asg);
    const auto after = offline.pconf->specialize(asg);
    EXPECT_EQ(rep.frames_reconfigured,
              before.memory.changed_frames(after.memory).size())
        << "turn " << turn;
    EXPECT_EQ(rep.bits_changed, before.memory.bit_distance(after.memory))
        << "turn " << turn;
    prev_asg = asg;
  }
  const auto summary = session.summary();
  EXPECT_EQ(summary.turns, 9u);  // constructor turn + 8
  EXPECT_NEAR(summary.total_eval_seconds + summary.total_reconfig_seconds,
              eval + reconf, 1.0)
      << "summary accounting drifted";
  EXPECT_GT(summary.conventional_recompile_seconds,
            summary.total_eval_seconds);
}

TEST(Session, TriggerStopsRun) {
  const auto offline = run_offline(small_user(7), small_options());
  DebugSession session(offline);
  session.observe({});
  session.reset();
  Rng rng(77);
  // Trigger on lane 0 high with 3 post-trigger samples.
  std::string cond(session.num_lanes(), 'x');
  cond[0] = '1';
  sim::Trigger trigger(cond, 3);
  const auto [cycles, fired] = session.run(
      trigger,
      [&](std::uint64_t) {
        std::vector<bool> in;
        for (std::size_t i = 0;
             i < offline.instrumented.netlist.inputs().size(); ++i) {
          in.push_back(rng.next_bool());
        }
        return in;
      },
      500);
  if (fired) {
    EXPECT_LE(cycles, 500u);
    EXPECT_GE(session.trace().samples_stored(), 1u);
  }
}

TEST(Session, BugLocalizationRoundTrip) {
  // Inject an inversion into one gate of the user circuit, run the full
  // offline flow on the buggy design, then use debugging turns to find a
  // signal whose observed trace diverges from the golden model — the
  // paper's end-to-end use case.
  const Netlist golden_nl = small_user(8);
  Netlist buggy = golden_nl;  // value copy
  // Flip one mid-circuit gate's function.
  netlist::NodeId victim = netlist::kNullNode;
  for (netlist::NodeId id : buggy.topo_order()) {
    if (buggy.name(id) == "g20") victim = id;
  }
  ASSERT_NE(victim, netlist::kNullNode);
  buggy.rewrite_logic(victim, buggy.fanins(victim), ~buggy.function(victim));

  const auto offline = run_offline(buggy, small_options());
  DebugSession session(offline);
  sim::NetlistSimulator golden(golden_nl);

  // Sweep all observable signals lane-window by lane-window and find
  // mismatching signals; the earliest (topologically) mismatching signal
  // should be the victim itself.
  std::vector<std::string> mismatching;
  const auto& lanes = offline.instrumented.lane_signals;
  std::size_t max_index = 0;
  for (const auto& lane : lanes) max_index = std::max(max_index, lane.size());

  for (std::size_t index = 0; index < max_index; ++index) {
    std::vector<std::string> window;
    for (const auto& lane : lanes) {
      if (index < lane.size()) window.push_back(lane[index]);
    }
    // Signals may repeat across lanes (replication); dedupe.
    std::sort(window.begin(), window.end());
    window.erase(std::unique(window.begin(), window.end()), window.end());
    // Greedy: observe as many of the window as matching allows.
    std::vector<std::string> selected;
    for (const auto& s : window) {
      std::vector<std::string> trial = selected;
      trial.push_back(s);
      try {
        (void)offline.instrumented.select_signals(trial);
        selected = std::move(trial);
      } catch (const Error&) {
        // lane conflict: postpone to a later window
      }
    }
    if (selected.empty()) continue;
    const auto rep = session.observe(selected);
    session.reset();
    golden.reset();
    Rng rng(99);  // same stimulus every window
    for (int cycle = 0; cycle < 32; ++cycle) {
      std::vector<bool> inputs;
      for (std::size_t i = 0; i < golden_nl.inputs().size(); ++i) {
        inputs.push_back(rng.next_bool());
      }
      golden.set_inputs(inputs);
      golden.eval();
      const BitVec& sample = session.step(inputs);
      for (std::size_t lane = 0; lane < session.num_lanes(); ++lane) {
        const std::string& name = rep.observed[lane];
        const auto id = golden_nl.find(name);
        if (!id) continue;
        if (sample.get(lane) != golden.value(*id)) {
          mismatching.push_back(name);
        }
      }
      golden.step();
    }
  }
  std::sort(mismatching.begin(), mismatching.end());
  mismatching.erase(std::unique(mismatching.begin(), mismatching.end()),
                    mismatching.end());
  // The buggy gate must be exposed.
  EXPECT_NE(std::find(mismatching.begin(), mismatching.end(), "g20"),
            mismatching.end())
      << "bug not observable through the debug infrastructure";
}

}  // namespace
}  // namespace fpgadbg::debug
