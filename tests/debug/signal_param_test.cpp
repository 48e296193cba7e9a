#include "debug/signal_param.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "genbench/genbench.h"
#include "sim/simulator.h"
#include "support/error.h"
#include "support/rng.h"

namespace fpgadbg::debug {
namespace {

using netlist::Netlist;
using netlist::NodeId;
using netlist::NodeKind;

Netlist user_circuit(std::uint64_t seed, std::size_t gates = 50) {
  genbench::CircuitSpec spec{"u" + std::to_string(seed), 10, 8, 6, gates, 4, 5,
                             seed};
  return genbench::generate(spec);
}

TEST(SignalParam, ObservesAllSignals) {
  const Netlist nl = user_circuit(1);
  const Instrumented inst = parameterize_signals(nl, {});
  // Every logic node and latch output is observable somewhere.
  for (NodeId id = 0; id < nl.num_nodes(); ++id) {
    const NodeKind k = nl.kind(id);
    if (k != NodeKind::kLogic && k != NodeKind::kLatchOut) continue;
    const auto [lane, index] = inst.locate(nl.name(id));
    EXPECT_NE(lane, static_cast<std::size_t>(-1)) << nl.name(id);
  }
  EXPECT_EQ(inst.trace_outputs.size(), inst.lane_signals.size());
}

TEST(SignalParam, UserCircuitUnchanged) {
  const Netlist nl = user_circuit(2);
  const Instrumented inst = parameterize_signals(nl, {});
  // All original nodes exist with identical functions.
  for (NodeId id = 0; id < nl.num_nodes(); ++id) {
    const auto other = inst.netlist.find(nl.name(id));
    ASSERT_TRUE(other.has_value()) << nl.name(id);
    if (nl.kind(id) == NodeKind::kLogic) {
      EXPECT_EQ(inst.netlist.function(*other), nl.function(id));
    }
  }
  // Original outputs preserved, trace outputs appended.
  EXPECT_EQ(inst.netlist.outputs().size(),
            nl.outputs().size() + inst.trace_outputs.size());
}

TEST(SignalParam, OnlySelectsAreParams) {
  const Netlist nl = user_circuit(3);
  const Instrumented inst = parameterize_signals(nl, {});
  std::size_t expected = 0;
  for (const auto& lane : inst.lane_params) expected += lane.size();
  EXPECT_EQ(inst.netlist.params().size(), expected);
  EXPECT_GT(expected, 0u);
}

TEST(SignalParam, ReplicationPlacesSignalInDistinctLanes) {
  const Netlist nl = user_circuit(4);
  InstrumentOptions opt;
  opt.trace_width = 8;
  opt.replication = 3;
  const Instrumented inst = parameterize_signals(nl, opt);
  const std::string some_signal = nl.name(nl.topo_order().front());
  const auto placements = inst.locate_all(some_signal);
  EXPECT_EQ(placements.size(), 3u);
  std::set<std::size_t> lanes;
  for (const auto& [lane, idx] : placements) lanes.insert(lane);
  EXPECT_EQ(lanes.size(), 3u);
}

TEST(SignalParam, SelectedSignalAppearsOnTraceOutput) {
  const Netlist nl = user_circuit(5);
  InstrumentOptions opt;
  opt.trace_width = 4;
  const Instrumented inst = parameterize_signals(nl, opt);

  // Pick three observable signals and route them to lanes.
  std::vector<std::string> want;
  for (NodeId id : nl.topo_order()) {
    want.push_back(nl.name(id));
    if (want.size() == 3) break;
  }
  const auto params = inst.select_signals(want);
  const auto observed = inst.observed_under(params);

  // Resolve each trace output name to its driving node.
  std::vector<NodeId> trace_nodes(inst.trace_outputs.size());
  for (std::size_t l = 0; l < inst.trace_outputs.size(); ++l) {
    const auto& names = inst.netlist.output_names();
    const auto it =
        std::find(names.begin(), names.end(), inst.trace_outputs[l]);
    ASSERT_NE(it, names.end());
    trace_nodes[l] =
        inst.netlist.outputs()[static_cast<std::size_t>(it - names.begin())];
  }

  sim::NetlistSimulator s(inst.netlist);
  for (const auto& [name, value] : params) {
    s.set_param(*inst.netlist.find(name), value);
  }
  Rng rng(55);
  for (int vec = 0; vec < 50; ++vec) {
    for (NodeId in : inst.netlist.inputs()) {
      s.set_input(in, rng.next_bool());
    }
    s.eval();
    // Every lane's trace output equals the signal observed_under says.
    for (std::size_t l = 0; l < inst.trace_outputs.size(); ++l) {
      const bool lane_value = s.value(trace_nodes[l]);
      const auto sig = inst.netlist.find(observed[l]);
      ASSERT_TRUE(sig.has_value()) << observed[l];
      EXPECT_EQ(lane_value, s.value(*sig))
          << "lane " << l << " cycle " << vec << " shows wrong signal";
    }
    s.step();
  }
  // All requested signals are among the observed.
  for (const std::string& w : want) {
    EXPECT_NE(std::find(observed.begin(), observed.end(), w), observed.end());
  }
}

TEST(SignalParam, MatchingResolvesLaneConflicts) {
  const Netlist nl = user_circuit(6, 40);
  InstrumentOptions opt;
  opt.trace_width = 4;
  opt.replication = 2;
  const Instrumented inst = parameterize_signals(nl, opt);
  // Request as many signals as lanes; with replication 2 a conflict-free
  // matching should exist for most subsets.
  std::vector<std::string> want;
  for (NodeId id : nl.topo_order()) {
    want.push_back(nl.name(id));
    if (want.size() == 4) break;
  }
  const auto params = inst.select_signals(want);
  const auto observed = inst.observed_under(params);
  for (const std::string& w : want) {
    EXPECT_NE(std::find(observed.begin(), observed.end(), w), observed.end())
        << w;
  }
}

/// A signal's placements as a scan of every lane finds them.
Instrumented::Placements scan_placements(const Instrumented& inst,
                                         const std::string& signal) {
  Instrumented::Placements found;
  for (std::size_t l = 0; l < inst.lane_signals.size(); ++l) {
    const auto& lane = inst.lane_signals[l];
    const auto it = std::find(lane.begin(), lane.end(), signal);
    if (it != lane.end()) {
      found.emplace_back(l, static_cast<std::size_t>(it - lane.begin()));
    }
  }
  return found;
}

/// select_signals() over scanned placements: the same Kuhn matching, so
/// the same lanes win only if the placements come in the same order.
std::unordered_map<std::string, bool> scan_select(
    const Instrumented& inst, const std::vector<std::string>& signals) {
  std::vector<Instrumented::Placements> candidates;
  for (const std::string& s : signals) {
    candidates.push_back(scan_placements(inst, s));
  }
  const std::size_t lanes = inst.lane_signals.size();
  std::vector<int> lane_match(lanes, -1);
  std::vector<std::size_t> lane_index(lanes, 0);
  std::vector<bool> visited;
  auto try_assign = [&](auto&& self, std::size_t sig) -> bool {
    for (const auto& [lane, index] : candidates[sig]) {
      if (visited[lane]) continue;
      visited[lane] = true;
      if (lane_match[lane] < 0 ||
          self(self, static_cast<std::size_t>(lane_match[lane]))) {
        lane_match[lane] = static_cast<int>(sig);
        lane_index[lane] = index;
        return true;
      }
    }
    return false;
  };
  for (std::size_t sig = 0; sig < signals.size(); ++sig) {
    visited.assign(lanes, false);
    EXPECT_TRUE(try_assign(try_assign, sig)) << signals[sig];
  }
  std::unordered_map<std::string, bool> assignment;
  for (std::size_t lane = 0; lane < lanes; ++lane) {
    for (std::size_t b = 0; b < inst.lane_params[lane].size(); ++b) {
      assignment[inst.lane_params[lane][b]] =
          lane_match[lane] >= 0 && ((lane_index[lane] >> b) & 1) != 0;
    }
  }
  return assignment;
}

/// Names each value of a select_params() vector by its parameter: the
/// vector runs over lane_params flattened, lane 0 first.
std::unordered_map<std::string, bool> name_params(const Instrumented& inst,
                                                  const BitVec& params) {
  std::unordered_map<std::string, bool> named;
  std::size_t i = 0;
  for (const auto& lane : inst.lane_params) {
    for (const std::string& p : lane) named[p] = params.get(i++);
  }
  EXPECT_EQ(i, params.size());
  return named;
}

TEST(SignalParam, IndexedSelectionMatchesLaneScan) {
  // The placement index answers what a scan of every lane answers, in the
  // same order, so matching picks the same lanes: over a turn plan of dense
  // windows and sparse one-signal swaps, every assignment is unchanged.
  // The bit-vector selection names the same assignment, and both forms of
  // observed_under agree on it.
  InstrumentOptions opt;
  opt.trace_width = 8;
  const Instrumented inst = parameterize_signals(user_circuit(12, 160), opt);
  std::vector<std::string> observable;
  for (const auto& lane : inst.lane_signals) {
    for (const std::string& s : lane) {
      ASSERT_EQ(inst.locate_all(s), scan_placements(inst, s)) << s;
      observable.push_back(s);
    }
  }
  EXPECT_TRUE(inst.locate_all("no_such_signal").empty());
  Rng rng(12);
  std::vector<std::string> current;
  for (std::size_t turn = 0; turn < 96; ++turn) {
    std::vector<std::string> signals = current;
    if (turn % 4 == 0) {
      signals.clear();
      for (const auto& lane : inst.lane_signals) {
        const std::string& s = lane[(turn / 4) % lane.size()];
        auto trial = signals;
        trial.push_back(s);
        if (std::count(signals.begin(), signals.end(), s) == 0 &&
            inst.try_select_signals(trial).ok()) {
          signals = std::move(trial);
        }
      }
    } else if (!current.empty()) {
      for (int draw = 0; draw < 64; ++draw) {
        auto trial = current;
        trial[rng.next_below(trial.size())] =
            observable[rng.next_below(observable.size())];
        if (inst.try_select_signals(trial).ok()) {
          signals = std::move(trial);
          break;
        }
      }
    }
    ASSERT_FALSE(signals.empty());
    const auto named = inst.select_signals(signals);
    EXPECT_EQ(named, scan_select(inst, signals)) << "turn " << turn;
    const BitVec params = inst.select_params(signals);
    EXPECT_EQ(name_params(inst, params), named) << "turn " << turn;
    const auto observed = inst.observed_under(params);
    EXPECT_EQ(observed, inst.observed_under(named)) << "turn " << turn;
    for (const std::string& s : signals) {
      EXPECT_NE(std::find(observed.begin(), observed.end(), s), observed.end())
          << "turn " << turn << ": no lane shows " << s;
    }
    current = std::move(signals);
  }
}

TEST(SignalParam, UnknownSignalThrows) {
  const Netlist nl = user_circuit(7);
  const Instrumented inst = parameterize_signals(nl, {});
  EXPECT_THROW(inst.select_signals({"no_such_signal"}), Error);
}

TEST(SignalParam, MaxObservedCapsSignals) {
  const Netlist nl = user_circuit(8);
  InstrumentOptions opt;
  opt.max_observed = 10;
  opt.replication = 1;
  const Instrumented inst = parameterize_signals(nl, opt);
  EXPECT_EQ(inst.num_observable(), 10u);
}

TEST(SignalParam, Radix4TreesUseFewerMuxNodes) {
  const Netlist nl = user_circuit(9, 120);
  InstrumentOptions opt2;
  opt2.trace_width = 4;
  opt2.replication = 1;
  InstrumentOptions opt4 = opt2;
  opt4.mux_radix = 4;
  const Instrumented r2 = parameterize_signals(nl, opt2);
  const Instrumented r4 = parameterize_signals(nl, opt4);
  const std::size_t muxes2 =
      r2.netlist.num_logic_nodes() - nl.num_logic_nodes();
  const std::size_t muxes4 =
      r4.netlist.num_logic_nodes() - nl.num_logic_nodes();
  EXPECT_LT(muxes4, muxes2);
  // Selection still works at radix 4.
  const std::string sig = nl.name(nl.topo_order()[5]);
  const auto params = r4.select_signals({sig});
  const auto observed = r4.observed_under(params);
  EXPECT_NE(std::find(observed.begin(), observed.end(), sig), observed.end());
}

TEST(SignalParam, RejectsAlreadyParameterized) {
  Netlist nl;
  const NodeId a = nl.add_input("a");
  nl.add_param("p");
  nl.add_output(nl.add_logic("f", {a}, ~logic::TruthTable::var(1, 0)), "o");
  EXPECT_THROW(parameterize_signals(nl, {}), Error);
}

TEST(SignalParam, LatchOutputsObservableByDefault) {
  const Netlist nl = user_circuit(10);
  const Instrumented inst = parameterize_signals(nl, {});
  const auto [lane, index] = inst.locate("lq0");
  EXPECT_NE(lane, static_cast<std::size_t>(-1));
  InstrumentOptions opt;
  opt.observe_latch_outputs = false;
  const Instrumented inst2 = parameterize_signals(nl, opt);
  const auto [lane2, index2] = inst2.locate("lq0");
  EXPECT_EQ(lane2, static_cast<std::size_t>(-1));
}

}  // namespace
}  // namespace fpgadbg::debug
