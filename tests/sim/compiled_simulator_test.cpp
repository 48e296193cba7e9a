// Randomized differential tests pinning the compiled engine to the
// NetlistSimulator oracle: for every random netlist, stimulus stream, latch
// init and injected fault, CompiledSimulator must agree bit-for-bit with it
// (one oracle per lane in word mode), in both full-sweep and event-driven
// mode.
#include "sim/compiled_simulator.h"

#include <gtest/gtest.h>

#include <functional>
#include <set>

#include "genbench/genbench.h"
#include "map/mappers.h"
#include "sim/equivalence.h"
#include "sim/mapped_simulator.h"
#include "sim/simulator.h"
#include "support/error.h"
#include "support/rng.h"
#include "support/telemetry.h"

namespace fpgadbg::sim {
namespace {

using netlist::kNullNode;
using netlist::Netlist;
using netlist::NodeId;

/// Runs `cycles` random-stimulus cycles comparing every output of the
/// compiled engine (scalar broadcast mode) against the interpreter.
void expect_matches_scalar(const Netlist& nl, CompiledSimulator& comp,
                           NetlistSimulator& ref, int cycles,
                           std::uint64_t seed) {
  Rng rng(seed);
  for (int cycle = 0; cycle < cycles; ++cycle) {
    if (cycle % 8 == 0) {
      for (NodeId p : nl.params()) {
        const bool bit = rng.next_bool();
        comp.set_param(p, bit);
        ref.set_param(p, bit);
      }
    }
    for (NodeId in : nl.inputs()) {
      const bool bit = rng.next_bool();
      comp.set_input(in, bit);
      ref.set_input(in, bit);
    }
    comp.eval();
    ref.eval();
    for (std::size_t o = 0; o < nl.outputs().size(); ++o) {
      ASSERT_EQ(comp.output(o), ref.output(o))
          << "cycle " << cycle << " output " << o;
    }
    comp.step();
    ref.step();
  }
}

TEST(CompiledSimulator, MatchesInterpreterOnRandomNetlists) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    genbench::CircuitSpec spec{"cmp", 10, 8, 7, 120, 6, 5, seed * 97};
    const Netlist nl = genbench::generate(spec);
    NetlistSimulator ref(nl);
    CompiledSimulator comp(nl);
    expect_matches_scalar(nl, comp, ref, 40, seed);
  }
}

TEST(CompiledSimulator, EventDrivenMatchesFullSweep) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    genbench::CircuitSpec spec{"evt", 12, 8, 9, 150, 6, 6, seed * 131};
    const Netlist nl = genbench::generate(spec);
    NetlistSimulator ref(nl);
    CompiledSimulator comp(nl, CompiledSimOptions{.event_driven = true});
    expect_matches_scalar(nl, comp, ref, 50, seed + 7);
  }
}

TEST(CompiledSimulator, EventDrivenSkipsStableCones) {
  // Re-evaluating without input changes must still produce correct values.
  genbench::CircuitSpec spec{"stable", 8, 6, 5, 80, 5, 4, 17};
  const Netlist nl = genbench::generate(spec);
  NetlistSimulator ref(nl);
  CompiledSimulator comp(nl, CompiledSimOptions{.event_driven = true});
  Rng rng(3);
  for (NodeId in : nl.inputs()) {
    const bool bit = rng.next_bool();
    comp.set_input(in, bit);
    ref.set_input(in, bit);
  }
  comp.eval();
  ref.eval();
  for (int repeat = 0; repeat < 3; ++repeat) {
    comp.eval();  // nothing dirty: pure skip sweep
    for (std::size_t o = 0; o < nl.outputs().size(); ++o) {
      EXPECT_EQ(comp.output(o), ref.output(o)) << "repeat " << repeat;
    }
  }
  // Toggle a single input; only its cone re-evaluates, results still match.
  const NodeId first = nl.inputs().front();
  comp.set_input(first, !comp.value(first));
  ref.set_input(first, !ref.value(first));
  comp.eval();
  ref.eval();
  for (std::size_t o = 0; o < nl.outputs().size(); ++o) {
    EXPECT_EQ(comp.output(o), ref.output(o));
  }
}

TEST(CompiledSimulator, WordModeMatchesParallelSimulator) {
  // Every lane is checked against a NetlistSimulator fed that lane's stream.
  // The name is kept so the test's id stays stable.  A parameter gate joins
  // each design, so parameter words are checked lane by lane as well.
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    genbench::CircuitSpec spec{"word", 10, 8, 6, 120, 6, 5, seed * 211};
    Netlist nl = genbench::generate(spec);
    const NodeId param = nl.add_param("p");
    nl.add_output(
        nl.add_logic("pf", {nl.inputs().front(), param}, logic::tt_xor(2)),
        "po");
    CompiledSimulator comp(nl);
    std::vector<NetlistSimulator> lanes;
    lanes.reserve(CompiledSimulator::kLanes);
    for (std::size_t l = 0; l < CompiledSimulator::kLanes; ++l) {
      lanes.emplace_back(nl);
    }
    Rng rng(seed);
    for (int cycle = 0; cycle < 25; ++cycle) {
      for (NodeId p : nl.params()) {
        const std::uint64_t w = rng.next_u64();
        comp.set_param_word(p, w);
        for (std::size_t l = 0; l < lanes.size(); ++l) {
          lanes[l].set_param(p, (w >> l) & 1);
        }
      }
      for (NodeId in : nl.inputs()) {
        const std::uint64_t w = rng.next_u64();
        comp.set_input_word(in, w);
        for (std::size_t l = 0; l < lanes.size(); ++l) {
          lanes[l].set_input(in, (w >> l) & 1);
        }
      }
      comp.eval();
      for (std::size_t l = 0; l < lanes.size(); ++l) {
        lanes[l].eval();
        for (std::size_t o = 0; o < nl.outputs().size(); ++o) {
          ASSERT_EQ(comp.value(nl.outputs()[o], l), lanes[l].output(o))
              << "cycle " << cycle << " lane " << l << " output " << o;
        }
        lanes[l].step();
      }
      comp.step();
    }
    EXPECT_THROW(comp.set_param_word(nl.inputs().front(), 0), Error);
    EXPECT_THROW(comp.set_input_word(param, 0), Error);
  }
}

TEST(CompiledSimulator, BroadcastLoopMatchesOracleAtEveryArity) {
  // The broadcast loop widens every op to six fanins; one random function
  // per arity 0..6, all over the same inputs, checked at every input
  // combination, pins the padding and the replicated masks.
  Rng rng(41);
  Netlist nl;
  std::vector<NodeId> ins;
  for (int i = 0; i < 6; ++i) {
    ins.push_back(nl.add_input("i" + std::to_string(i)));
  }
  for (int arity = 0; arity <= 6; ++arity) {
    const std::vector<NodeId> fanins(ins.begin(), ins.begin() + arity);
    const NodeId x = nl.add_logic(
        "f" + std::to_string(arity), fanins,
        logic::TruthTable::from_bits(rng.next_u64(), arity));
    nl.add_output(x, "o" + std::to_string(arity));
  }
  CompiledSimulator comp(nl);
  std::set<std::uint32_t> arities;
  for (const SimOp& op : comp.program().ops) arities.insert(op.fanin_count);
  EXPECT_EQ(arities, (std::set<std::uint32_t>{0, 1, 2, 3, 4, 5, 6}));
  NetlistSimulator ref(nl);
  for (std::uint32_t combo = 0; combo < 64; ++combo) {
    for (int i = 0; i < 6; ++i) {
      comp.set_input(ins[i], (combo >> i) & 1);
      ref.set_input(ins[i], (combo >> i) & 1);
    }
    comp.eval();
    ref.eval();
    for (std::size_t o = 0; o < nl.outputs().size(); ++o) {
      ASSERT_EQ(comp.output(o), ref.output(o))
          << "inputs " << combo << " arity " << o;
      ASSERT_EQ(comp.output_word(o), comp.output(o) ? ~0ULL : 0ULL);
    }
  }
}

TEST(CompiledSimulator, WideFaninLowersToCascade) {
  // 8- and 10-input functions exceed the 6-bit mask words and must be
  // Shannon-split into LUT6 cascades; parity is the worst case (no don't
  // cares anywhere).
  for (int arity : {7, 8, 10}) {
    Netlist nl;
    std::vector<NodeId> ins;
    for (int i = 0; i < arity; ++i) {
      ins.push_back(nl.add_input("i" + std::to_string(i)));
    }
    const NodeId x = nl.add_logic("x", ins, logic::tt_xor(arity));
    nl.add_output(x, "o");
    CompiledSimulator comp(nl);
    EXPECT_GT(comp.program().ops.size(), 1u) << "arity " << arity;
    NetlistSimulator ref(nl);
    expect_matches_scalar(nl, comp, ref, 30, static_cast<std::uint64_t>(arity));
  }
}

TEST(CompiledSimulator, LatchInitValues) {
  // init 0 => 0, init 1 => 1, init 2/3 (don't care / unknown) reset to 0,
  // matching NetlistSimulator::reset().  A toggling latch and two constant
  // nodes ride along: every lane must agree through a clock and a reset.
  Netlist nl;
  std::vector<NodeId> qs;
  for (int init = 0; init < 4; ++init) {
    const NodeId q =
        nl.add_latch("q" + std::to_string(init), kNullNode, init);
    qs.push_back(q);
    nl.add_output(q, "o" + std::to_string(init));
  }
  for (int i = 0; i < 4; ++i) nl.set_latch_input(i, qs[i]);  // hold
  const NodeId t = nl.add_latch("t", kNullNode, 1);
  nl.set_latch_input(4, nl.add_logic("nt", {t}, ~logic::TruthTable::var(1, 0)));
  nl.add_output(t, "ot");
  nl.add_output(nl.add_logic("k1", {}, logic::TruthTable::one(0)), "o1");
  nl.add_output(nl.add_logic("k0", {}, logic::TruthTable::zero(0)), "o0");
  NetlistSimulator ref(nl);
  CompiledSimulator comp(nl);
  auto expect_agree = [&](bool toggle, const char* when) {
    ref.eval();
    comp.eval();
    for (std::size_t o = 0; o < nl.outputs().size(); ++o) {
      EXPECT_EQ(comp.output(o), ref.output(o)) << when << " output " << o;
      EXPECT_EQ(comp.output_word(o), comp.output(o) ? ~0ULL : 0ULL)
          << when << " output " << o;
    }
    EXPECT_EQ(comp.output(4), toggle) << when;
    EXPECT_TRUE(comp.output(5)) << when;
    EXPECT_FALSE(comp.output(6)) << when;
  };
  expect_agree(true, "at reset");
  ref.step();
  comp.step();
  expect_agree(false, "after one clock");
  ref.reset();
  comp.reset();
  expect_agree(true, "after reset");
}

TEST(CompiledSimulator, FaultDifferential) {
  genbench::CircuitSpec spec{"flt", 10, 8, 6, 100, 5, 5, 404};
  const Netlist nl = genbench::generate(spec);
  Rng pick(9);
  const auto& logic_nodes = nl.topo_order();
  for (FaultType type : {FaultType::kStuckAt0, FaultType::kStuckAt1,
                         FaultType::kInvert, FaultType::kFlipOnCycle}) {
    const NodeId victim =
        logic_nodes[pick.next_u64() % logic_nodes.size()];
    Fault fault{victim, type, /*cycle=*/5};
    NetlistSimulator ref(nl);
    CompiledSimulator comp(nl);
    ref.inject_fault(fault);
    comp.inject_fault(fault);
    // 12 cycles crosses the kFlipOnCycle trigger cycle on both sides.
    expect_matches_scalar(nl, comp, ref, 12,
                          static_cast<std::uint64_t>(type) + 21);
    ref.clear_faults();
    comp.clear_faults();
    expect_matches_scalar(nl, comp, ref, 6,
                          static_cast<std::uint64_t>(type) + 50);
  }
}

TEST(CompiledSimulator, FaultDifferentialEventDriven) {
  // Event-driven mode must keep re-evaluating faulted cones even when their
  // fanins are stable (a kFlipOnCycle changes value with no input edge).
  genbench::CircuitSpec spec{"fltev", 8, 6, 5, 80, 5, 4, 505};
  const Netlist nl = genbench::generate(spec);
  const NodeId victim = nl.topo_order()[nl.topo_order().size() / 2];
  for (FaultType type : {FaultType::kInvert, FaultType::kFlipOnCycle}) {
    Fault fault{victim, type, /*cycle=*/3};
    NetlistSimulator ref(nl);
    CompiledSimulator comp(nl, CompiledSimOptions{.event_driven = true});
    ref.inject_fault(fault);
    comp.inject_fault(fault);
    expect_matches_scalar(nl, comp, ref, 10,
                          static_cast<std::uint64_t>(type) + 77);
  }
}

TEST(CompiledSimulator, SnapshotRestoreReplays) {
  genbench::CircuitSpec spec{"snap", 8, 6, 8, 90, 5, 4, 606};
  const Netlist nl = genbench::generate(spec);
  CompiledSimulator comp(nl);
  Rng rng(11);
  std::vector<std::vector<std::uint64_t>> stimulus;
  for (int cycle = 0; cycle < 10; ++cycle) {
    auto& words = stimulus.emplace_back();
    for (NodeId in : nl.inputs()) {
      words.push_back(rng.next_u64());
      comp.set_input_word(in, words.back());
    }
    comp.step();
  }
  const auto snap = comp.snapshot();
  EXPECT_EQ(snap.cycle, 10u);
  // Run ahead, recording outputs.
  std::vector<std::uint64_t> ahead;
  for (int cycle = 0; cycle < 5; ++cycle) {
    for (std::size_t i = 0; i < nl.inputs().size(); ++i) {
      comp.set_input_word(nl.inputs()[i], stimulus[static_cast<std::size_t>(
                                              cycle) % stimulus.size()][i]);
    }
    comp.eval();
    ahead.push_back(comp.output_word(0));
    comp.step();
  }
  // Rewind and replay: identical trajectory.
  comp.restore(snap);
  EXPECT_EQ(comp.cycle(), 10u);
  for (int cycle = 0; cycle < 5; ++cycle) {
    for (std::size_t i = 0; i < nl.inputs().size(); ++i) {
      comp.set_input_word(nl.inputs()[i], stimulus[static_cast<std::size_t>(
                                              cycle) % stimulus.size()][i]);
    }
    comp.eval();
    EXPECT_EQ(comp.output_word(0), ahead[static_cast<std::size_t>(cycle)]);
    comp.step();
  }
}

TEST(CompiledSimulator, MappedBackendsAgree) {
  genbench::CircuitSpec spec{"mapdiff", 10, 8, 6, 110, 6, 5, 707};
  const Netlist nl = genbench::generate(spec);
  const auto mapped = map::simple_map(nl, 4).netlist;
  MappedSimulator interp(mapped, SimBackend::kInterpreted);
  MappedSimulator comp(mapped, SimBackend::kCompiled);
  Rng rng(13);
  for (int cycle = 0; cycle < 30; ++cycle) {
    if (cycle % 8 == 0) {
      for (map::CellId p : mapped.params()) {
        const bool bit = rng.next_bool();
        interp.set_param(p, bit);
        comp.set_param(p, bit);
      }
    }
    for (map::CellId in : mapped.inputs()) {
      const bool bit = rng.next_bool();
      interp.set_input(in, bit);
      comp.set_input(in, bit);
    }
    interp.eval();
    comp.eval();
    for (std::size_t o = 0; o < mapped.outputs().size(); ++o) {
      ASSERT_EQ(comp.output(o), interp.output(o))
          << "cycle " << cycle << " output " << o;
    }
    interp.step();
    comp.step();
  }
  // Snapshots transfer between backends (both store per-latch booleans).
  const auto snap = comp.snapshot();
  interp.restore(snap);
  interp.eval();
  comp.eval();
  for (std::size_t o = 0; o < mapped.outputs().size(); ++o) {
    EXPECT_EQ(comp.output(o), interp.output(o));
  }
}

TEST(CompiledSimulator, EquivalenceBackendsAgree) {
  genbench::CircuitSpec spec{"eqv", 10, 8, 6, 100, 6, 5, 808};
  const Netlist nl = genbench::generate(spec);
  const auto mapped = map::simple_map(nl, 4).netlist;
  Rng r1(21), r2(21);
  const auto compiled =
      check_equivalence(nl, mapped, 256, r1, SimBackend::kCompiled);
  const auto interp =
      check_equivalence(nl, mapped, 256, r2, SimBackend::kInterpreted);
  EXPECT_TRUE(compiled.equivalent) << compiled.first_mismatch;
  EXPECT_TRUE(interp.equivalent) << interp.first_mismatch;
  EXPECT_GE(compiled.vectors_checked, 256u);
}

TEST(CompiledSimulator, FaultOnSourceIsNoOp) {
  // The oracle only applies faults while walking logic nodes, so a fault on
  // an input is silently inert; the compiled engine mirrors that contract.
  Netlist nl;
  const NodeId a = nl.add_input("a");
  const NodeId b = nl.add_input("b");
  const NodeId f = nl.add_logic("f", {a, b}, logic::tt_xor(2));
  nl.add_output(f, "o");
  NetlistSimulator ref(nl);
  CompiledSimulator comp(nl);
  ref.inject_fault({a, FaultType::kStuckAt1, 0});
  comp.inject_fault({a, FaultType::kStuckAt1, 0});
  for (bool va : {false, true}) {
    for (bool vb : {false, true}) {
      ref.set_input(a, va);
      ref.set_input(b, vb);
      comp.set_input(a, va);
      comp.set_input(b, vb);
      ref.eval();
      comp.eval();
      EXPECT_EQ(comp.output(0), ref.output(0)) << va << vb;
      EXPECT_EQ(comp.output(0), va != vb);
    }
  }
}

TEST(CompiledSimulator, RestoreRejectsWrongSnapshotShape) {
  // Snapshots carry a version and lane width; restoring one taken from an
  // incompatible engine (or a corrupted blob) must fail loudly instead of
  // silently loading garbage latch state.
  genbench::CircuitSpec spec{"snapv", 8, 6, 6, 70, 5, 4, 909};
  const Netlist nl = genbench::generate(spec);
  CompiledSimulator comp(nl);
  comp.step();
  const auto good = comp.snapshot();
  EXPECT_EQ(good.version, CompiledSimulator::kSnapshotVersion);
  EXPECT_EQ(good.lanes, 64u);
  {
    auto bad = good;
    bad.version = 7;
    EXPECT_THROW(comp.restore(bad), Error);
  }
  {
    auto bad = good;
    bad.lanes = 32;
    EXPECT_THROW(comp.restore(bad), Error);
  }
  {
    auto bad = good;
    bad.latch_words.push_back(0);
    EXPECT_THROW(comp.restore(bad), Error);
  }
  comp.restore(good);
  EXPECT_EQ(comp.cycle(), 1u);
}

TEST(CompiledSimulator, RejectsOutOfRangeFault) {
  Netlist nl;
  const NodeId a = nl.add_input("a");
  nl.add_output(a, "o");
  CompiledSimulator comp(nl);
  EXPECT_THROW(comp.inject_fault({static_cast<NodeId>(1000),
                                  FaultType::kInvert, 0}),
               Error);
  // Stimulus for node ids past the design fails the same way instead of
  // indexing off the end of the value arrays.
  EXPECT_THROW(comp.set_input_word(static_cast<NodeId>(1000), 0), Error);
  EXPECT_THROW(comp.set_param_word(static_cast<NodeId>(1000), 0), Error);
}

TEST(CompiledSimulator, StepAfterEvalSweepsOnce) {
  // step() clocks what eval() computed: a cycle of eval(); step() costs one
  // sweep, and a step() with no eval() before it still sweeps once.
  genbench::CircuitSpec spec{"once", 10, 8, 6, 120, 6, 5, 1001};
  const Netlist nl = genbench::generate(spec);
  CompiledSimulator comp(nl);
  const telemetry::Counter& evals = telemetry::metrics().counter("sim.evals");
  Rng rng(5);
  std::vector<bool> inputs(nl.inputs().size());
  const std::uint64_t before = evals.value();
  for (int cycle = 0; cycle < 32; ++cycle) {
    for (std::size_t i = 0; i < inputs.size(); ++i) inputs[i] = rng.next_bool();
    comp.set_inputs(inputs);
    comp.eval();
    comp.step();
  }
  EXPECT_EQ(evals.value() - before, 32u);
  comp.step();
  EXPECT_EQ(evals.value() - before, 33u);
}

/// o = q' = a ^ p ^ q: every mutation below changes the latch's next state.
Netlist toggle_design() {
  Netlist nl;
  const NodeId a = nl.add_input("a");
  const NodeId p = nl.add_param("p");
  const NodeId q = nl.add_latch("q", kNullNode, 0);
  const NodeId ap = nl.add_logic("ap", {a, p}, logic::tt_xor(2));
  const NodeId x = nl.add_logic("x", {ap, q}, logic::tt_xor(2));
  nl.set_latch_input(0, x);
  nl.add_output(x, "o");
  return nl;
}

std::vector<std::uint64_t> latch_state(const CompiledSimulator& sim) {
  return sim.snapshot().latch_words;
}
std::vector<std::uint8_t> latch_state(const MappedSimulator& sim) {
  return sim.snapshot().latch_state;
}
std::vector<std::uint64_t> output_state(const CompiledSimulator& sim) {
  std::vector<std::uint64_t> out;
  for (std::size_t o = 0; o < sim.program().outputs.size(); ++o) {
    out.push_back(sim.output_word(o));
  }
  return out;
}
std::vector<bool> output_state(const MappedSimulator& sim) {
  return sim.output_values();
}

/// `make` returns an engine with a = 1, p = 0 and q = 1, so x = 0.  Applies
/// `mutate` between eval() and step() on one engine, and before a lone
/// step() on a twin; then both eval() once more and must agree.  A third
/// engine clocks without the mutation: it must end elsewhere, or the case
/// could not show a missed invalidation.
template <typename Sim>
void expect_step_reevaluates(const std::function<Sim()>& make,
                             const std::function<void(Sim&)>& mutate,
                             const std::string& what) {
  Sim early = make();
  early.eval();
  mutate(early);
  early.step();
  early.eval();
  Sim twin = make();
  mutate(twin);
  twin.step();
  twin.eval();
  Sim unmutated = make();
  unmutated.eval();
  unmutated.step();
  EXPECT_EQ(latch_state(early), latch_state(twin)) << what;
  EXPECT_EQ(output_state(early), output_state(twin)) << what;
  EXPECT_NE(latch_state(unmutated), latch_state(twin))
      << what << ": the mutation does not reach the latch";
}

TEST(CompiledSimulator, StepAfterMutationReevaluates) {
  const Netlist nl = toggle_design();
  const NodeId a = nl.inputs()[0];
  const NodeId p = nl.params()[0];
  const NodeId x = *nl.find("x");
  const CompiledSimulator::Snapshot at_reset = CompiledSimulator(nl).snapshot();
  using Mutate = std::function<void(CompiledSimulator&)>;
  const Mutate none = [](CompiledSimulator&) {};
  const Mutate invert_x = [&](CompiledSimulator& s) {
    s.inject_fault({x, FaultType::kInvert, 0});
  };
  struct Case {
    std::string name;
    Mutate setup;   ///< before the early eval()
    Mutate mutate;  ///< between eval() and step()
  };
  const std::vector<Case> cases = {
      {"set_input", none, [&](auto& s) { s.set_input(a, false); }},
      {"set_param", none, [&](auto& s) { s.set_param(p, true); }},
      {"set_input_word mixed", none,
       [&](auto& s) { s.set_input_word(a, 0xffffffffULL); }},
      {"inject_fault", none, invert_x},
      {"clear_faults", invert_x, [](auto& s) { s.clear_faults(); }},
      {"restore", none, [&](auto& s) { s.restore(at_reset); }},
      {"reset", none, [](auto& s) { s.reset(); }}};
  for (bool event : {false, true}) {
    for (const Case& c : cases) {
      const std::function<CompiledSimulator()> make = [&] {
        CompiledSimulator sim(nl, CompiledSimOptions{.event_driven = event});
        sim.set_input(a, true);
        sim.step();
        c.setup(sim);
        return sim;
      };
      expect_step_reevaluates<CompiledSimulator>(
          make, c.mutate, c.name + (event ? " (event-driven)" : " (full)"));
    }
  }
  // The same contract through MappedSimulator's compiled backend (its
  // interpreter always sweeps in step()).
  const auto mapped = map::simple_map(nl, 4).netlist;
  const map::CellId ma = *mapped.find("a");
  const map::CellId mp = mapped.params()[0];
  const MappedSimulator::Snapshot mapped_at_reset =
      MappedSimulator(mapped, SimBackend::kCompiled).snapshot();
  using MappedMutate = std::function<void(MappedSimulator&)>;
  const std::vector<std::pair<std::string, MappedMutate>> mapped_cases = {
      {"set_input", [&](auto& s) { s.set_input(ma, false); }},
      {"set_param", [&](auto& s) { s.set_param(mp, true); }},
      {"restore", [&](auto& s) { s.restore(mapped_at_reset); }},
      {"reset", [](auto& s) { s.reset(); }}};
  const std::function<MappedSimulator()> make = [&] {
    MappedSimulator sim(mapped, SimBackend::kCompiled);
    sim.set_input(ma, true);
    sim.step();
    return sim;
  };
  for (const auto& [name, mutate] : mapped_cases) {
    expect_step_reevaluates<MappedSimulator>(make, mutate,
                                             name + " (MappedSimulator)");
  }
}

}  // namespace
}  // namespace fpgadbg::sim
