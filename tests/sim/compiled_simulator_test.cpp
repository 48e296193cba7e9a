// Randomized differential tests pinning the compiled engine to the
// NetlistSimulator oracle: for every random netlist, stimulus stream and
// latch init, CompiledSimulator must agree bit-for-bit with it.  Plus the
// one-sweep-per-cycle contract of step(), the watched cone against the full
// sweep, what a rebinding re-walks, and the checks on stimulus targets and
// snapshots.
#include "sim/compiled_simulator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <optional>
#include <set>

#include "debug/signal_param.h"
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

TEST(CompiledSimulator, BroadcastLoopMatchesOracleAtEveryArity) {
  // The sweep runs one loop per arity over runs of ops of that arity; one
  // random function per arity 0..6, all over the same inputs, checked at
  // every input combination, pins each loop and the runs between them.
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
  // nodes ride along: they must agree through a clock and a reset.
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

TEST(CompiledSimulator, SnapshotRestoreReplays) {
  genbench::CircuitSpec spec{"snap", 8, 6, 8, 90, 5, 4, 606};
  const Netlist nl = genbench::generate(spec);
  CompiledSimulator comp(nl);
  Rng rng(11);
  std::vector<std::vector<bool>> stimulus;
  for (int cycle = 0; cycle < 10; ++cycle) {
    auto& bits = stimulus.emplace_back();
    for (std::size_t i = 0; i < nl.inputs().size(); ++i) {
      bits.push_back(rng.next_bool());
    }
    comp.set_inputs(bits);
    comp.step();
  }
  const auto snap = comp.snapshot();
  EXPECT_EQ(snap.cycle, 10u);
  // Run ahead, recording outputs.
  std::vector<std::vector<bool>> ahead;
  for (int cycle = 0; cycle < 5; ++cycle) {
    comp.set_inputs(stimulus[static_cast<std::size_t>(cycle)]);
    comp.eval();
    ahead.push_back(comp.output_values());
    comp.step();
  }
  // Rewind and replay: identical trajectory.
  comp.restore(snap);
  EXPECT_EQ(comp.cycle(), 10u);
  for (int cycle = 0; cycle < 5; ++cycle) {
    comp.set_inputs(stimulus[static_cast<std::size_t>(cycle)]);
    comp.eval();
    EXPECT_EQ(comp.output_values(), ahead[static_cast<std::size_t>(cycle)]);
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

/// A TCON chain, TCONs that select constants, a TLUT, and a LUT, a latch
/// D-pin and outputs that read TCONs.
map::MappedNetlist bound_design() {
  using logic::TruthTable;
  using map::CellId;
  using map::MKind;
  map::MappedNetlist mn("bound");
  const CellId a = mn.add_source(MKind::kInput, "a");
  const CellId b = mn.add_source(MKind::kInput, "b");
  const CellId c = mn.add_source(MKind::kInput, "c");
  const CellId d = mn.add_source(MKind::kInput, "d");
  const CellId p0 = mn.add_source(MKind::kParam, "p0");
  const CellId p1 = mn.add_source(MKind::kParam, "p1");
  const CellId p2 = mn.add_source(MKind::kParam, "p2");
  const CellId q = mn.add_latch_source("q", 1);
  const CellId l_and = mn.add_cell(MKind::kLut, "l_and", {a, b}, {},
                                   logic::tt_and(2));
  const CellId l_xor = mn.add_cell(MKind::kLut, "l_xor", {c, q}, {},
                                   logic::tt_xor(2));
  // p0 ? l_xor : l_and.
  const CellId t_mux = mn.add_cell(MKind::kTcon, "t_mux", {l_and, l_xor},
                                   {p0}, logic::tt_mux21());
  // A 4:1 mux over (t_mux, d, q, a) selected by (p1, p2): a TCON that reads
  // a TCON.
  TruthTable mux4(6);
  for (std::uint64_t x = 0; x < 64; ++x) {
    mux4.set_bit(x, ((x >> ((x >> 4) & 3)) & 1) != 0);
  }
  const CellId t_chain = mn.add_cell(MKind::kTcon, "t_chain",
                                     {t_mux, d, q, a}, {p1, p2}, mux4);
  // Constant 0 when p0 = 0, constant 1 when p1 = 1.
  const CellId t_zero =
      mn.add_cell(MKind::kTcon, "t_zero", {t_chain}, {p0},
                  TruthTable::var(2, 0) & TruthTable::var(2, 1));
  const CellId t_one =
      mn.add_cell(MKind::kTcon, "t_one", {b}, {p1},
                  TruthTable::var(2, 0) | TruthTable::var(2, 1));
  const CellId tlut =
      mn.add_cell(MKind::kTlut, "tlut", {t_chain, c}, {p0, p2},
                  TruthTable::from_bits(0x6d2b9e41c3a5f078ULL, 4));
  const CellId l_read = mn.add_cell(MKind::kLut, "l_read",
                                    {t_zero, t_one, tlut}, {},
                                    logic::tt_xor(3));
  mn.set_latch_input(0, t_chain);
  mn.add_output(t_chain, "o_chain");
  mn.add_output(l_read, "o_read");
  mn.add_output(t_one, "o_one");
  mn.check();
  return mn;
}

/// Latches whose fan-in crosses the debug layer, and one whose fan-in does
/// not: q0's D-pin is a LUT that reads a TLUT, q1's D-pin is a TCON, q2's
/// D-pin is a LUT that reads that TCON, and q3's fan-in is plain LUTs only
/// (the static cone).  One LUT feeds only an output.
map::MappedNetlist latch_cone_design() {
  using logic::TruthTable;
  using map::CellId;
  using map::MKind;
  map::MappedNetlist mn("latch_cone");
  const CellId a = mn.add_source(MKind::kInput, "a");
  const CellId b = mn.add_source(MKind::kInput, "b");
  const CellId c = mn.add_source(MKind::kInput, "c");
  const CellId p0 = mn.add_source(MKind::kParam, "p0");
  const CellId p1 = mn.add_source(MKind::kParam, "p1");
  const CellId q0 = mn.add_latch_source("q0", 0);
  const CellId q1 = mn.add_latch_source("q1", 1);
  const CellId q2 = mn.add_latch_source("q2", 0);
  const CellId q3 = mn.add_latch_source("q3", 1);
  const CellId l_static = mn.add_cell(MKind::kLut, "l_static", {a, q0}, {},
                                      logic::tt_xor(2));
  const CellId tlut =
      mn.add_cell(MKind::kTlut, "tlut", {l_static, b, q2}, {p0},
                  TruthTable::from_bits(0xc3a5, 4));
  const CellId l_tlut = mn.add_cell(MKind::kLut, "l_tlut", {tlut, c, q1}, {},
                                    TruthTable::from_bits(0xb4, 3));
  const CellId l_and = mn.add_cell(MKind::kLut, "l_and", {q1, b}, {},
                                   logic::tt_and(2));
  // p1 ? c : l_and.
  const CellId t_mux = mn.add_cell(MKind::kTcon, "t_mux", {l_and, c}, {p1},
                                   logic::tt_mux21());
  const CellId l_tail = mn.add_cell(MKind::kLut, "l_tail",
                                    {l_static, t_mux, q3}, {},
                                    logic::tt_xor(3));
  const CellId l_pure = mn.add_cell(MKind::kLut, "l_pure", {l_static, q3, b},
                                    {}, TruthTable::from_bits(0x6c, 3));
  const CellId l_out = mn.add_cell(MKind::kLut, "l_out", {a, b, c}, {},
                                   TruthTable::from_bits(0xb7, 3));
  mn.set_latch_input(0, l_tlut);
  mn.set_latch_input(1, t_mux);
  mn.set_latch_input(2, l_tail);
  mn.set_latch_input(3, l_pure);
  mn.add_output(l_out, "o_rest");
  mn.add_output(t_mux, "o_mux");
  mn.add_output(l_tail, "o_tail");
  mn.check();
  return mn;
}

TEST(CompiledSimulator, BoundTconsMatchInterpreterUnderEveryAssignment) {
  // The compiled engine sweeps only the LUT and the TLUT cells: it binds
  // every TCON to the source its parameters select and cofactors the TLUT.
  // Under every parameter assignment, reached from every other one, it must
  // agree with the interpreter on every cell, TCONs included.
  const map::MappedNetlist mn = bound_design();
  EXPECT_EQ(CompiledSimulator(mn).sweep_size(), mn.lut_area());
  MappedSimulator comp(mn, SimBackend::kCompiled);
  MappedSimulator interp(mn, SimBackend::kInterpreted);
  Rng rng(17);
  for (std::uint32_t from = 0; from < 8; ++from) {
    for (std::uint32_t to = 0; to < 8; ++to) {
      for (std::uint32_t assignment : {from, to}) {
        std::vector<bool> params;
        for (int i = 0; i < 3; ++i) params.push_back((assignment >> i) & 1);
        comp.set_params(params);
        interp.set_params(params);
        for (int cycle = 0; cycle < 3; ++cycle) {
          std::vector<bool> inputs;
          for (int i = 0; i < 4; ++i) inputs.push_back(rng.next_bool());
          comp.set_inputs(inputs);
          interp.set_inputs(inputs);
          comp.eval();
          interp.eval();
          for (map::CellId id = 0; id < mn.num_cells(); ++id) {
            ASSERT_EQ(comp.value(id), interp.value(id))
                << "assignment " << assignment << " (from " << from
                << ") cell " << mn.cell(id).name;
          }
          ASSERT_EQ(comp.output_values(), interp.output_values());
          comp.step();
          interp.step();
        }
      }
    }
  }
}

TEST(CompiledSimulator, RejectsTconThatIsNotAWire) {
  map::MappedNetlist mn("fake");
  const map::CellId a = mn.add_source(map::MKind::kInput, "a");
  const map::CellId p = mn.add_source(map::MKind::kParam, "p");
  // a ^ p is an inverter under p = 1, which routing cannot implement.
  mn.add_output(mn.add_cell(map::MKind::kTcon, "t", {a}, {p},
                            logic::tt_xor(2)),
                "o");
  EXPECT_THROW(CompiledSimulator{mn}, Error);
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
  // Same names and shape, other functions: both backends must catch it.
  genbench::CircuitSpec other_spec = spec;
  other_spec.seed += 1;
  const Netlist other = genbench::generate(other_spec);
  Rng r3(21), r4(21);
  const auto compiled_diff =
      check_equivalence(nl, other, 256, r3, SimBackend::kCompiled);
  const auto interp_diff =
      check_equivalence(nl, other, 256, r4, SimBackend::kInterpreted);
  EXPECT_FALSE(compiled_diff.equivalent);
  EXPECT_FALSE(interp_diff.equivalent);
  EXPECT_NE(compiled_diff.first_mismatch.find(" lane "), std::string::npos)
      << compiled_diff.first_mismatch;
}

TEST(CompiledSimulator, RestoreRejectsWrongSnapshotShape) {
  // Snapshots carry a version and lane width; restoring one taken from an
  // incompatible engine (or a corrupted snapshot) must fail loudly instead of
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

TEST(CompiledSimulator, RejectsBadStimulusTargets) {
  // Stimulus for node ids past the design, or for the wrong kind of source,
  // fails instead of indexing off the end of the value arrays or driving a
  // logic slot.
  Netlist nl;
  const NodeId a = nl.add_input("a");
  const NodeId p = nl.add_param("p");
  nl.add_output(nl.add_logic("f", {a, p}, logic::tt_xor(2)), "o");
  CompiledSimulator comp(nl);
  EXPECT_THROW(comp.set_input(static_cast<NodeId>(1000), true), Error);
  EXPECT_THROW(comp.set_param(static_cast<NodeId>(1000), true), Error);
  EXPECT_THROW(comp.set_input(p, true), Error);
  EXPECT_THROW(comp.set_param(a, true), Error);
  EXPECT_THROW(comp.set_inputs({true, false}), Error);
  EXPECT_THROW(comp.set_params({}), Error);
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

/// `user` with its first `params` inputs turned into parameters, so the
/// TCON mapper covers the logic that reads them with TLUTs (at K = 8 some
/// of more than six data inputs, whose cascades read parameter slots).
Netlist with_params(const Netlist& user, std::size_t params) {
  Netlist nl;
  std::vector<NodeId> to(user.num_nodes(), kNullNode);
  for (std::size_t i = 0; i < user.inputs().size(); ++i) {
    const NodeId in = user.inputs()[i];
    to[in] = i < params ? nl.add_param(user.name(in))
                        : nl.add_input(user.name(in));
  }
  for (const auto& latch : user.latches()) {
    to[latch.output] =
        nl.add_latch(user.name(latch.output), kNullNode, latch.init_value);
  }
  for (NodeId id : user.topo_order()) {
    if (user.kind(id) != netlist::NodeKind::kLogic) continue;
    std::vector<NodeId> fanins;
    for (NodeId f : user.fanins(id)) fanins.push_back(to[f]);
    to[id] = nl.add_logic(user.name(id), fanins, user.function(id));
  }
  for (std::size_t i = 0; i < user.latches().size(); ++i) {
    nl.set_latch_input(i, to[user.latches()[i].input]);
  }
  for (std::size_t o = 0; o < user.outputs().size(); ++o) {
    nl.add_output(to[user.outputs()[o]], user.output_names()[o]);
  }
  return nl;
}

/// The first cell whose value() or output differs between the two engines,
/// or "" when they read alike.
std::string first_difference(const map::MappedNetlist& mn,
                             const CompiledSimulator& got,
                             const CompiledSimulator& want) {
  for (map::CellId id = 0; id < mn.num_cells(); ++id) {
    if (got.value(id) != want.value(id)) return "cell " + mn.cell(id).name;
  }
  for (std::size_t o = 0; o < mn.outputs().size(); ++o) {
    if (got.output(o) != want.output(o)) return "output " + std::to_string(o);
  }
  if (got.output_values() != want.output_values()) return "output_values()";
  return "";
}

std::string first_difference(const map::MappedNetlist& mn,
                             const CompiledSimulator& got,
                             const MappedSimulator& want) {
  for (map::CellId id = 0; id < mn.num_cells(); ++id) {
    if (got.value(id) != want.value(id)) return "cell " + mn.cell(id).name;
  }
  return "";
}

TEST(CompiledSimulator, WatchedSweepMatchesFullSweep) {
  // A watched engine sweeps its cone in eval() and the rest of the program
  // only when a read needs it, on the sources eval() saw and under the
  // binding eval() swept with.  After every action it must read, on every
  // node and every output, what an engine that watches nothing reads; after
  // every eval() and step() both must read what the interpreter reads.
  // Designs: two instrumented ones (TCONs, like the session's), two with
  // TLUTs, at K = 6 and K = 8, and two built by hand whose latches read a
  // TCON or a TLUT through their D-pins.
  std::vector<map::MappedNetlist> designs;
  for (std::uint64_t seed : {1u, 2u}) {
    genbench::CircuitSpec spec{"wi" + std::to_string(seed), 8, 6, 5, 70, 4,
                               5, seed};
    debug::InstrumentOptions opt;
    opt.trace_width = 3;
    designs.push_back(
        map::tcon_map(debug::parameterize_signals(genbench::generate(spec), opt)
                          .netlist)
            .netlist);
  }
  for (int k : {6, 8}) {
    genbench::CircuitSpec spec{"wt" + std::to_string(k), 10, 6, 5, 70, 4, 5, 4};
    designs.push_back(
        map::tcon_map(with_params(genbench::generate(spec), 3), k).netlist);
  }
  {
    // The K = 8 design: a TLUT of more than six data inputs keeps its
    // generic cascade, whose ops read parameter slots.
    const map::MappedNetlist& wide = designs.back();
    const CompiledSimulator lowered(wide);
    const SimProgram& prog = lowered.program();
    ASSERT_TRUE(std::any_of(prog.fanins.begin(), prog.fanins.end(),
                            [&](std::uint32_t f) {
                              return f < prog.num_design_nodes &&
                                     prog.node_kind[f] ==
                                         SimProgram::SlotKind::kParam;
                            }));
    bool wide_tlut = false;
    for (map::CellId id = 0; id < wide.num_cells(); ++id) {
      wide_tlut |= wide.cell(id).kind == map::MKind::kTlut &&
                   wide.cell(id).data_inputs.size() > SimProgram::kMaxOpArity;
    }
    ASSERT_TRUE(wide_tlut);
  }
  ASSERT_GT(designs[0].count(map::MKind::kTcon), 0u);
  designs.push_back(bound_design());
  designs.push_back(latch_cone_design());

  const telemetry::Counter& swept = telemetry::metrics().counter("sim.sweep.ops");
  const telemetry::Counter& deferred =
      telemetry::metrics().counter("sim.sweep.deferred_ops");
  const std::uint64_t deferred_before = deferred.value();
  Rng rng(29);
  for (std::size_t d = 0; d < designs.size(); ++d) {
    const map::MappedNetlist& mn = designs[d];
    std::vector<map::CellId> tcons;
    for (map::CellId id = 0; id < mn.num_cells(); ++id) {
      if (mn.cell(id).kind == map::MKind::kTcon) tcons.push_back(id);
    }
    auto random_inputs = [&] {
      std::vector<bool> bits(mn.inputs().size());
      for (std::size_t i = 0; i < bits.size(); ++i) bits[i] = rng.next_bool();
      return bits;
    };
    auto random_list = [&] {
      std::vector<std::uint32_t> ids(1 + rng.next_below(3));
      for (std::uint32_t& id : ids) {
        id = static_cast<std::uint32_t>(rng.next_below(mn.num_cells()));
      }
      return ids;
    };
    // Watched lists: none, one that holds a TCON, and two random ones.
    for (int list = 0; list < 4; ++list) {
      std::vector<std::uint32_t> watched;
      if (list >= 1) watched = random_list();
      if (list == 1 && !tcons.empty()) {
        watched.push_back(tcons[rng.next_below(tcons.size())]);
      }
      const std::string where = "design " + std::to_string(d) + " list " +
                                std::to_string(list);
      CompiledSimulator full(mn);
      CompiledSimulator part(mn);
      part.set_watched(watched);
      MappedSimulator interp(mn, SimBackend::kInterpreted);
      auto flip_param = [&] {
        const map::CellId p = mn.params()[rng.next_below(mn.params().size())];
        const bool bit = !full.value(p);
        full.set_param(p, bit);
        part.set_param(p, bit);
        interp.set_param(p, bit);
      };
      auto set_inputs = [&] {
        const std::vector<bool> bits = random_inputs();
        full.set_inputs(bits);
        part.set_inputs(bits);
        interp.set_inputs(bits);
      };
      auto eval = [&] {
        full.eval();
        part.eval();
        interp.eval();
      };

      // The cases a random sequence may miss, each read straight from the
      // watched engine: a read after set_inputs, after a parameter write
      // and after a re-binding, each before the next eval(); then two reads
      // in a row, of which only the first sweeps the rest.
      set_inputs();
      eval();
      set_inputs();
      ASSERT_EQ(first_difference(mn, part, full), "")
          << where << ": read after set_inputs";
      eval();
      flip_param();
      ASSERT_EQ(first_difference(mn, part, full), "")
          << where << ": read after set_param";
      eval();
      flip_param();
      full.bind();
      part.bind();
      ASSERT_EQ(first_difference(mn, part, full), "")
          << where << ": read after bind";
      const std::uint64_t swept_before = swept.value();
      eval();
      const std::uint64_t cone =
          swept.value() - swept_before - full.sweep_size();
      if (watched.empty()) {
        EXPECT_EQ(cone, full.sweep_size()) << where;
      }
      const std::uint64_t first_read = deferred.value();
      ASSERT_EQ(first_difference(mn, part, full), "") << where << ": read";
      ASSERT_EQ(deferred.value() - first_read, full.sweep_size() - cone)
          << where << ": the first read sweeps the rest";
      ASSERT_EQ(first_difference(mn, part, full), "")
          << where << ": second read";
      ASSERT_EQ(deferred.value() - first_read, full.sweep_size() - cone)
          << where << ": the second read sweeps nothing";
      // A read after an eval() that re-walked the cone, under a new binding
      // and under a new watched list: each re-cuts the rest.
      for (int turn = 0; turn < 4; ++turn) {
        flip_param();
        set_inputs();
        eval();
        ASSERT_EQ(first_difference(mn, part, full), "")
            << where << ": read after a rebinding";
      }
      part.set_watched(random_list());
      set_inputs();
      eval();
      ASSERT_EQ(first_difference(mn, part, full), "")
          << where << ": read after set_watched";
      part.set_watched(watched);

      // A random sequence.  Reads go to a copy of the watched engine, so
      // the engine itself keeps its rest unswept into the next action,
      // except after the actions that also read it directly.
      std::optional<CompiledSimulator::Snapshot> snap_full, snap_part;
      std::optional<MappedSimulator::Snapshot> snap_interp;
      for (int action = 0; action < 80; ++action) {
        const std::uint64_t kind = rng.next_below(10);
        std::string what;
        switch (kind) {
          case 0:
          case 1:
            set_inputs();
            what = "set_inputs";
            break;
          case 2:
            eval();
            what = "eval";
            break;
          case 3:
          case 4:
            full.step();
            part.step();
            interp.step();
            what = "step";
            break;
          case 5:
            flip_param();
            what = "set_param";
            break;
          case 6:
            full.bind();
            part.bind();
            what = "bind";
            break;
          case 7:
            full.reset();
            part.reset();
            interp.reset();
            what = "reset";
            break;
          case 8:
            if (!snap_full || rng.next_bool()) {
              snap_full = full.snapshot();
              snap_part = part.snapshot();
              snap_interp = interp.snapshot();
              ASSERT_EQ(snap_part->latch_words, snap_full->latch_words);
              what = "snapshot";
            } else {
              full.restore(*snap_full);
              part.restore(*snap_part);
              interp.restore(*snap_interp);
              what = "restore";
            }
            break;
          default:
            part.set_watched(rng.next_bool() ? std::vector<std::uint32_t>{}
                                             : random_list());
            what = "set_watched";
            break;
        }
        const std::string when =
            where + " action " + std::to_string(action) + " (" + what + ")";
        const CompiledSimulator probe = part;
        ASSERT_EQ(first_difference(mn, probe, full), "") << when;
        if (rng.next_below(4) == 0) {
          ASSERT_EQ(first_difference(mn, part, full), "") << when;
        }
        if (kind == 2 || kind == 3 || kind == 4) {
          ASSERT_EQ(first_difference(mn, probe, interp), "")
              << when << " against the interpreter";
        }
      }
    }
  }
  // Some read had something to sweep.
  EXPECT_GT(deferred.value(), deferred_before);
}

TEST(CompiledSimulator, RebindingRewalksOnlyTheDynamicCone) {
  // On an instrumented design watched at its trace lanes, like a debug
  // session's DUT: the static cone (the latches' fan-in that no binding
  // reaches) is cut once, at construction, and each turn that moves the
  // binding re-walks only the rest of the cone, fewer ops than the
  // program holds outside the static cone.
  genbench::CircuitSpec spec{"rewalk", 10, 6, 6, 160, 5, 6, 7};
  debug::InstrumentOptions opt;
  opt.trace_width = 4;
  const debug::Instrumented inst =
      debug::parameterize_signals(genbench::generate(spec), opt);
  const map::MappedNetlist mn = map::tcon_map(inst.netlist).netlist;
  std::vector<std::uint32_t> lanes;
  for (const std::string& name : inst.trace_outputs) {
    const auto& names = mn.output_names();
    const auto it = std::find(names.begin(), names.end(), name);
    ASSERT_NE(it, names.end()) << name;
    lanes.push_back(mn.outputs()[static_cast<std::size_t>(it - names.begin())]);
  }
  const telemetry::Counter& static_ops =
      telemetry::metrics().counter("sim.cone.static_ops");
  const telemetry::Counter& rewalks =
      telemetry::metrics().counter("sim.cone.rewalks");
  const telemetry::Counter& rewalked =
      telemetry::metrics().counter("sim.cone.rewalked_ops");
  const std::uint64_t static_before = static_ops.value();
  CompiledSimulator sim(mn);
  const std::uint64_t cut = static_ops.value() - static_before;
  ASSERT_GT(cut, 0u);
  ASSERT_LT(cut, sim.sweep_size());
  sim.set_watched(lanes);
  MappedSimulator interp(mn, SimBackend::kInterpreted);
  Rng rng(31);
  std::uint64_t turns_rewalked = 0;
  std::uint64_t ops_rewalked = 0;
  for (int turn = 0; turn < 60; ++turn) {
    for (int flips = 1 + static_cast<int>(rng.next_below(3)); flips > 0;
         --flips) {
      const map::CellId p = mn.params()[rng.next_below(mn.params().size())];
      const bool bit = rng.next_bool();
      sim.set_param(p, bit);
      interp.set_param(p, bit);
    }
    sim.bind();
    const std::uint64_t walks0 = rewalks.value();
    const std::uint64_t ops0 = rewalked.value();
    for (int cycle = 0; cycle < 3; ++cycle) {
      std::vector<bool> inputs(mn.inputs().size());
      for (std::size_t i = 0; i < inputs.size(); ++i) {
        inputs[i] = rng.next_bool();
      }
      sim.set_inputs(inputs);
      interp.set_inputs(inputs);
      sim.eval();
      interp.eval();
      for (std::uint32_t lane : lanes) {
        ASSERT_EQ(sim.value(lane), interp.value(lane))
            << "turn " << turn << " lane " << mn.cell(lane).name;
      }
      sim.step();
      interp.step();
    }
    const std::uint64_t walks = rewalks.value() - walks0;
    ASSERT_LE(walks, 1u) << "turn " << turn;
    if (walks == 1) {
      const std::uint64_t ops = rewalked.value() - ops0;
      EXPECT_LT(ops, sim.sweep_size() - cut) << "turn " << turn;
      ++turns_rewalked;
      ops_rewalked += ops;
    }
  }
  EXPECT_EQ(static_ops.value() - static_before, cut) << "cut once";
  EXPECT_GT(turns_rewalked, 30u);
  EXPECT_GT(ops_rewalked, 0u);
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
  EXPECT_EQ(early.output_values(), twin.output_values()) << what;
  EXPECT_NE(latch_state(unmutated), latch_state(twin))
      << what << ": the mutation does not reach the latch";
}

TEST(CompiledSimulator, StepAfterMutationReevaluates) {
  const Netlist nl = toggle_design();
  const NodeId a = nl.inputs()[0];
  const NodeId p = nl.params()[0];
  const CompiledSimulator::Snapshot at_reset = CompiledSimulator(nl).snapshot();
  using Mutate = std::function<void(CompiledSimulator&)>;
  const std::vector<std::pair<std::string, Mutate>> cases = {
      {"set_input", [&](auto& s) { s.set_input(a, false); }},
      {"set_param", [&](auto& s) { s.set_param(p, true); }},
      {"restore", [&](auto& s) { s.restore(at_reset); }},
      {"reset", [](auto& s) { s.reset(); }}};
  const std::function<CompiledSimulator()> make_compiled = [&] {
    CompiledSimulator sim(nl);
    sim.set_input(a, true);
    sim.step();
    return sim;
  };
  for (const auto& [name, mutate] : cases) {
    expect_step_reevaluates<CompiledSimulator>(make_compiled, mutate, name);
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
