// The program specialized on a parameter assignment against the generic
// program with that assignment broadcast: every output word of every block
// must match on every cycle, clean and under faults, on mapped designs from
// the offline flow (TCONs) and on a hand-built one (TLUTs, one of them wider
// than a one-word table, a LUT with a redundant input, a parameter read as
// a data input and one driving an output).  Plus the shape the
// specialization promises: TCONs become wires or constants, every design
// node keeps its op, and bound parameters cannot be written.
#include "sim/sim_program.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "debug/flow.h"
#include "genbench/genbench.h"
#include "sim/batch_simulator.h"
#include "support/error.h"
#include "support/rng.h"

namespace fpgadbg::sim {
namespace {

using logic::TruthTable;
using map::CellId;
using map::MappedNetlist;
using map::MKind;

constexpr std::size_t kBlocks = 2;

MappedNetlist offline_design(std::uint64_t seed) {
  const genbench::CircuitSpec spec{"spec", 10, 8, 6, 120, 4, 6, 97 * seed};
  debug::OfflineOptions options;
  options.instrument.trace_width = 6;
  options.run_pnr = false;
  return debug::run_offline(genbench::generate(spec), options).mapping.netlist;
}

TruthTable random_table(Rng& rng, int vars) {
  std::vector<std::uint64_t> words(((std::size_t{1} << vars) + 63) / 64);
  for (std::uint64_t& w : words) w = rng.next_u64();
  return TruthTable::from_words(vars, std::move(words));
}

/// Inputs i0..i6, parameters p0..p2 and one latch q, with
///   t1 = TLUT(i0, i1, q; p0, p1), random
///   t2 = TLUT(t1, i2..i6, i0; p2, p0), random over nine variables
///   c  = TCON(t1, i2, t2; p2, p1): (p2, p1) = 00 -> t1, 10 -> i2,
///        01 -> t2, 11 -> constant 1
///   t3 = TLUT(p1, c, i3; p0), random: a parameter as a data input
///   l  = LUT(t3, i4, c) = t3 ^ c: i4 is redundant
/// q <- l; outputs t2, c, l, p1 and q.
MappedNetlist hand_built_design(std::uint64_t seed) {
  Rng rng(seed);
  MappedNetlist mn("tluts");
  std::vector<CellId> in;
  for (int i = 0; i < 7; ++i) {
    in.push_back(mn.add_source(MKind::kInput, "i" + std::to_string(i)));
  }
  std::vector<CellId> p;
  for (int i = 0; i < 3; ++i) {
    p.push_back(mn.add_source(MKind::kParam, "p" + std::to_string(i)));
  }
  const CellId q = mn.add_latch_source("q", 1);
  const CellId t1 = mn.add_cell(MKind::kTlut, "t1", {in[0], in[1], q},
                                {p[0], p[1]}, random_table(rng, 5));
  const CellId t2 = mn.add_cell(
      MKind::kTlut, "t2", {t1, in[2], in[3], in[4], in[5], in[6], in[0]},
      {p[2], p[0]}, random_table(rng, 9));
  TruthTable tcon(5);
  for (std::size_t x = 0; x < tcon.num_bits(); ++x) {
    const std::size_t select = x >> 3;  // bit 0: p2, bit 1: p1
    tcon.set_bit(x, select == 3 || ((x >> select) & 1U));
  }
  const CellId c =
      mn.add_cell(MKind::kTcon, "c", {t1, in[2], t2}, {p[2], p[1]}, tcon);
  const CellId t3 = mn.add_cell(MKind::kTlut, "t3", {p[1], c, in[3]}, {p[0]},
                                random_table(rng, 4));
  const CellId l = mn.add_cell(MKind::kLut, "l", {t3, in[4], c}, {},
                               TruthTable::var(3, 0) ^ TruthTable::var(3, 2));
  mn.set_latch_input(0, l);
  mn.add_output(t2, "o_t2");
  mn.add_output(c, "o_c");
  mn.add_output(l, "o_l");
  mn.add_output(p[1], "o_p1");
  mn.add_output(q, "o_q");
  mn.check();
  return mn;
}

std::vector<bool> random_assignment(const MappedNetlist& mn, Rng& rng) {
  std::vector<bool> values;
  for (std::size_t i = 0; i < mn.params().size(); ++i) {
    values.push_back((rng.next_u64() & 1U) != 0);
  }
  return values;
}

/// Runs the generic engine with `assignment` broadcast and the engine on
/// the program specialized on it side by side, with the same stimulus and
/// (when `faults`) the same faults under random lane masks, asserting that
/// every output word of every block matches on each of `cycles` cycles.
void expect_matches_generic(const MappedNetlist& mn,
                            const std::vector<bool>& assignment, bool faults,
                            std::uint64_t seed) {
  constexpr int kCycles = 20;
  BatchSimulator generic(mn, BatchSimOptions{.blocks = kBlocks});
  for (std::size_t i = 0; i < mn.params().size(); ++i) {
    generic.broadcast_param(mn.params()[i], assignment[i]);
  }
  BatchSimulator specialized(lower_program(mn, assignment),
                             BatchSimOptions{.blocks = kBlocks});
  Rng rng(seed);
  if (faults) {
    const std::vector<CellId> cells = mn.topo_order();
    for (FaultType type : {FaultType::kStuckAt0, FaultType::kStuckAt1,
                           FaultType::kInvert, FaultType::kFlipOnCycle}) {
      const Fault f{cells[rng.next_below(cells.size())], type, 3};
      const std::vector<std::uint64_t> mask = {rng.next_u64(),
                                               rng.next_u64()};
      generic.inject_fault_masked(f, mask);
      specialized.inject_fault_masked(f, mask);
    }
    ASSERT_EQ(specialized.num_faulted_scenarios(),
              generic.num_faulted_scenarios());
  }
  for (int cycle = 0; cycle < kCycles; ++cycle) {
    for (CellId in : mn.inputs()) {
      for (std::size_t b = 0; b < kBlocks; ++b) {
        const std::uint64_t w = rng.next_u64();
        generic.set_input_word(in, b, w);
        specialized.set_input_word(in, b, w);
      }
    }
    generic.step();
    specialized.step();
    for (std::size_t o = 0; o < mn.outputs().size(); ++o) {
      for (std::size_t b = 0; b < kBlocks; ++b) {
        ASSERT_EQ(specialized.output_word(o, b), generic.output_word(o, b))
            << "cycle " << cycle << " output " << mn.output_names()[o]
            << " block " << b;
      }
    }
  }
}

/// The promised shape: one op per design node that has one in the generic
/// program (and none elsewhere), no op reading a parameter, every TCON at
/// most one fanin.
void expect_specialized_shape(const MappedNetlist& mn,
                              const std::vector<bool>& assignment) {
  const SimProgram generic = lower_program(mn);
  const SimProgram specialized = lower_program(mn, assignment);
  ASSERT_EQ(specialized.num_design_nodes, generic.num_design_nodes);
  ASSERT_EQ(specialized.param_values.size(), mn.params().size());
  for (CellId id = 0; id < mn.num_cells(); ++id) {
    EXPECT_EQ(specialized.op_of_node[id] == kNoOp,
              generic.op_of_node[id] == kNoOp)
        << mn.cell(id).name;
    if (mn.cell(id).kind == MKind::kTcon) {
      EXPECT_LE(specialized.ops[specialized.op_of_node[id]].fanin_count, 1u)
          << mn.cell(id).name;
    }
  }
  for (const SimOp& op : specialized.ops) {
    for (std::uint32_t j = 0; j < op.fanin_count; ++j) {
      const std::uint32_t slot = specialized.fanins[op.fanin_begin + j];
      if (slot < specialized.num_design_nodes) {
        EXPECT_NE(specialized.node_kind[slot], SimProgram::SlotKind::kParam);
      }
    }
  }
}

TEST(SpecializedProgram, MatchesGenericEngineOnOfflineDesigns) {
  for (std::uint64_t seed = 1; seed <= 2; ++seed) {
    const MappedNetlist mn = offline_design(seed);
    ASSERT_GT(mn.count(MKind::kTcon), 0u);
    ASSERT_GT(mn.params().size(), 0u);
    Rng rng(seed * 7);
    std::vector<std::vector<bool>> assignments = {
        std::vector<bool>(mn.params().size(), false),
        std::vector<bool>(mn.params().size(), true)};
    for (int i = 0; i < 4; ++i) {
      assignments.push_back(random_assignment(mn, rng));
    }
    for (std::size_t a = 0; a < assignments.size(); ++a) {
      SCOPED_TRACE("seed " + std::to_string(seed) + " assignment " +
                   std::to_string(a));
      expect_specialized_shape(mn, assignments[a]);
      expect_matches_generic(mn, assignments[a], /*faults=*/false, 11 * a);
      expect_matches_generic(mn, assignments[a], /*faults=*/true, 13 * a + 1);
    }
  }
}

TEST(SpecializedProgram, MatchesGenericEngineOnHandBuiltTluts) {
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    const MappedNetlist mn = hand_built_design(seed);
    // All eight assignments of the three parameters.
    for (unsigned a = 0; a < 8; ++a) {
      SCOPED_TRACE("seed " + std::to_string(seed) + " assignment " +
                   std::to_string(a));
      const std::vector<bool> assignment = {(a & 1U) != 0, (a & 2U) != 0,
                                            (a & 4U) != 0};
      expect_specialized_shape(mn, assignment);
      expect_matches_generic(mn, assignment, /*faults=*/false, seed + a);
      expect_matches_generic(mn, assignment, /*faults=*/true, seed * a + 5);
    }
  }
}

TEST(SpecializedProgram, LowersEachCellOverWhatItStillReads) {
  const MappedNetlist mn = hand_built_design(4);
  const CellId t1 = *mn.find("t1");
  const CellId t2 = *mn.find("t2");
  const CellId c = *mn.find("c");
  const CellId l = *mn.find("l");
  auto fanins = [](const SimProgram& prog, CellId id) {
    const SimOp& op = prog.ops[prog.op_of_node[id]];
    return std::vector<std::uint32_t>(
        prog.fanins.begin() + op.fanin_begin,
        prog.fanins.begin() + op.fanin_begin + op.fanin_count);
  };
  // (p0, p1, p2) = (0, 0, 0): the TCON is the wire from t1.
  const SimProgram wire = lower_program(mn, {false, false, false});
  EXPECT_EQ(fanins(wire, c), std::vector<std::uint32_t>{t1});
  EXPECT_EQ(wire.ops[wire.op_of_node[c]].mask, 0b10u);
  // p1 = p2 = 1: the TCON is the constant 1, a 0-input op.
  const SimProgram constant = lower_program(mn, {false, true, true});
  EXPECT_TRUE(fanins(constant, c).empty());
  EXPECT_EQ(constant.ops[constant.op_of_node[c]].mask, 1u);
  // The LUT drops its redundant middle input; TLUTs keep at most their
  // data inputs.
  for (const SimProgram* prog : {&wire, &constant}) {
    EXPECT_EQ(fanins(*prog, l), (std::vector<std::uint32_t>{
                                    *mn.find("t3"), c}));
    EXPECT_LE(fanins(*prog, t1).size(), mn.cell(t1).data_inputs.size());
    EXPECT_LE(fanins(*prog, t2).size(), mn.cell(t2).data_inputs.size());
  }
  EXPECT_THROW(lower_program(mn, {false, true}), Error);
}

TEST(SpecializedProgram, BoundParametersRejectWrites) {
  const MappedNetlist mn = hand_built_design(5);
  const std::vector<bool> assignment = {true, false, true};
  BatchSimulator specialized(lower_program(mn, assignment));
  for (std::size_t i = 0; i < mn.params().size(); ++i) {
    const CellId p = mn.params()[i];
    EXPECT_THROW(specialized.set_param_word(p, 0, 0), Error);
    EXPECT_THROW(specialized.broadcast_param(p, true), Error);
    // The slot holds the bound value.
    EXPECT_EQ(specialized.word(p, 0), assignment[i] ? ~0ULL : 0ULL);
  }
  BatchSimulator generic(mn);
  EXPECT_NO_THROW(generic.set_param_word(mn.params()[0], 0, 1));
  EXPECT_NO_THROW(generic.broadcast_param(mn.params()[0], true));
}

}  // namespace
}  // namespace fpgadbg::sim
