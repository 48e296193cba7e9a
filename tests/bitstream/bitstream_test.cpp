#include <gtest/gtest.h>

#include "bitstream/builder.h"
#include "bitstream/config_memory.h"
#include "bitstream/icap.h"
#include "bitstream/pconf.h"
#include "debug/flow.h"
#include "genbench/genbench.h"
#include "support/error.h"
#include "support/rng.h"

namespace fpgadbg::bitstream {
namespace {

constexpr std::size_t kFrameBits = arch::FrameGeometry::kFrameBits;

TEST(ConfigMemory, FrameAlignmentEnforced) {
  EXPECT_THROW(ConfigMemory(100), Error);
  ConfigMemory mem(kFrameBits * 3);
  EXPECT_EQ(mem.num_frames(), 3u);
}

TEST(ConfigMemory, ChangedFramesDetectsDiffs) {
  ConfigMemory a(kFrameBits * 4);
  ConfigMemory b = a;
  EXPECT_TRUE(a.changed_frames(b).empty());
  b.set(kFrameBits + 5, true);           // frame 1
  b.set(kFrameBits * 3 + 100, true);     // frame 3
  EXPECT_EQ(a.changed_frames(b), (std::vector<std::size_t>{1, 3}));
  EXPECT_EQ(a.bit_distance(b), 2u);
}

TEST(ConfigMemory, MultipleDiffsInOneFrameCountOnce) {
  ConfigMemory a(kFrameBits * 2);
  ConfigMemory b = a;
  for (std::size_t i = 0; i < 20; ++i) b.set(i, true);
  EXPECT_EQ(a.changed_frames(b), (std::vector<std::size_t>{0}));
  EXPECT_EQ(a.bit_distance(b), 20u);
}

TEST(PConf, ConstantBitsSurviveSpecialization) {
  PConf pconf(kFrameBits, {"p0", "p1"});
  pconf.set_constant(3, true);
  pconf.set_constant(100, true);
  const auto spec = pconf.specialize(BitVec(pconf.num_params()));
  EXPECT_TRUE(spec.memory.get(3));
  EXPECT_TRUE(spec.memory.get(100));
  EXPECT_FALSE(spec.memory.get(4));
  EXPECT_EQ(spec.bits_evaluated, 0u);
}

TEST(PConf, FunctionBitsFollowParameters) {
  PConf pconf(kFrameBits, {"p0", "p1"});
  auto& bdd = pconf.bdd();
  pconf.set_function(10, bdd.var(0));
  pconf.set_function(11, bdd.bdd_and(bdd.var(0), bdd.var(1)));
  pconf.set_function(12, bdd.bdd_not(bdd.var(1)));
  EXPECT_EQ(pconf.num_parameterized_bits(), 3u);

  auto s00 = pconf.specialize({{"p0", false}, {"p1", false}});
  EXPECT_FALSE(s00.memory.get(10));
  EXPECT_FALSE(s00.memory.get(11));
  EXPECT_TRUE(s00.memory.get(12));

  auto s11 = pconf.specialize({{"p0", true}, {"p1", true}});
  EXPECT_TRUE(s11.memory.get(10));
  EXPECT_TRUE(s11.memory.get(11));
  EXPECT_FALSE(s11.memory.get(12));
  EXPECT_EQ(s11.bits_evaluated, 3u);
}

TEST(PConf, ConstantFunctionFoldsIntoConstantPlane) {
  PConf pconf(kFrameBits, {"p0"});
  pconf.set_function(7, pconf.bdd().one());
  EXPECT_EQ(pconf.num_parameterized_bits(), 0u);
  EXPECT_TRUE(pconf.specialize(BitVec(pconf.num_params())).memory.get(7));
}

TEST(PConf, SpecializationIdempotent) {
  PConf pconf(kFrameBits * 2, {"a", "b", "c"});
  auto& bdd = pconf.bdd();
  Rng rng(4);
  for (std::size_t bit = 0; bit < 200; ++bit) {
    const logic::BddRef f =
        bdd.bdd_xor(bdd.var(static_cast<int>(rng.next_below(3))),
                    rng.next_bool() ? bdd.one() : bdd.zero());
    pconf.set_function(bit, f);
  }
  const std::unordered_map<std::string, bool> asg{{"a", true}, {"c", true}};
  const auto s1 = pconf.specialize(asg);
  const auto s2 = pconf.specialize(asg);
  EXPECT_EQ(s1.memory, s2.memory);
}

TEST(PConf, ParameterizedFramesAreCovering) {
  PConf pconf(kFrameBits * 8, {"p"});
  pconf.set_function(kFrameBits * 2 + 1, pconf.bdd().var(0));
  pconf.set_function(kFrameBits * 5 + 7, pconf.bdd().nvar(0));
  EXPECT_EQ(pconf.parameterized_frames(), (std::vector<std::size_t>{2, 5}));
  // Specializations can only ever differ inside parameterized frames.
  const auto s0 = pconf.specialize({{"p", false}});
  const auto s1 = pconf.specialize({{"p", true}});
  for (std::size_t f : s0.memory.changed_frames(s1.memory)) {
    const auto pf = pconf.parameterized_frames();
    EXPECT_NE(std::find(pf.begin(), pf.end(), f), pf.end());
  }
}

TEST(PConf, UnknownParameterThrows) {
  PConf pconf(kFrameBits, {"p"});
  EXPECT_THROW(pconf.specialize({{"zzz", true}}), Error);
  EXPECT_THROW(pconf.param_index("zzz"), Error);
  EXPECT_EQ(pconf.param_index("p"), 0);
}

/// Number of arena nodes some function of `pconf` reaches (constants
/// excluded), by a DFS from every root.
std::size_t reachable_nodes(const PConf& pconf) {
  const auto& arena = pconf.bdd().arena();
  std::vector<bool> seen(arena.size(), false);
  const FunctionView view = pconf.functions();
  std::vector<logic::BddRef> stack(view.refs, view.refs + view.count);
  std::size_t reached = 0;
  while (!stack.empty()) {
    const logic::BddRef r = stack.back();
    stack.pop_back();
    if (r < 2 || seen[r]) continue;
    seen[r] = true;
    ++reached;
    stack.push_back(arena[r].low);
    stack.push_back(arena[r].high);
  }
  return reached;
}

TEST(PConf, DropUnreachableNodesKeepsSpecializations) {
  PConf pconf(kFrameBits * 2, {"a", "b", "c", "d"});
  auto& bdd = pconf.bdd();
  Rng rng(23);
  auto var = [&] { return static_cast<int>(rng.next_below(4)); };
  // Conditions built from intermediate terms, as build_pconf builds them:
  // many terms end up in no function.
  for (std::size_t bit = 0; bit < 120; ++bit) {
    logic::BddRef f = bdd.var(var());
    for (int k = 0; k < 3; ++k) {
      const logic::BddRef g = bdd.bdd_xor(bdd.var(var()), bdd.nvar(var()));
      (void)bdd.bdd_or(bdd.bdd_and(g, bdd.var(var())), bdd.nvar(var()));
      f = rng.next_bool() ? bdd.bdd_and(f, g) : bdd.bdd_or(f, g);
    }
    pconf.set_function(kFrameBits - 60 + bit, f);
  }
  // A function replaced after the fact leaves its old root unreachable.
  pconf.set_function(kFrameBits - 60, bdd.bdd_and(bdd.var(0), bdd.var(3)));
  std::vector<BitVec> values;
  std::vector<ConfigMemory> memories;
  for (std::uint64_t a = 0; a < 16; ++a) {
    BitVec v(4);
    for (std::size_t p = 0; p < 4; ++p) v.set(p, ((a >> p) & 1) != 0);
    memories.push_back(pconf.specialize(v).memory);
    values.push_back(std::move(v));
  }
  const std::size_t before = bdd.size();
  ASSERT_LT(reachable_nodes(pconf), before - 2) << "no dead node to drop";

  pconf.drop_unreachable_nodes();
  const std::size_t after = pconf.bdd().size();
  EXPECT_LT(after, before);
  EXPECT_EQ(reachable_nodes(pconf), after - 2);
  for (std::size_t a = 0; a < values.size(); ++a) {
    EXPECT_EQ(pconf.specialize(values[a]).memory, memories[a]) << a;
  }
  // The incremental SCG runs on the compacted arena too.
  ConfigMemory loaded = memories[0];
  for (std::size_t a = 1; a < values.size(); ++a) {
    pconf.respecialize(loaded, values[a - 1], values[a]);
    EXPECT_EQ(loaded, memories[a]) << a;
  }
  // A compact arena has nothing left to drop.
  pconf.drop_unreachable_nodes();
  EXPECT_EQ(pconf.bdd().size(), after);
}

TEST(Icap, CalibratedToPaperConstants) {
  IcapModel icap;
  // Full reference device: 176 ms.
  EXPECT_NEAR(icap.full_seconds(icap.reference_frames), 0.176, 0.001);
  // A handful of frames: microseconds — three orders of magnitude below.
  const double partial = icap.partial_seconds(10);
  EXPECT_LT(partial, 0.176 / 500);
  EXPECT_GT(0.176 / partial, 1000.0 / 2);
}

TEST(RuntimeOverhead, BreakEvenMatchesPaperArithmetic) {
  // Paper §V-C2: 50 us at 400 MHz / 4-tick turns = 5000 turns.
  RuntimeOverheadModel model;
  EXPECT_NEAR(model.break_even_turns(50e-6), 5000.0, 1.0);
  EXPECT_NEAR(model.relative_overhead(50e-6, 5000.0), 1.0, 1e-9);
  EXPECT_LT(model.relative_overhead(50e-6, 50000.0), 0.11);
}

class BuiltPconf : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    genbench::CircuitSpec spec{"bs", 8, 6, 4, 40, 3, 5, 77};
    const auto user = genbench::generate(spec);
    debug::OfflineOptions options;
    options.instrument.trace_width = 6;
    offline_ = new debug::OfflineResult(debug::run_offline(user, options));
  }
  static void TearDownTestSuite() {
    delete offline_;
    offline_ = nullptr;
  }
  static debug::OfflineResult* offline_;
};

debug::OfflineResult* BuiltPconf::offline_ = nullptr;

TEST_F(BuiltPconf, HasParameterizedBits) {
  ASSERT_TRUE(offline_->pconf);
  EXPECT_GT(offline_->pconf->num_parameterized_bits(), 0u);
  EXPECT_EQ(offline_->pconf->num_params(),
            offline_->instrumented.netlist.params().size());
}

TEST_F(BuiltPconf, DifferentSelectionsDifferInBits) {
  const auto& inst = offline_->instrumented;
  const auto a = inst.select_signals({inst.lane_signals[0][0]});
  const auto b = inst.select_signals({inst.lane_signals[0][1]});
  const auto sa = offline_->pconf->specialize(a);
  const auto sb = offline_->pconf->specialize(b);
  EXPECT_GT(sa.memory.bit_distance(sb.memory), 0u);
  // And the diff stays within parameterized frames.
  const auto pf = offline_->pconf->parameterized_frames();
  for (std::size_t f : sa.memory.changed_frames(sb.memory)) {
    EXPECT_NE(std::find(pf.begin(), pf.end(), f), pf.end());
  }
}

TEST_F(BuiltPconf, SpecializationIsFastAndSmall) {
  const auto& inst = offline_->instrumented;
  const auto asg = inst.select_signals({inst.lane_signals[1][1]});
  const auto spec = offline_->pconf->specialize(asg);
  // Evaluation counts only the parameterized bits, a tiny fraction of the
  // configuration.
  EXPECT_LT(spec.bits_evaluated, offline_->pconf->total_bits() / 10);
  // Frame diff against another specialization touches few frames.
  const auto spec0 =
      offline_->pconf->specialize(BitVec(offline_->pconf->num_params()));
  const auto frames = spec0.memory.changed_frames(spec.memory);
  EXPECT_LT(frames.size(), spec.memory.num_frames());
}

TEST_F(BuiltPconf, ArenaHoldsOnlyReachableNodes) {
  // build_pconf drops the intermediate nodes of its conditions: every
  // decision node left is reached from some function.
  const PConf& pconf = *offline_->pconf;
  EXPECT_EQ(reachable_nodes(pconf), pconf.bdd().size() - 2);
}

TEST_F(BuiltPconf, BuildStatsAreConsistent) {
  const auto& st = offline_->pconf_stats;
  EXPECT_EQ(st.lut_cells + st.tlut_cells, offline_->mapping.stats.lut_area);
  EXPECT_GT(st.constant_switch_bits + st.parameterized_switch_bits, 0u);
}

}  // namespace
}  // namespace fpgadbg::bitstream
