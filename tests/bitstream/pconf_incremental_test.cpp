#include <gtest/gtest.h>

#include "bitstream/pconf.h"
#include "debug/flow.h"
#include "genbench/genbench.h"
#include "support/error.h"
#include "support/rng.h"

namespace fpgadbg::bitstream {
namespace {

constexpr std::size_t kFrameBits = arch::FrameGeometry::kFrameBits;

using Assignment = std::unordered_map<std::string, bool>;

/// Ascending addresses of the bits where `a` and `b` differ, bit by bit.
std::vector<std::size_t> differing_bits(const ConfigMemory& a,
                                        const ConfigMemory& b) {
  std::vector<std::size_t> bits;
  for (std::size_t bit = 0; bit < a.total_bits(); ++bit) {
    if (a.get(bit) != b.get(bit)) bits.push_back(bit);
  }
  return bits;
}

/// Functions whose support contains a parameter that differs between `a`
/// and `b`, counted with BddManager::support per function.
std::size_t dependent_functions(const PConf& pconf, const Assignment& a,
                                const Assignment& b) {
  const auto value = [](const Assignment& asg, const std::string& name) {
    const auto it = asg.find(name);
    return it != asg.end() && it->second;
  };
  std::vector<bool> changed;
  for (const std::string& name : pconf.param_names()) {
    changed.push_back(value(a, name) != value(b, name));
  }
  const FunctionView view = pconf.functions();
  std::size_t count = 0;
  for (std::size_t i = 0; i < view.count; ++i) {
    for (int v : pconf.bdd().support(view.refs[i])) {
      if (changed[static_cast<std::size_t>(v)]) {
        ++count;
        break;
      }
    }
  }
  return count;
}

/// One incremental step from `prev_asg` to `asg`, checked against the
/// independent per-bit walk of specialize(): the memory, the bits that
/// flipped and the number of functions re-evaluated.  The same step also
/// runs in place on `loaded`, which holds the specialization for
/// `prev_asg` and is left holding the one for `asg`.
PConf::Specialization checked_step(const PConf& pconf,
                                   const PConf::Specialization& prev,
                                   ConfigMemory& loaded,
                                   const Assignment& prev_asg,
                                   const Assignment& asg,
                                   const std::string& where) {
  auto incr = pconf.specialize_incremental(prev, prev_asg, asg);
  const auto before = pconf.specialize(prev_asg);
  const auto after = pconf.specialize(asg);
  const std::vector<std::size_t> flipped =
      differing_bits(before.memory, after.memory);
  const std::size_t dependent = dependent_functions(pconf, prev_asg, asg);
  EXPECT_EQ(incr.memory, after.memory) << where;
  EXPECT_EQ(incr.changed_bits, flipped) << where;
  EXPECT_EQ(incr.bits_evaluated, dependent) << where;

  const auto delta = pconf.respecialize(loaded, pconf.values_from(prev_asg),
                                        pconf.values_from(asg));
  EXPECT_EQ(loaded, after.memory) << where << " (in place)";
  EXPECT_EQ(delta.changed_bits, flipped) << where << " (in place)";
  EXPECT_EQ(delta.bits_evaluated, dependent) << where << " (in place)";
  return incr;
}

TEST(PConfIncremental, MatchesFullSpecialization) {
  PConf pconf(kFrameBits * 2, {"a", "b", "c", "d"});
  auto& bdd = pconf.bdd();
  Rng rng(11);
  for (std::size_t bit = 0; bit < 300; ++bit) {
    const int v1 = static_cast<int>(rng.next_below(4));
    const int v2 = static_cast<int>(rng.next_below(4));
    pconf.set_function(bit, bdd.bdd_xor(bdd.var(v1), bdd.bdd_and(bdd.var(v2),
                                                                 bdd.var(v1))));
  }
  // Supports that overlap partially ({a,b}, {b,c}, {a,b,c,d}) and share
  // subgraphs, so one changed parameter flags several groups, and one
  // root can drive several bits.
  const logic::BddRef a = bdd.var(0), b = bdd.var(1), c = bdd.var(2),
                      d = bdd.var(3);
  const logic::BddRef ab = bdd.bdd_and(a, b);
  const logic::BddRef bc = bdd.bdd_xor(b, c);
  const logic::BddRef cd = bdd.bdd_or(c, d);
  const logic::BddRef abcd = bdd.bdd_ite(ab, cd, bdd.bdd_and(bc, d));
  const logic::BddRef shared = bdd.bdd_or(bdd.bdd_and(a, bc), bdd.bdd_not(d));
  std::size_t bit = kFrameBits - 3;  // straddles the frame boundary
  for (int copy = 0; copy < 4; ++copy) {
    for (const logic::BddRef f :
         {ab, bc, abcd, bdd.bdd_or(a, b), bdd.bdd_not(bc), shared}) {
      pconf.set_function(bit, f);
      bit += 5;
    }
  }

  Assignment prev{{"a", false}, {"b", true}};
  auto base = pconf.specialize(prev);
  ConfigMemory loaded = base.memory;
  for (int trial = 0; trial < 20; ++trial) {
    Assignment next;
    for (const char* p : {"a", "b", "c", "d"}) next[p] = rng.next_bool();
    base = checked_step(pconf, base, loaded, prev, next,
                        "trial " + std::to_string(trial));
    prev = next;
  }
  // One-parameter turns: each parameter flips four times.
  const char* const params[] = {"a", "b", "c", "d"};
  for (int trial = 0; trial < 16; ++trial) {
    Assignment next = prev;
    const char* p = params[trial % 4];
    next[p] = !next[p];
    base = checked_step(pconf, base, loaded, prev, next,
                        std::string("flip ") + p);
    prev = next;
  }
}

TEST(PConfIncremental, NoChangeEvaluatesNothing) {
  PConf pconf(kFrameBits, {"p", "q"});
  pconf.set_function(0, pconf.bdd().var(0));
  pconf.set_function(1, pconf.bdd().var(1));
  const std::unordered_map<std::string, bool> asg{{"p", true}};
  const auto base = pconf.specialize(asg);
  const auto same = pconf.specialize_incremental(base, asg, asg);
  EXPECT_EQ(same.bits_evaluated, 0u);
  EXPECT_EQ(same.memory, base.memory);

  ConfigMemory loaded = base.memory;
  const BitVec values = pconf.values_from(asg);
  const auto delta = pconf.respecialize(loaded, values, values);
  EXPECT_EQ(delta.bits_evaluated, 0u);
  EXPECT_TRUE(delta.changed_bits.empty());
  EXPECT_EQ(loaded, base.memory);
}

TEST(PConfIncremental, OnlyAffectedBitsEvaluated) {
  PConf pconf(kFrameBits, {"p", "q"});
  auto& bdd = pconf.bdd();
  for (std::size_t bit = 0; bit < 50; ++bit) pconf.set_function(bit, bdd.var(0));
  for (std::size_t bit = 50; bit < 60; ++bit) pconf.set_function(bit, bdd.var(1));
  const std::unordered_map<std::string, bool> a{{"p", false}, {"q", false}};
  const std::unordered_map<std::string, bool> b{{"p", false}, {"q", true}};
  const auto base = pconf.specialize(a);
  const auto incr = pconf.specialize_incremental(base, a, b);
  EXPECT_EQ(incr.bits_evaluated, 10u);  // only the q-dependent bits
  EXPECT_EQ(incr.memory, pconf.specialize(b).memory);
}

TEST(PConfIncremental, IndexFollowsTableEdits) {
  PConf pconf(kFrameBits, {"p", "q"});
  auto& bdd = pconf.bdd();
  for (std::size_t bit = 0; bit < 10; ++bit) pconf.set_function(bit, bdd.var(0));
  const Assignment a{{"p", false}, {"q", false}};
  const Assignment b{{"p", true}, {"q", true}};
  const Assignment c{{"p", false}, {"q", true}};
  pconf.prepare_incremental();

  // A bit given a function after the index was built is re-evaluated.
  pconf.set_function(20, bdd.var(1));
  auto base = pconf.specialize(a);
  auto incr = pconf.specialize_incremental(base, a, c);
  EXPECT_EQ(incr.memory, pconf.specialize(c).memory);
  EXPECT_EQ(incr.bits_evaluated, 1u);
  EXPECT_EQ(incr.changed_bits, (std::vector<std::size_t>{20}));
  ConfigMemory loaded = base.memory;
  auto delta =
      pconf.respecialize(loaded, pconf.values_from(a), pconf.values_from(c));
  EXPECT_EQ(loaded, incr.memory);
  EXPECT_EQ(delta.bits_evaluated, 1u);
  EXPECT_EQ(delta.changed_bits, (std::vector<std::size_t>{20}));

  // A bit turned constant after an incremental step is no longer evaluated.
  pconf.set_function(3, bdd.one());
  base = pconf.specialize(a);
  incr = pconf.specialize_incremental(base, a, b);
  EXPECT_EQ(incr.memory, pconf.specialize(b).memory);
  EXPECT_EQ(incr.bits_evaluated, 10u);
  EXPECT_EQ(incr.changed_bits,
            (std::vector<std::size_t>{0, 1, 2, 4, 5, 6, 7, 8, 9, 20}));
  loaded = base.memory;
  delta = pconf.respecialize(loaded, pconf.values_from(a), pconf.values_from(b));
  EXPECT_EQ(loaded, incr.memory);
  EXPECT_EQ(delta.bits_evaluated, 10u);
  EXPECT_EQ(delta.changed_bits, incr.changed_bits);
}

TEST(PConfIncremental, RealFlowTurnByTurn) {
  genbench::CircuitSpec spec{"incr", 8, 6, 4, 40, 3, 5, 21};
  debug::OfflineOptions options;
  options.instrument.trace_width = 6;
  const auto offline = debug::run_offline(genbench::generate(spec), options);
  const auto& inst = offline.instrumented;
  const PConf& pconf = *offline.pconf;

  auto prev_asg = inst.select_signals({});
  auto prev = pconf.specialize(prev_asg);
  ConfigMemory loaded = prev.memory;
  const std::size_t full_evals = prev.bits_evaluated;
  Rng rng(21);
  std::size_t dense_turns = 0;
  for (int turn = 0; turn < 16; ++turn) {
    std::vector<std::string> signals;
    if (turn % 2 == 0) {
      // Sparse: one lane gets a new signal.
      const auto& lane =
          inst.lane_signals[rng.next_below(inst.lane_signals.size())];
      signals.push_back(lane[rng.next_below(lane.size())]);
    } else {
      // Dense: a fresh signal on every lane that can take one.
      for (const auto& lane : inst.lane_signals) {
        auto trial = signals;
        trial.push_back(lane[rng.next_below(lane.size())]);
        if (inst.try_select_signals(trial).ok()) signals = std::move(trial);
      }
      if (signals.size() == inst.lane_signals.size()) ++dense_turns;
    }
    const auto asg = inst.select_signals(signals);
    prev = checked_step(pconf, prev, loaded, prev_asg, asg,
                        "turn " + std::to_string(turn));
    EXPECT_LE(prev.bits_evaluated, full_evals);
    prev_asg = asg;
  }
  EXPECT_GT(dense_turns, 0u) << "no turn changed every lane";
}

}  // namespace
}  // namespace fpgadbg::bitstream
