#include <gtest/gtest.h>

#include "bitstream/pconf.h"
#include "debug/flow.h"
#include "genbench/genbench.h"
#include "support/error.h"
#include "support/rng.h"
#include "support/telemetry.h"

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

/// Parity of `vars` XOR a product of two or three distinct ones of them:
/// a function whose support is exactly `vars` (every variable's
/// derivative is 1 XOR a product of others, never constant 0).
logic::BddRef exact_support_function(logic::BddManager& bdd,
                                     std::vector<int> vars, Rng& rng) {
  logic::BddRef f = bdd.zero();
  for (const int v : vars) f = bdd.bdd_xor(f, bdd.var(v));
  if (vars.size() < 2) return rng.next_bool() ? f : bdd.bdd_not(f);
  rng.shuffle(vars);
  logic::BddRef product = bdd.bdd_and(bdd.var(vars[0]), bdd.var(vars[1]));
  if (vars.size() > 2 && rng.next_bool()) {
    product = bdd.bdd_and(product, bdd.var(vars[2]));
  }
  return bdd.bdd_xor(f, product);
}

TEST(PConfIncremental, TableAndWideGroupsMatchFullSpecialization) {
  // 13 parameters.  Two groups are wider than the table cap (12 and 11
  // parameters) and sweep their nodes; the others read table rows, with
  // fewer than 64 codes, exactly 64, more than 64, and the cap itself
  // (rows of three words: over 128 distinct roots).  p12 is read by
  // table groups only.
  std::vector<std::string> names;
  for (int p = 0; p < 13; ++p) names.push_back("p" + std::to_string(p));
  PConf pconf(kFrameBits * 4, names);
  auto& bdd = pconf.bdd();
  const auto range = [](int lo, int hi) {
    std::vector<int> vars;
    for (int v = lo; v <= hi; ++v) vars.push_back(v);
    return vars;
  };
  const std::vector<std::pair<std::vector<int>, int>> groups = {
      {range(0, 11), 40},           // wide, 12 parameters
      {range(1, 11), 30},           // wide, 11 parameters
      {range(0, 9), 150},           // at the cap, 1,024 codes
      {range(6, 12), 60},           // 128 codes
      {{2, 4, 6, 8, 10, 12}, 50},   // 64 codes
      {{3, 7, 12}, 20},             // 8 codes
      {{12}, 6},                    // 2 codes
  };
  ASSERT_GT(groups[0].first.size(), PConf::kTableParams);
  ASSERT_GT(groups[1].first.size(), PConf::kTableParams);
  ASSERT_EQ(groups[2].first.size(), PConf::kTableParams);
  Rng rng(1306);
  std::vector<std::size_t> bits(pconf.total_bits());
  for (std::size_t bit = 0; bit < bits.size(); ++bit) bits[bit] = bit;
  rng.shuffle(bits);  // groups and roots interleave in address order
  std::size_t next_bit = 0;
  std::vector<std::size_t> first_bit;  // per group, where its bits start
  for (const auto& [vars, count] : groups) {
    first_bit.push_back(next_bit);
    for (int k = 0; k < count; ++k) {
      const logic::BddRef f = exact_support_function(bdd, vars, rng);
      ASSERT_EQ(bdd.support(f), vars);
      // Some roots drive several bits.
      for (int copy = 0, copies = 1 + static_cast<int>(rng.next_below(3));
           copy < copies; ++copy) {
        pconf.set_function(bits[next_bit++], f);
      }
    }
  }

  Assignment prev;
  auto base = pconf.specialize(prev);
  ConfigMemory loaded = base.memory;
  const auto turn = [&](const Assignment& next, const std::string& where) {
    base = checked_step(pconf, base, loaded, prev, next, where);
    prev = next;
  };
  for (int trial = 0; trial < 24; ++trial) {
    Assignment next;
    for (const std::string& p : names) next[p] = rng.next_bool();
    turn(next, "trial " + std::to_string(trial));
  }
  for (int trial = 0; trial < 26; ++trial) {  // each parameter flips twice
    Assignment next = prev;
    const std::string& p = names[static_cast<std::size_t>(trial % 13)];
    next[p] = !next[p];
    turn(next, "flip " + p);
  }

  // The index follows edits: a table group's function and a wide group's
  // function change, and a new table group appears.
  pconf.set_function(bits[first_bit[2]],
                     exact_support_function(bdd, range(0, 9), rng));
  pconf.set_function(bits[first_bit[0]],
                     exact_support_function(bdd, range(0, 11), rng));
  pconf.set_function(bits[next_bit],
                     exact_support_function(bdd, {5, 12}, rng));
  base = pconf.specialize(prev);
  loaded = base.memory;
  for (int trial = 0; trial < 8; ++trial) {
    Assignment next;
    for (const std::string& p : names) next[p] = rng.next_bool();
    turn(next, "after edit " + std::to_string(trial));
  }

  // The counters tell the kernels apart: a turn on p12 reads only tables,
  // a turn on p11 also sweeps the wide groups' nodes.
  telemetry::Counter& nodes =
      telemetry::metrics().counter("scg.bdd_nodes_visited");
  telemetry::Counter& rows = telemetry::metrics().counter("scg.table_rows_read");
  const auto respecialize_flip = [&](const std::string& p) {
    Assignment next = prev;
    next[p] = !next[p];
    pconf.respecialize(loaded, pconf.values_from(prev), pconf.values_from(next));
    prev = next;
  };
  std::uint64_t nodes_before = nodes.value(), rows_before = rows.value();
  respecialize_flip("p12");
  EXPECT_EQ(nodes.value(), nodes_before) << "a table turn visited BDD nodes";
  // {6..12}, {2,4,..,12}, {3,7,12}, {12} and the edit's {5,12}.
  EXPECT_EQ(rows.value() - rows_before, 2u * 5u);
  nodes_before = nodes.value();
  rows_before = rows.value();
  respecialize_flip("p11");
  EXPECT_GT(nodes.value(), nodes_before) << "a wide turn visited no node";
  EXPECT_EQ(rows.value() - rows_before, 2u);  // {6..12}
  EXPECT_EQ(loaded, pconf.specialize(prev).memory);
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
