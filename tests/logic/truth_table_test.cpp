#include "logic/truth_table.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "support/error.h"
#include "support/rng.h"

namespace fpgadbg::logic {
namespace {

TruthTable random_tt(int num_vars, Rng& rng) {
  TruthTable t(num_vars);
  for (std::size_t i = 0; i < t.num_bits(); ++i) {
    t.set_bit(i, rng.next_bool());
  }
  return t;
}

TEST(TruthTable, Constants) {
  EXPECT_TRUE(TruthTable::zero(4).is_const0());
  EXPECT_TRUE(TruthTable::one(4).is_const1());
  EXPECT_FALSE(TruthTable::one(4).is_const0());
  EXPECT_EQ(TruthTable::one(4).count_ones(), 16u);
}

TEST(TruthTable, ZeroVarConstants) {
  EXPECT_TRUE(TruthTable::zero(0).is_const0());
  EXPECT_TRUE(TruthTable::one(0).is_const1());
  EXPECT_EQ(TruthTable::one(0).num_bits(), 1u);
}

TEST(TruthTable, VarProjection) {
  for (int n = 1; n <= 8; ++n) {
    for (int v = 0; v < n; ++v) {
      const TruthTable t = TruthTable::var(n, v);
      for (std::uint64_t a = 0; a < (1ULL << n); ++a) {
        EXPECT_EQ(t.evaluate(a), ((a >> v) & 1) != 0)
            << "n=" << n << " v=" << v << " a=" << a;
      }
    }
  }
}

TEST(TruthTable, FromBitsAnd2) {
  const TruthTable and2 = TruthTable::from_bits(0x8, 2);
  EXPECT_FALSE(and2.evaluate(0b00));
  EXPECT_FALSE(and2.evaluate(0b01));
  EXPECT_FALSE(and2.evaluate(0b10));
  EXPECT_TRUE(and2.evaluate(0b11));
}

TEST(TruthTable, FromBinaryRoundTrip) {
  const TruthTable t = TruthTable::from_binary("0110");
  EXPECT_EQ(t, tt_xor(2));
  EXPECT_EQ(t.to_binary(), "0110");
  EXPECT_THROW(TruthTable::from_binary("011"), Error);
}

TEST(TruthTable, BooleanOps) {
  Rng rng(3);
  for (int n : {0, 1, 3, 6, 7, 9}) {
    const TruthTable a = random_tt(n, rng);
    const TruthTable b = random_tt(n, rng);
    for (std::uint64_t x = 0; x < (1ULL << n); ++x) {
      EXPECT_EQ((a & b).evaluate(x), a.evaluate(x) && b.evaluate(x));
      EXPECT_EQ((a | b).evaluate(x), a.evaluate(x) || b.evaluate(x));
      EXPECT_EQ((a ^ b).evaluate(x), a.evaluate(x) != b.evaluate(x));
      EXPECT_EQ((~a).evaluate(x), !a.evaluate(x));
    }
  }
}

TEST(TruthTable, CofactorsAgreeWithEvaluation) {
  Rng rng(5);
  for (int n : {1, 2, 5, 6, 7, 8}) {
    const TruthTable f = random_tt(n, rng);
    for (int v = 0; v < n; ++v) {
      const TruthTable f0 = f.cofactor0(v);
      const TruthTable f1 = f.cofactor1(v);
      for (std::uint64_t x = 0; x < (1ULL << n); ++x) {
        const std::uint64_t x0 = x & ~(1ULL << v);
        const std::uint64_t x1 = x | (1ULL << v);
        EXPECT_EQ(f0.evaluate(x), f.evaluate(x0)) << n << ' ' << v << ' ' << x;
        EXPECT_EQ(f1.evaluate(x), f.evaluate(x1)) << n << ' ' << v << ' ' << x;
      }
    }
  }
}

TEST(TruthTable, ShannonExpansionIdentity) {
  Rng rng(7);
  for (int n : {2, 4, 7}) {
    const TruthTable f = random_tt(n, rng);
    for (int v = 0; v < n; ++v) {
      const TruthTable x = TruthTable::var(n, v);
      const TruthTable rebuilt = (x & f.cofactor1(v)) | (~x & f.cofactor0(v));
      EXPECT_EQ(rebuilt, f);
    }
  }
}

TEST(TruthTable, SupportDetection) {
  const int n = 5;
  // f = x0 xor x3: support {0,3}
  const TruthTable f = TruthTable::var(n, 0) ^ TruthTable::var(n, 3);
  EXPECT_TRUE(f.depends_on(0));
  EXPECT_FALSE(f.depends_on(1));
  EXPECT_FALSE(f.depends_on(2));
  EXPECT_TRUE(f.depends_on(3));
  EXPECT_EQ(f.support(), (std::vector<int>{0, 3}));
  EXPECT_EQ(f.support_size(), 2);
  EXPECT_EQ(TruthTable::one(n).support_size(), 0);
}

TEST(TruthTable, ExtendedToPreservesFunction) {
  Rng rng(11);
  for (int n : {0, 1, 3, 6}) {
    const TruthTable f = random_tt(n, rng);
    for (int m : {n, n + 1, n + 3, 8}) {
      if (m < n) continue;
      const TruthTable g = f.extended_to(m);
      EXPECT_EQ(g.num_vars(), m);
      for (std::uint64_t x = 0; x < (1ULL << m); ++x) {
        EXPECT_EQ(g.evaluate(x), f.evaluate(x & ((1ULL << n) - 1)));
      }
    }
  }
}

TEST(TruthTable, PermutedRelabelsVariables) {
  // f(x0,x1,x2) = x0 & ~x2, permute to g(y) with x0->y2, x1->y0, x2->y1.
  const TruthTable f = TruthTable::var(3, 0) & ~TruthTable::var(3, 2);
  const TruthTable g = f.permuted({2, 0, 1}, 3);
  for (std::uint64_t y = 0; y < 8; ++y) {
    const bool x0 = (y >> 2) & 1;
    const bool x2 = (y >> 1) & 1;
    EXPECT_EQ(g.evaluate(y), x0 && !x2);
  }
}

/// permuted() by its definition, one bit at a time: each destination
/// assignment gathers its source assignment.
TruthTable permuted_bit_loop(const TruthTable& f, const std::vector<int>& perm,
                             int new_num_vars) {
  TruthTable t(new_num_vars);
  for (std::size_t idx = 0; idx < t.num_bits(); ++idx) {
    std::uint64_t src = 0;
    for (int v = 0; v < f.num_vars(); ++v) {
      if ((idx >> perm[static_cast<std::size_t>(v)]) & 1U) src |= 1ULL << v;
    }
    t.set_bit(idx, f.bit(static_cast<std::size_t>(src)));
  }
  return t;
}

/// A random injective map of n variables into m (m >= n), increasing when
/// `monotone`.
std::vector<int> random_injection(int n, int m, bool monotone, Rng& rng) {
  std::vector<int> slots(static_cast<std::size_t>(m));
  for (int i = 0; i < m; ++i) slots[static_cast<std::size_t>(i)] = i;
  rng.shuffle(slots);
  std::vector<int> perm(slots.begin(), slots.begin() + n);
  if (monotone) std::sort(perm.begin(), perm.end());
  return perm;
}

TEST(TruthTable, PermutedMatchesBitLoop) {
  // Every swap kind is exercised: inside a word (both variables < 6), across
  // the half-words of a word pair (5 <-> 6) and between whole words.
  Rng rng(0x9e41);
  for (int trial = 0; trial < 600; ++trial) {
    const int n = static_cast<int>(rng.next_in(0, 12));
    const int m = static_cast<int>(rng.next_in(std::max(n, 1), 12));
    const bool monotone = trial % 2 == 0;
    const std::vector<int> perm = random_injection(n, m, monotone, rng);
    const TruthTable f = random_tt(n, rng);
    ASSERT_EQ(f.permuted(perm, m), permuted_bit_loop(f, perm, m))
        << "trial " << trial << ": " << n << " -> " << m << " vars, "
        << (monotone ? "monotone" : "shuffled");
  }
}

TEST(TruthTable, PermutedDropsVariablesMappedAboveTheNewWidth) {
  // Spread a random k-variable g over n variables, then gather it back: the
  // n - k irrelevant variables go at or above k and are dropped.
  Rng rng(0x5eed);
  for (int trial = 0; trial < 200; ++trial) {
    const int n = static_cast<int>(rng.next_in(1, 12));
    const int k = static_cast<int>(rng.next_in(0, n));
    const TruthTable g = random_tt(k, rng);
    const std::vector<int> spread = random_injection(k, n, trial % 2 == 0, rng);
    const TruthTable f = permuted_bit_loop(g, spread, n);
    std::vector<int> gather(static_cast<std::size_t>(n), -1);
    for (int i = 0; i < k; ++i) {
      gather[static_cast<std::size_t>(spread[static_cast<std::size_t>(i)])] = i;
    }
    std::vector<int> dropped;
    for (int i = k; i < n; ++i) dropped.push_back(i);
    rng.shuffle(dropped);
    for (int& d : gather) {
      if (d < 0) {
        d = dropped.back();
        dropped.pop_back();
      }
    }
    ASSERT_EQ(f.permuted(gather, k), g) << "trial " << trial;
  }
}

TEST(TruthTable, PermutedRejectsCollidingTargets) {
  const TruthTable f = tt_and(2);
  EXPECT_THROW(f.permuted({0, 0}, 2), Error);
  EXPECT_THROW(f.permuted({0, 2}, 2), Error);
}

TEST(TruthTable, MuxDetection) {
  const TruthTable mux = tt_mux21();
  EXPECT_TRUE(mux.is_mux(/*sel=*/2, /*hi=*/1, /*lo=*/0));
  EXPECT_FALSE(mux.is_mux(0, 1, 2));
  EXPECT_FALSE(tt_and(3).is_mux(2, 1, 0));
}

TEST(TruthTable, HexOutput) {
  EXPECT_EQ(tt_and(2).to_hex(), "8");
  EXPECT_EQ(tt_xor(2).to_hex(), "6");
  EXPECT_EQ(tt_and(6).to_hex(), "8000000000000000");
  EXPECT_EQ(TruthTable::one(3).to_hex(), "ff");
}

TEST(TruthTable, GateBuilders) {
  EXPECT_EQ(tt_and(3).count_ones(), 1u);
  EXPECT_EQ(tt_or(3).count_ones(), 7u);
  EXPECT_EQ(tt_nand(3), ~tt_and(3));
  EXPECT_EQ(tt_nor(3), ~tt_or(3));
  EXPECT_EQ(tt_xor(3).count_ones(), 4u);
}

TEST(TruthTable, HashDiscriminates) {
  Rng rng(13);
  const TruthTable a = random_tt(8, rng);
  TruthTable b = a;
  EXPECT_EQ(a.hash(), b.hash());
  b.set_bit(5, !b.bit(5));
  EXPECT_NE(a.hash(), b.hash());
}

class TruthTableWidths : public ::testing::TestWithParam<int> {};

TEST_P(TruthTableWidths, DeMorganHoldsAtEveryWidth) {
  const int n = GetParam();
  Rng rng(100 + static_cast<std::uint64_t>(n));
  const TruthTable a = random_tt(n, rng);
  const TruthTable b = random_tt(n, rng);
  EXPECT_EQ(~(a & b), (~a | ~b));
  EXPECT_EQ(~(a | b), (~a & ~b));
  EXPECT_EQ(a ^ b, (a & ~b) | (~a & b));
}

TEST_P(TruthTableWidths, DoubleCofactorIsIdempotent) {
  const int n = GetParam();
  if (n == 0) return;
  Rng rng(200 + static_cast<std::uint64_t>(n));
  const TruthTable f = random_tt(n, rng);
  for (int v = 0; v < n; ++v) {
    EXPECT_EQ(f.cofactor0(v).cofactor0(v), f.cofactor0(v));
    EXPECT_EQ(f.cofactor1(v).cofactor1(v), f.cofactor1(v));
    EXPECT_FALSE(f.cofactor0(v).depends_on(v));
  }
}

INSTANTIATE_TEST_SUITE_P(AllWidths, TruthTableWidths,
                         ::testing::Values(0, 1, 2, 3, 4, 5, 6, 7, 8, 10));

}  // namespace
}  // namespace fpgadbg::logic
