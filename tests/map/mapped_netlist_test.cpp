#include "map/mapped_netlist.h"

#include <gtest/gtest.h>

#include "logic/truth_table.h"
#include "support/error.h"
#include "support/rng.h"

namespace fpgadbg::map {
namespace {

using logic::TruthTable;
using logic::tt_and;
using logic::tt_mux21;

TEST(MappedNetlist, BuildAndCount) {
  MappedNetlist mn("m");
  const CellId a = mn.add_source(MKind::kInput, "a");
  const CellId b = mn.add_source(MKind::kInput, "b");
  const CellId p = mn.add_source(MKind::kParam, "p");
  const CellId lut = mn.add_cell(MKind::kLut, "l", {a, b}, {}, tt_and(2));
  const CellId tcon =
      mn.add_cell(MKind::kTcon, "t", {lut, a}, {p}, tt_mux21());
  mn.add_output(tcon, "o");
  mn.check();
  EXPECT_EQ(mn.count(MKind::kLut), 1u);
  EXPECT_EQ(mn.count(MKind::kTcon), 1u);
  EXPECT_EQ(mn.lut_area(), 1u);
}

TEST(MappedNetlist, TconAddsNoDepth) {
  MappedNetlist mn("m");
  const CellId a = mn.add_source(MKind::kInput, "a");
  const CellId b = mn.add_source(MKind::kInput, "b");
  const CellId p = mn.add_source(MKind::kParam, "p");
  const CellId lut = mn.add_cell(MKind::kLut, "l", {a, b}, {}, tt_and(2));
  const CellId tcon =
      mn.add_cell(MKind::kTcon, "t", {lut, a}, {p}, tt_mux21());
  mn.add_output(tcon, "o");
  EXPECT_EQ(mn.depth(), 1);  // LUT level only; TCON is routing
  const CellId lut2 =
      mn.add_cell(MKind::kTlut, "l2", {tcon}, {p},
                  TruthTable::var(2, 0) ^ TruthTable::var(2, 1));
  mn.add_output(lut2, "o2");
  EXPECT_EQ(mn.depth(), 2);
}

TEST(MappedNetlist, RejectsParamOnPlainLut) {
  MappedNetlist mn("m");
  const CellId a = mn.add_source(MKind::kInput, "a");
  const CellId p = mn.add_source(MKind::kParam, "p");
  EXPECT_THROW(
      mn.add_cell(MKind::kLut, "l", {a}, {p}, tt_and(2)), Error);
}

TEST(MappedNetlist, RejectsNonParamAsParamInput) {
  MappedNetlist mn("m");
  const CellId a = mn.add_source(MKind::kInput, "a");
  const CellId b = mn.add_source(MKind::kInput, "b");
  EXPECT_THROW(
      mn.add_cell(MKind::kTlut, "l", {a}, {b}, tt_and(2)), Error);
}

TEST(MappedNetlist, CheckRejectsFakeTcon) {
  MappedNetlist mn("m");
  const CellId a = mn.add_source(MKind::kInput, "a");
  const CellId b = mn.add_source(MKind::kInput, "b");
  const CellId p = mn.add_source(MKind::kParam, "p");
  // xor(a, p) is not a wire under p=1.
  mn.add_cell(MKind::kTcon, "t", {a, b}, {p},
              TruthTable::var(3, 0) ^ TruthTable::var(3, 2));
  EXPECT_THROW(mn.check(), Error);
}

TEST(MappedNetlist, LatchRoundTrip) {
  MappedNetlist mn("m");
  const CellId a = mn.add_source(MKind::kInput, "a");
  const CellId q = mn.add_latch_source("q", 1);
  const CellId f = mn.add_cell(MKind::kLut, "f", {a, q}, {}, tt_and(2));
  mn.set_latch_input(0, f);
  mn.add_output(q, "o");
  mn.check();
  ASSERT_EQ(mn.latches().size(), 1u);
  EXPECT_EQ(mn.latches()[0].init_value, 1);
  EXPECT_EQ(mn.depth(), 1);
}

/// tcon_source() by cofactoring: every parameter cofactored away, the
/// residual compared with each candidate as a whole table.
int reference_source(const TruthTable& f, int nd, std::uint64_t assignment) {
  TruthTable r = f;
  for (int v = nd; v < f.num_vars(); ++v) {
    r = ((assignment >> (v - nd)) & 1) ? r.cofactor1(v) : r.cofactor0(v);
  }
  if (r.is_const0()) return kTconConst0;
  if (r.is_const1()) return kTconConst1;
  for (int v = 0; v < nd; ++v) {
    if (r == TruthTable::var(f.num_vars(), v)) return v;
  }
  return kTconNotWire;
}

TEST(TconSource, MatchesCofactoringAtEveryWidth) {
  // Each assignment gets its own residual: a constant, a plain input, an
  // inverted input or random logic.  nd = 7 and 8 read two and four words
  // per residual; nd < 6 reads a slice of one word.
  Rng rng(23);
  for (int nd = 0; nd <= 8; ++nd) {
    for (int np = 1; np <= 3; ++np) {
      TruthTable f(nd + np);
      const std::size_t width = std::size_t{1} << nd;
      for (std::uint64_t a = 0; a < (1ULL << np); ++a) {
        const auto kind = nd == 0 ? rng.next_below(2) : rng.next_below(5);
        const int v = nd == 0 ? 0 : static_cast<int>(rng.next_below(
                                        static_cast<std::uint64_t>(nd)));
        for (std::size_t x = 0; x < width; ++x) {
          const bool in = ((x >> v) & 1) != 0;
          const bool bit = kind == 0   ? false
                           : kind == 1 ? true
                           : kind == 2 ? in
                           : kind == 3 ? !in
                                       : rng.next_bool();
          f.set_bit(a * width + x, bit);
        }
      }
      for (std::uint64_t a = 0; a < (1ULL << np); ++a) {
        EXPECT_EQ(tcon_source(f, nd, a), reference_source(f, nd, a))
            << "nd " << nd << " np " << np << " assignment " << a;
      }
    }
  }
}

TEST(MappedNetlist, DuplicateNamesRejected) {
  MappedNetlist mn("m");
  mn.add_source(MKind::kInput, "a");
  EXPECT_THROW(mn.add_source(MKind::kInput, "a"), Error);
}

TEST(MappedNetlist, TopoOrderCoversAllLogic) {
  MappedNetlist mn("m");
  const CellId a = mn.add_source(MKind::kInput, "a");
  CellId prev = a;
  for (int i = 0; i < 5; ++i) {
    prev = mn.add_cell(MKind::kLut, "c" + std::to_string(i), {prev, a}, {},
                       tt_and(2));
  }
  mn.add_output(prev, "o");
  EXPECT_EQ(mn.topo_order().size(), 5u);
  EXPECT_EQ(mn.depth(), 5);
}

}  // namespace
}  // namespace fpgadbg::map
