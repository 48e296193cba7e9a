#include "logic/truth_table.h"

#include <algorithm>
#include <array>
#include <bit>

#include "support/error.h"

namespace fpgadbg::logic {

namespace {
constexpr std::size_t kWordBits = 64;

std::size_t words_for(int num_vars) {
  const std::size_t bits = std::size_t{1} << num_vars;
  return (bits + kWordBits - 1) / kWordBits;
}
}  // namespace

TruthTable::TruthTable(int num_vars) : num_vars_(num_vars) {
  FPGADBG_REQUIRE(num_vars >= 0 && num_vars <= kMaxVars,
                  "TruthTable variable count out of range");
  words_.assign(words_for(num_vars), 0);
}

TruthTable TruthTable::zero(int num_vars) { return TruthTable(num_vars); }

TruthTable TruthTable::one(int num_vars) {
  TruthTable t(num_vars);
  for (auto& w : t.words_) w = ~0ULL;
  t.mask_tail();
  return t;
}

TruthTable TruthTable::var(int num_vars, int index) {
  FPGADBG_REQUIRE(index >= 0 && index < num_vars,
                  "TruthTable::var index out of range");
  TruthTable t(num_vars);
  if (index < 6) {
    for (auto& w : t.words_) w = kVarMask[index];
  } else {
    // Variable >= 6 selects whole words: word w has x_index == 1 iff the
    // bit (index - 6) of w is set.
    for (std::size_t w = 0; w < t.words_.size(); ++w) {
      if ((w >> (index - 6)) & 1U) t.words_[w] = ~0ULL;
    }
  }
  t.mask_tail();
  return t;
}

TruthTable TruthTable::from_bits(std::uint64_t bits, int num_vars) {
  FPGADBG_REQUIRE(num_vars >= 0 && num_vars <= 6,
                  "from_bits supports at most 6 variables");
  TruthTable t(num_vars);
  t.words_[0] = bits;
  t.mask_tail();
  return t;
}

TruthTable TruthTable::from_binary(const std::string& bits) {
  const std::size_t n = bits.size();
  FPGADBG_REQUIRE(n > 0 && (n & (n - 1)) == 0,
                  "binary truth table length must be a power of two");
  int num_vars = std::countr_zero(n);
  FPGADBG_REQUIRE(num_vars <= kMaxVars, "binary truth table too large");
  TruthTable t(num_vars);
  for (std::size_t i = 0; i < n; ++i) {
    const char c = bits[n - 1 - i];  // MSB first: last char is bit 0
    FPGADBG_REQUIRE(c == '0' || c == '1', "binary truth table digit");
    t.set_bit(i, c == '1');
  }
  return t;
}

TruthTable TruthTable::from_words(int num_vars,
                                  std::vector<std::uint64_t> words) {
  TruthTable t(num_vars);
  FPGADBG_REQUIRE(words.size() == t.words_.size(),
                  "from_words: word count does not match variable count");
  t.words_ = std::move(words);
  t.mask_tail();
  return t;
}

bool TruthTable::bit(std::size_t index) const {
  FPGADBG_ASSERT(index < num_bits(), "TruthTable::bit out of range");
  return (words_[index / kWordBits] >> (index % kWordBits)) & 1ULL;
}

void TruthTable::set_bit(std::size_t index, bool value) {
  FPGADBG_ASSERT(index < num_bits(), "TruthTable::set_bit out of range");
  const std::uint64_t mask = 1ULL << (index % kWordBits);
  if (value) {
    words_[index / kWordBits] |= mask;
  } else {
    words_[index / kWordBits] &= ~mask;
  }
}

bool TruthTable::evaluate(std::uint64_t assignment) const {
  const std::uint64_t mask = num_vars_ >= 64 ? ~0ULL
                                             : ((1ULL << num_vars_) - 1);
  return bit(static_cast<std::size_t>(assignment & mask));
}

TruthTable TruthTable::operator~() const {
  TruthTable t(*this);
  for (auto& w : t.words_) w = ~w;
  t.mask_tail();
  return t;
}

TruthTable TruthTable::operator&(const TruthTable& o) const {
  FPGADBG_ASSERT(num_vars_ == o.num_vars_, "TruthTable arity mismatch");
  TruthTable t(*this);
  for (std::size_t w = 0; w < words_.size(); ++w) t.words_[w] &= o.words_[w];
  return t;
}

TruthTable TruthTable::operator|(const TruthTable& o) const {
  FPGADBG_ASSERT(num_vars_ == o.num_vars_, "TruthTable arity mismatch");
  TruthTable t(*this);
  for (std::size_t w = 0; w < words_.size(); ++w) t.words_[w] |= o.words_[w];
  return t;
}

TruthTable TruthTable::operator^(const TruthTable& o) const {
  FPGADBG_ASSERT(num_vars_ == o.num_vars_, "TruthTable arity mismatch");
  TruthTable t(*this);
  for (std::size_t w = 0; w < words_.size(); ++w) t.words_[w] ^= o.words_[w];
  return t;
}

bool TruthTable::is_const0() const {
  for (auto w : words_) {
    if (w != 0) return false;
  }
  return true;
}

bool TruthTable::is_const1() const { return (~*this).is_const0(); }

TruthTable TruthTable::cofactor0(int v) const {
  FPGADBG_ASSERT(v >= 0 && v < num_vars_, "cofactor variable out of range");
  TruthTable t(*this);
  if (v < 6) {
    const int shift = 1 << v;
    for (auto& w : t.words_) {
      const std::uint64_t lo = w & ~kVarMask[v];
      w = lo | (lo << shift);
    }
  } else {
    const std::size_t stride = std::size_t{1} << (v - 6);
    for (std::size_t w = 0; w < t.words_.size(); ++w) {
      if ((w >> (v - 6)) & 1U) t.words_[w] = t.words_[w - stride];
    }
  }
  return t;
}

TruthTable TruthTable::cofactor1(int v) const {
  FPGADBG_ASSERT(v >= 0 && v < num_vars_, "cofactor variable out of range");
  TruthTable t(*this);
  if (v < 6) {
    const int shift = 1 << v;
    for (auto& w : t.words_) {
      const std::uint64_t hi = w & kVarMask[v];
      w = hi | (hi >> shift);
    }
  } else {
    const std::size_t stride = std::size_t{1} << (v - 6);
    for (std::size_t w = 0; w < t.words_.size(); ++w) {
      if (!((w >> (v - 6)) & 1U)) t.words_[w] = t.words_[w + stride];
    }
  }
  return t;
}

bool TruthTable::depends_on(int v) const {
  return cofactor0(v) != cofactor1(v);
}

std::vector<int> TruthTable::support() const {
  std::vector<int> vars;
  for (int v = 0; v < num_vars_; ++v) {
    if (depends_on(v)) vars.push_back(v);
  }
  return vars;
}

int TruthTable::support_size() const {
  return static_cast<int>(support().size());
}

std::size_t TruthTable::count_ones() const {
  std::size_t total = 0;
  for (auto w : words_) total += std::popcount(w);
  return total;
}

TruthTable TruthTable::extended_to(int num_vars) const {
  FPGADBG_REQUIRE(num_vars >= num_vars_ && num_vars <= kMaxVars,
                  "extended_to cannot shrink a truth table");
  TruthTable t(num_vars);
  if (num_vars_ >= 6) {
    // Replicate whole-word blocks.
    const std::size_t src_words = words_.size();
    for (std::size_t w = 0; w < t.words_.size(); ++w) {
      t.words_[w] = words_[w % src_words];
    }
  } else {
    // Replicate the sub-word pattern across a word, then across words.
    std::uint64_t pattern = words_[0];
    for (int v = num_vars_; v < 6; ++v) {
      pattern |= pattern << (1 << v);
    }
    for (auto& w : t.words_) w = pattern;
  }
  t.mask_tail();
  return t;
}

TruthTable TruthTable::permuted(const std::vector<int>& perm,
                                int new_num_vars) const {
  FPGADBG_REQUIRE(static_cast<int>(perm.size()) == num_vars_,
                  "permutation arity mismatch");
  const int width = std::max(num_vars_, new_num_vars);
  FPGADBG_REQUIRE(new_num_vars >= 0 && width <= kMaxVars,
                  "permutation width out of range");
  // dest[v]: final position of working variable v.  Variables num_vars_..
  // are the irrelevant ones extended_to() adds; they fill the positions no
  // current variable claims, in ascending order.
  std::array<int, kMaxVars> dest{};
  std::array<bool, kMaxVars> taken{};
  for (int v = 0; v < num_vars_; ++v) {
    const int d = perm[v];
    FPGADBG_REQUIRE(d >= 0 && d < width && !taken[d],
                    "permutation targets must be distinct and in range");
    dest[v] = d;
    taken[d] = true;
  }
  for (int v = num_vars_, free = 0; v < width; ++v, ++free) {
    while (taken[free]) ++free;
    dest[v] = free;
  }

  // Bubble the variables into place: one adjacent swap per inversion.
  TruthTable t = extended_to(width);
  std::array<int, kMaxVars> at{};  // working variable at each position
  for (int p = 0; p < width; ++p) at[p] = p;
  for (bool swapped = true; swapped;) {
    swapped = false;
    for (int j = 0; j + 1 < width; ++j) {
      if (dest[at[j]] < dest[at[j + 1]]) continue;
      t.swap_adjacent(j);
      std::swap(at[j], at[j + 1]);
      swapped = true;
    }
  }
  if (new_num_vars == width) return t;
  // Drop the top variables: they were mapped at or above new_num_vars.
  t.words_.resize(words_for(new_num_vars));
  t.num_vars_ = new_num_vars;
  t.mask_tail();
  return t;
}

void TruthTable::swap_adjacent(int j) {
  if (j + 1 < 6) {
    // Inside each word: bits with x_j = 1, x_{j+1} = 0 trade places with
    // bits with x_j = 0, x_{j+1} = 1, which sit 2^j positions higher.
    const std::uint64_t up = kVarMask[j] & ~kVarMask[j + 1];
    const std::uint64_t down = ~kVarMask[j] & kVarMask[j + 1];
    const int shift = 1 << j;
    for (auto& w : words_) {
      w = (w & ~(up | down)) | ((w & up) << shift) | ((w & down) >> shift);
    }
  } else if (j == 5) {
    // x6 picks the odd word of each pair: the high half of the even word
    // (x5 = 1, x6 = 0) trades with the low half of the odd one.
    for (std::size_t w = 0; w < words_.size(); w += 2) {
      const std::uint64_t even = words_[w];
      const std::uint64_t odd = words_[w + 1];
      words_[w] = (even & 0x00000000ffffffffULL) | (odd << 32);
      words_[w + 1] = (odd & 0xffffffff00000000ULL) | (even >> 32);
    }
  } else {
    // Both variables select whole words.
    const std::size_t stride = std::size_t{1} << (j - 6);
    for (std::size_t w = 0; w < words_.size(); ++w) {
      if ((w & stride) != 0 && (w & (stride << 1)) == 0) {
        std::swap(words_[w], words_[w + stride]);
      }
    }
  }
}

bool TruthTable::is_mux(int sel, int hi, int lo) const {
  if (num_vars_ < 3) return false;
  const TruthTable f0 = cofactor0(sel);
  const TruthTable f1 = cofactor1(sel);
  return f1 == TruthTable::var(num_vars_, hi) &&
         f0 == TruthTable::var(num_vars_, lo);
}

std::string TruthTable::to_hex() const {
  static const char* digits = "0123456789abcdef";
  const std::size_t nibbles = std::max<std::size_t>(1, num_bits() / 4);
  std::string out(nibbles, '0');
  for (std::size_t n = 0; n < nibbles; ++n) {
    unsigned value = 0;
    for (unsigned b = 0; b < 4; ++b) {
      const std::size_t index = n * 4 + b;
      if (index < num_bits() && bit(index)) value |= 1U << b;
    }
    out[nibbles - 1 - n] = digits[value];
  }
  return out;
}

std::string TruthTable::to_binary() const {
  std::string out(num_bits(), '0');
  for (std::size_t i = 0; i < num_bits(); ++i) {
    if (bit(i)) out[num_bits() - 1 - i] = '1';
  }
  return out;
}

std::uint64_t TruthTable::hash() const {
  std::uint64_t h = 0x9e3779b97f4a7c15ULL ^ static_cast<std::uint64_t>(num_vars_);
  for (auto w : words_) {
    h ^= w + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  }
  return h;
}

void TruthTable::mask_tail() {
  const std::size_t bits = num_bits();
  if (bits < kWordBits) {
    words_[0] &= (1ULL << bits) - 1;
  }
}

TruthTable tt_and(int num_vars) {
  TruthTable t = TruthTable::one(num_vars);
  for (int v = 0; v < num_vars; ++v) t = t & TruthTable::var(num_vars, v);
  return t;
}

TruthTable tt_or(int num_vars) {
  TruthTable t = TruthTable::zero(num_vars);
  for (int v = 0; v < num_vars; ++v) t = t | TruthTable::var(num_vars, v);
  return t;
}

TruthTable tt_xor(int num_vars) {
  TruthTable t = TruthTable::zero(num_vars);
  for (int v = 0; v < num_vars; ++v) t = t ^ TruthTable::var(num_vars, v);
  return t;
}

TruthTable tt_nand(int num_vars) { return ~tt_and(num_vars); }
TruthTable tt_nor(int num_vars) { return ~tt_or(num_vars); }

TruthTable tt_mux21() {
  const TruthTable lo = TruthTable::var(3, 0);
  const TruthTable hi = TruthTable::var(3, 1);
  const TruthTable sel = TruthTable::var(3, 2);
  return (sel & hi) | (~sel & lo);
}

}  // namespace fpgadbg::logic
