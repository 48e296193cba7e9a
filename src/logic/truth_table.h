// Dynamic truth tables over up to kMaxVars variables.
//
// A TruthTable stores the complete function table of a Boolean function as a
// packed bit vector: bit i holds f(x) where x is the little-endian encoding
// of the input assignment (x0 = LSB).  This is the working representation of
// node functions throughout the netlist, mappers and simulator.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace fpgadbg::logic {

/// Bit positions of a one-word table at which variable v (v < 6) is 1.
inline constexpr std::uint64_t kVarMask[6] = {
    0xaaaaaaaaaaaaaaaaULL, 0xccccccccccccccccULL, 0xf0f0f0f0f0f0f0f0ULL,
    0xff00ff00ff00ff00ULL, 0xffff0000ffff0000ULL, 0xffffffff00000000ULL};

class TruthTable {
 public:
  static constexpr int kMaxVars = 16;

  /// Constant-false function of n variables.
  explicit TruthTable(int num_vars = 0);

  static TruthTable zero(int num_vars);
  static TruthTable one(int num_vars);
  /// Projection x_index within an n-variable function.
  static TruthTable var(int num_vars, int index);
  /// Low 2^n bits of `bits` define the table (n <= 6).
  static TruthTable from_bits(std::uint64_t bits, int num_vars);
  /// Binary string, MSB first: "1000" is AND2.  Length must be a power of 2.
  static TruthTable from_binary(const std::string& bits);
  /// Rebuild from raw words (the words() representation); any number of
  /// variables.  Word count must match, tail bits are masked.
  static TruthTable from_words(int num_vars, std::vector<std::uint64_t> words);

  int num_vars() const { return num_vars_; }
  std::size_t num_bits() const { return std::size_t{1} << num_vars_; }

  bool bit(std::size_t index) const;
  void set_bit(std::size_t index, bool value);

  /// Evaluate under an input assignment packed little-endian into a word.
  bool evaluate(std::uint64_t assignment) const;

  TruthTable operator~() const;
  TruthTable operator&(const TruthTable& o) const;
  TruthTable operator|(const TruthTable& o) const;
  TruthTable operator^(const TruthTable& o) const;
  bool operator==(const TruthTable& o) const = default;

  bool is_const0() const;
  bool is_const1() const;

  /// Shannon cofactors with respect to variable v (the result keeps the same
  /// variable count; the cofactored variable becomes irrelevant).
  TruthTable cofactor0(int v) const;
  TruthTable cofactor1(int v) const;

  bool depends_on(int v) const;
  /// Indices of variables the function actually depends on.
  std::vector<int> support() const;
  int support_size() const;

  std::size_t count_ones() const;

  /// Returns a copy extended to `num_vars` variables (new vars irrelevant).
  TruthTable extended_to(int num_vars) const;

  /// Remap variables: new_function(x_perm[0], ..) == old(x0, ..). perm must
  /// be a list of distinct destination indices, one per current variable,
  /// each below max(num_vars(), new_num_vars).  A variable sent at or above
  /// new_num_vars is dropped, so the function must not depend on it.
  /// Works on whole words: the table is extended, then each variable moves
  /// into place by adjacent-variable swaps.
  TruthTable permuted(const std::vector<int>& perm, int new_num_vars) const;

  /// True iff f == (s ? a : b) for input roles (sel, hi, lo); i.e. f is a
  /// 2:1 multiplexer with `sel` as select.
  bool is_mux(int sel, int hi, int lo) const;

  /// Hex string, most-significant nibble first (kitty-style).
  std::string to_hex() const;
  /// Binary string, MSB first.
  std::string to_binary() const;

  /// 64-bit hash suitable for structural hashing.
  std::uint64_t hash() const;

  /// Raw 64-bit words, little-endian bit order; tail bits are zero.
  const std::vector<std::uint64_t>& words() const { return words_; }

 private:
  void mask_tail();
  /// Exchanges variables j and j + 1 in place.
  void swap_adjacent(int j);

  int num_vars_ = 0;
  std::vector<std::uint64_t> words_;
};

/// Convenience builders for common gates (n inputs where meaningful).
TruthTable tt_and(int num_vars);
TruthTable tt_or(int num_vars);
TruthTable tt_xor(int num_vars);
TruthTable tt_nand(int num_vars);
TruthTable tt_nor(int num_vars);
/// 2:1 mux over 3 variables with (v0=lo, v1=hi, v2=sel).
TruthTable tt_mux21();

}  // namespace fpgadbg::logic
