// Byte-level serialization and content hashing for pipeline artifacts.
//
// Every stage artifact is serialized into a flat byte buffer through
// ByteWriter; its content hash is FNV-1a over exactly those bytes, so
// "serialize -> hash" and "serialize -> store -> load -> deserialize ->
// serialize -> hash" agree by construction.  ByteReader is fail-soft: any
// out-of-bounds or malformed read flips a sticky error flag instead of
// throwing, and deserializers surface it as StatusCode::kCorruptArtifact —
// a corrupt cache entry must be a reportable condition, not a crash.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "support/status.h"

namespace fpgadbg::flow {

inline constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
inline constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

inline std::uint64_t fnv1a(const void* data, std::size_t size,
                           std::uint64_t seed = kFnvOffset) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint64_t h = seed;
  for (std::size_t i = 0; i < size; ++i) {
    h ^= p[i];
    h *= kFnvPrime;
  }
  return h;
}

inline std::uint64_t fnv1a(std::string_view bytes,
                           std::uint64_t seed = kFnvOffset) {
  return fnv1a(bytes.data(), bytes.size(), seed);
}

/// Order-sensitive hash mixing for chaining stage keys:
/// combine(stage-name-hash, input-hash, options-hash).
inline std::uint64_t hash_combine(std::uint64_t a, std::uint64_t b) {
  std::uint64_t h = a;
  for (int i = 0; i < 8; ++i) {
    h ^= (b >> (8 * i)) & 0xff;
    h *= kFnvPrime;
  }
  return h;
}

/// Little-endian append-only byte sink.
class ByteWriter {
 public:
  void u8(std::uint8_t v) { buffer_.push_back(static_cast<char>(v)); }
  void u32(std::uint32_t v) { raw(&v, sizeof v); }
  void u64(std::uint64_t v) { raw(&v, sizeof v); }
  void i32(std::int32_t v) { raw(&v, sizeof v); }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
  void boolean(bool v) { u8(v ? 1 : 0); }

  void str(std::string_view s) {
    u64(s.size());
    buffer_.append(s.data(), s.size());
  }

  /// Length-prefixed array of a trivially copyable element type, written
  /// as its in-memory bytes (the element layout is part of the format).
  template <typename T>
  void pod_vec(std::span<const T> v) {
    static_assert(std::is_trivially_copyable_v<T>);
    u64(v.size());
    if (!v.empty()) raw(v.data(), v.size() * sizeof(T));
  }
  void u32_vec(const std::vector<std::uint32_t>& v) {
    pod_vec<std::uint32_t>(v);
  }
  void u64_vec(const std::vector<std::uint64_t>& v) {
    pod_vec<std::uint64_t>(v);
  }
  void str_vec(const std::vector<std::string>& v) {
    u64(v.size());
    for (const std::string& s : v) str(s);
  }

  const std::string& bytes() const { return buffer_; }
  std::string take() { return std::move(buffer_); }
  std::uint64_t content_hash() const { return fnv1a(buffer_); }

 private:
  void raw(const void* data, std::size_t size) {
    buffer_.append(static_cast<const char*>(data), size);
  }

  std::string buffer_;
};

/// Bounds-checked reader over a byte buffer.  After any failed read, ok()
/// is false and every subsequent read returns a zero value; deserializers
/// check ok() once at the end (or at allocation-size boundaries).
class ByteReader {
 public:
  explicit ByteReader(std::string_view bytes) : bytes_(bytes) {}

  bool ok() const { return ok_; }
  std::size_t remaining() const { return bytes_.size() - pos_; }

  /// The sticky failure as a Status (corrupt artifact).
  support::Status status(const std::string& what) const {
    if (ok_) return support::Status();
    return support::Status::corrupt_artifact(what + ": truncated or malformed");
  }

  std::uint8_t u8() {
    std::uint8_t v = 0;
    raw(&v, sizeof v);
    return v;
  }
  std::uint32_t u32() {
    std::uint32_t v = 0;
    raw(&v, sizeof v);
    return v;
  }
  std::uint64_t u64() {
    std::uint64_t v = 0;
    raw(&v, sizeof v);
    return v;
  }
  std::int32_t i32() {
    std::int32_t v = 0;
    raw(&v, sizeof v);
    return v;
  }
  double f64() { return std::bit_cast<double>(u64()); }
  bool boolean() { return u8() != 0; }

  std::string str() {
    const std::uint64_t n = u64();
    if (!check(n)) return {};
    std::string s(bytes_.substr(pos_, n));
    pos_ += n;
    return s;
  }

  /// Reads a u64 element count and checks that that many elements of at
  /// least `min_size` bytes each fit in the bytes left, so callers can size
  /// an allocation from it.  A count that cannot fit fails the reader and
  /// reads as 0.  The check divides instead of multiplying: a forged count
  /// must not wrap the product into a small number.
  std::uint64_t count(std::size_t min_size) {
    const std::uint64_t n = u64();
    if (!ok_ || n > remaining() / min_size) {
      ok_ = false;
      return 0;
    }
    return n;
  }

  template <typename T>
  std::vector<T> pod_vec() {
    static_assert(std::is_trivially_copyable_v<T>);
    const std::uint64_t n = count(sizeof(T));
    std::vector<T> v(n);
    if (n) std::memcpy(v.data(), bytes_.data() + pos_, n * sizeof(T));
    pos_ += n * sizeof(T);
    return v;
  }
  std::vector<std::uint32_t> u32_vec() { return pod_vec<std::uint32_t>(); }
  std::vector<std::uint64_t> u64_vec() { return pod_vec<std::uint64_t>(); }
  std::vector<std::string> str_vec() {
    // Each element costs at least its 8-byte length prefix.
    const std::uint64_t n = count(8);
    std::vector<std::string> v;
    v.reserve(n);
    for (std::uint64_t i = 0; i < n && ok_; ++i) v.push_back(str());
    return v;
  }

 private:
  bool check(std::uint64_t need) {
    if (!ok_ || need > remaining()) {
      ok_ = false;
      return false;
    }
    return true;
  }

  void raw(void* out, std::size_t size) {
    if (!check(size)) return;
    std::memcpy(out, bytes_.data() + pos_, size);
    pos_ += size;
  }

  std::string_view bytes_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

}  // namespace fpgadbg::flow
