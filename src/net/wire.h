// Byte-level serialization for protocol messages.
//
// Protocol payloads travel through the simulated radio as real byte
// vectors — link-level encryption (crypto/cipher.h) operates on these
// bytes, and the byte counts feed the communication-overhead figures.
// The format is little-endian fixed-width fields plus length-prefixed
// containers; no alignment games, no UB.
#pragma once

#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

namespace icpda::net {

using Bytes = std::vector<std::uint8_t>;

/// Serializer: append-only writer over a byte vector.
class WireWriter {
 public:
  [[nodiscard]] const Bytes& bytes() const& { return buf_; }
  [[nodiscard]] Bytes take() && { return std::move(buf_); }
  [[nodiscard]] std::size_t size() const { return buf_.size(); }

  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u16(std::uint16_t v) { put_le(v); }
  void u32(std::uint32_t v) { put_le(v); }
  void u64(std::uint64_t v) { put_le(v); }
  void i64(std::int64_t v) { put_le(static_cast<std::uint64_t>(v)); }

  void f64(double v) {
    std::uint64_t bits;
    static_assert(sizeof bits == sizeof v);
    std::memcpy(&bits, &v, sizeof bits);
    put_le(bits);
  }

  /// Length-prefixed (u32) raw bytes.
  void blob(const Bytes& b) {
    u32(static_cast<std::uint32_t>(b.size()));
    buf_.insert(buf_.end(), b.begin(), b.end());
  }

  /// Length-prefixed (u32) vector of doubles.
  void f64_vec(const std::vector<double>& v) {
    u32(static_cast<std::uint32_t>(v.size()));
    for (const double x : v) f64(x);
  }

  /// Length-prefixed (u32) vector of u32.
  void u32_vec(const std::vector<std::uint32_t>& v) {
    u32(static_cast<std::uint32_t>(v.size()));
    for (const std::uint32_t x : v) u32(x);
  }

 private:
  template <typename T>
  void put_le(T v) {
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  }

  Bytes buf_;
};

/// Deserializer: bounds-checked reader; throws WireError on truncation
/// (which the protocol layers surface as a malformed-frame drop).
class WireError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class WireReader {
 public:
  explicit WireReader(const Bytes& buf) : buf_(buf) {}

  [[nodiscard]] bool done() const { return pos_ == buf_.size(); }
  [[nodiscard]] std::size_t remaining() const { return buf_.size() - pos_; }

  std::uint8_t u8() {
    need(1);
    return buf_[pos_++];
  }
  std::uint16_t u16() { return get_le<std::uint16_t>(); }
  std::uint32_t u32() { return get_le<std::uint32_t>(); }
  std::uint64_t u64() { return get_le<std::uint64_t>(); }
  std::int64_t i64() { return static_cast<std::int64_t>(get_le<std::uint64_t>()); }

  double f64() {
    const std::uint64_t bits = get_le<std::uint64_t>();
    double v;
    std::memcpy(&v, &bits, sizeof v);
    return v;
  }

  Bytes blob() {
    const std::uint32_t n = u32();
    need(n);
    // Addressed from the end: GCC 12 at -O3 does not relate begin() +
    // pos_ to the bound need() checked and reports a false
    // -Wstringop-overread when the length prefix is oversized.
    const auto first = buf_.end() - static_cast<std::ptrdiff_t>(remaining());
    pos_ += n;
    return Bytes(first, first + n);
  }

  std::vector<double> f64_vec() {
    const std::uint32_t n = u32();
    need(static_cast<std::size_t>(n) * 8);
    std::vector<double> out;
    out.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) out.push_back(f64());
    return out;
  }

  std::vector<std::uint32_t> u32_vec() {
    const std::uint32_t n = u32();
    need(static_cast<std::size_t>(n) * 4);
    std::vector<std::uint32_t> out;
    out.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) out.push_back(u32());
    return out;
  }

 private:
  void need(std::size_t n) const {
    if (pos_ + n > buf_.size()) throw WireError("wire: truncated message");
  }

  template <typename T>
  T get_le() {
    need(sizeof(T));
    T v = 0;
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      v |= static_cast<T>(static_cast<T>(buf_[pos_ + i]) << (8 * i));
    }
    pos_ += sizeof(T);
    return v;
  }

  const Bytes& buf_;
  std::size_t pos_ = 0;
};

}  // namespace icpda::net
