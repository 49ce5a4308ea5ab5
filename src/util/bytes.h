// Binary serialization primitives shared by the summary wire format
// (core/serialize.*) and the TCP protocol (net/protocol.*).
//
// The format is little-endian. Unsigned integers may be written either
// fixed-width or as LEB128 varints; the summary format uses fixed widths so
// that measured sizes follow the paper's size equations (1) and (2), while
// the network protocol uses varints for compactness.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace subsum::util {

/// Thrown by BufReader when the input is truncated or malformed.
class DecodeError : public std::runtime_error {
 public:
  explicit DecodeError(const std::string& what) : std::runtime_error(what) {}
};

/// Append-only byte buffer with typed put_* operations.
class BufWriter {
 public:
  BufWriter() = default;
  explicit BufWriter(size_t reserve) { buf_.reserve(reserve); }

  void put_u8(uint8_t v) { buf_.push_back(std::byte{v}); }
  void put_u16(uint16_t v) { put_le(v); }
  void put_u32(uint32_t v) { put_le(v); }
  void put_u64(uint64_t v) { put_le(v); }
  void put_i64(int64_t v) { put_le(static_cast<uint64_t>(v)); }
  void put_f64(double v) {
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    put_le(bits);
  }

  /// LEB128 unsigned varint (1..10 bytes).
  void put_varint(uint64_t v) {
    while (v >= 0x80) {
      put_u8(static_cast<uint8_t>(v) | 0x80);
      v >>= 7;
    }
    put_u8(static_cast<uint8_t>(v));
  }

  /// Length-prefixed (varint) byte string.
  void put_string(std::string_view s) {
    put_varint(s.size());
    put_bytes({reinterpret_cast<const std::byte*>(s.data()), s.size()});
  }

  void put_bytes(std::span<const std::byte> b) {
    buf_.insert(buf_.end(), b.begin(), b.end());
  }

  [[nodiscard]] size_t size() const noexcept { return buf_.size(); }
  [[nodiscard]] const std::vector<std::byte>& bytes() const noexcept { return buf_; }
  [[nodiscard]] std::vector<std::byte> take() && noexcept { return std::move(buf_); }

 private:
  template <typename T>
  void put_le(T v) {
    for (size_t i = 0; i < sizeof(T); ++i) {
      buf_.push_back(std::byte{static_cast<uint8_t>(v >> (8 * i))});
    }
  }

  std::vector<std::byte> buf_;
};

/// Sequential reader over a byte span. Does not own the data.
class BufReader {
 public:
  explicit BufReader(std::span<const std::byte> data) : data_(data) {}

  uint8_t get_u8() { return static_cast<uint8_t>(take(1)[0]); }
  uint16_t get_u16() { return get_le<uint16_t>(); }
  uint32_t get_u32() { return get_le<uint32_t>(); }
  uint64_t get_u64() { return get_le<uint64_t>(); }
  int64_t get_i64() { return static_cast<int64_t>(get_le<uint64_t>()); }
  double get_f64() {
    uint64_t bits = get_le<uint64_t>();
    double v;
    std::memcpy(&v, &bits, sizeof v);
    return v;
  }

  uint64_t get_varint() {
    uint64_t v = 0;
    for (int shift = 0; shift < 64; shift += 7) {
      uint8_t b = get_u8();
      v |= static_cast<uint64_t>(b & 0x7F) << shift;
      if ((b & 0x80) == 0) return v;
    }
    throw DecodeError("varint too long");
  }

  /// Varint element count of a list whose items take at least
  /// `min_item_bytes` (>= 1) each on the wire. A count the remaining bytes
  /// cannot hold throws, so callers may size allocations by the result.
  uint64_t get_count(size_t min_item_bytes) {
    const uint64_t n = get_varint();
    if (n > remaining() / min_item_bytes) {
      throw DecodeError("count longer than payload");
    }
    return n;
  }

  std::string get_string() {
    uint64_t n = get_varint();
    auto b = take(n);
    return {reinterpret_cast<const char*>(b.data()), b.size()};
  }

  std::span<const std::byte> get_bytes(size_t n) { return take(n); }

  [[nodiscard]] size_t remaining() const noexcept { return data_.size() - pos_; }
  [[nodiscard]] bool done() const noexcept { return remaining() == 0; }

 private:
  template <typename T>
  T get_le() {
    auto b = take(sizeof(T));
    T v = 0;
    for (size_t i = 0; i < sizeof(T); ++i) {
      v = static_cast<T>(v | (static_cast<T>(static_cast<uint8_t>(b[i])) << (8 * i)));
    }
    return v;
  }

  std::span<const std::byte> take(size_t n) {
    if (remaining() < n) throw DecodeError("truncated input");
    auto s = data_.subspan(pos_, n);
    pos_ += n;
    return s;
  }

  std::span<const std::byte> data_;
  size_t pos_ = 0;
};

/// Size in bytes of v when varint-encoded.
size_t varint_size(uint64_t v) noexcept;

}  // namespace subsum::util
