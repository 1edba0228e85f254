// Deterministic little-endian byte serialization for the checkpoint journal
// (DESIGN.md §13). ByteWriter appends fixed-width fields to a growing buffer;
// ByteReader walks the same layout with hard bounds checks — every decode
// failure throws CodecError so a corrupt or truncated record fails closed
// instead of half-loading. Doubles travel as their IEEE-754 bit pattern, so
// encode(decode(x)) is the identity and the bytes are platform-independent
// on any little-endian IEEE machine.
#pragma once

#include <bit>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace encdns::util {

/// Thrown by ByteReader on any malformed input (truncation, oversized
/// length prefix, trailing bytes where none are allowed).
class CodecError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// FNV-1a over raw bytes, resumable: pass the previous return value as
/// `basis` to hash a stream incrementally. Same constants as fnv1a(string).
inline constexpr std::uint64_t kFnv1aBasis = 0xCBF29CE484222325ULL;
inline constexpr std::uint64_t kFnv1aPrime = 0x100000001B3ULL;
[[nodiscard]] std::uint64_t fnv1a_bytes(const std::uint8_t* data,
                                        std::size_t size,
                                        std::uint64_t basis = kFnv1aBasis) noexcept;

class ByteWriter {
 public:
  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u16(std::uint16_t v) { append_le(v); }
  void u32(std::uint32_t v) { append_le(v); }
  void u64(std::uint64_t v) { append_le(v); }
  void i64(std::int64_t v) { append_le(static_cast<std::uint64_t>(v)); }
  void f64(double v) { append_le(std::bit_cast<std::uint64_t>(v)); }
  void boolean(bool v) { u8(v ? 1 : 0); }

  /// u32 length prefix + raw bytes.
  void str(std::string_view s) {
    u32(static_cast<std::uint32_t>(s.size()));
    buf_.insert(buf_.end(), s.begin(), s.end());
  }
  void blob(const std::vector<std::uint8_t>& bytes) {
    u32(static_cast<std::uint32_t>(bytes.size()));
    raw(bytes);
  }
  /// Raw bytes, no length prefix.
  void raw(std::span<const std::uint8_t> bytes) {
    buf_.insert(buf_.end(), bytes.begin(), bytes.end());
  }

  /// Empties the buffer, keeping its capacity; reserve() grows it, so that
  /// appends up to that size never move the bytes already written.
  void clear() noexcept { buf_.clear(); }
  void reserve(std::size_t bytes) { buf_.reserve(bytes); }

  [[nodiscard]] const std::vector<std::uint8_t>& data() const noexcept {
    return buf_;
  }
  [[nodiscard]] std::vector<std::uint8_t> take() noexcept {
    return std::move(buf_);
  }
  [[nodiscard]] std::size_t size() const noexcept { return buf_.size(); }

 private:
  /// One append per field: the shifts spell out little-endian on any host,
  /// and compilers fold them into a single store on little-endian ones.
  template <typename T>
  void append_le(T v) {
    std::uint8_t bytes[sizeof(T)];
    for (std::size_t i = 0; i < sizeof(T); ++i)
      bytes[i] = static_cast<std::uint8_t>(v >> (8 * i));
    buf_.insert(buf_.end(), bytes, bytes + sizeof(T));
  }

  std::vector<std::uint8_t> buf_;
};

class ByteReader {
 public:
  ByteReader(const std::uint8_t* data, std::size_t size) noexcept
      : data_(data), size_(size) {}
  explicit ByteReader(std::span<const std::uint8_t> bytes) noexcept
      : ByteReader(bytes.data(), bytes.size()) {}

  [[nodiscard]] std::uint8_t u8() { return take_bytes(1)[0]; }
  [[nodiscard]] std::uint16_t u16() { return read_le<std::uint16_t>(); }
  [[nodiscard]] std::uint32_t u32() { return read_le<std::uint32_t>(); }
  [[nodiscard]] std::uint64_t u64() { return read_le<std::uint64_t>(); }
  [[nodiscard]] std::int64_t i64() {
    return static_cast<std::int64_t>(read_le<std::uint64_t>());
  }
  [[nodiscard]] double f64() { return std::bit_cast<double>(read_le<std::uint64_t>()); }
  [[nodiscard]] bool boolean() {
    const std::uint8_t v = u8();
    if (v > 1) throw CodecError("bytes: boolean field holds " + std::to_string(v));
    return v == 1;
  }

  [[nodiscard]] std::string str() {
    const std::uint32_t len = u32();
    const std::uint8_t* p = take_bytes(len);
    return std::string(reinterpret_cast<const char*>(p), len);
  }
  [[nodiscard]] std::vector<std::uint8_t> blob() {
    const std::uint32_t len = u32();
    const std::uint8_t* p = take_bytes(len);
    return std::vector<std::uint8_t>(p, p + len);
  }

  /// The next `n` bytes in place, without copying them.
  [[nodiscard]] std::span<const std::uint8_t> view(std::size_t n) {
    return {take_bytes(n), n};
  }
  /// Where the next read starts.
  [[nodiscard]] const std::uint8_t* position() const noexcept {
    return data_ + pos_;
  }

  /// Checked element count for a container about to be decoded: each element
  /// occupies at least `min_element_bytes`, so a hostile length prefix cannot
  /// force an over-allocation beyond the remaining input.
  [[nodiscard]] std::uint32_t count(std::size_t min_element_bytes = 1) {
    const std::uint32_t n = u32();
    if (min_element_bytes > 0 &&
        static_cast<std::size_t>(n) > remaining() / min_element_bytes)
      throw CodecError("bytes: element count " + std::to_string(n) +
                       " exceeds remaining input");
    return n;
  }

  [[nodiscard]] std::size_t remaining() const noexcept { return size_ - pos_; }
  [[nodiscard]] bool done() const noexcept { return pos_ == size_; }
  void expect_done() const {
    if (!done())
      throw CodecError("bytes: " + std::to_string(remaining()) +
                       " trailing bytes after record");
  }

 private:
  const std::uint8_t* take_bytes(std::size_t n) {
    if (n > remaining())
      throw CodecError("bytes: truncated input (need " + std::to_string(n) +
                       ", have " + std::to_string(remaining()) + ")");
    const std::uint8_t* p = data_ + pos_;
    pos_ += n;
    return p;
  }

  template <typename T>
  [[nodiscard]] T read_le() {
    const std::uint8_t* p = take_bytes(sizeof(T));
    T v = 0;
    for (std::size_t i = 0; i < sizeof(T); ++i)
      v |= static_cast<T>(static_cast<T>(p[i]) << (8 * i));
    return v;
  }

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

}  // namespace encdns::util
