// Bounds-checked big-endian wire readers/writers for the DNS codec.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace encdns::dns {

/// Appends big-endian integers and raw bytes to a growable buffer.
///
/// Two ownership modes (DESIGN.md §11):
///  - default-constructed: the writer owns its buffer; callers finish with
///    `std::move(w).take()`.
///  - borrowed: the writer appends to caller-owned storage, so hot paths can
///    reuse one warmed-up vector per worker instead of allocating a fresh
///    buffer per query. Existing contents are preserved; `take()` is invalid
///    in this mode.
class WireWriter {
 public:
  WireWriter() noexcept : buf_(&owned_) {}
  explicit WireWriter(std::vector<std::uint8_t>& storage) noexcept
      : buf_(&storage) {}
  // Not copyable/movable: `buf_` may alias `owned_`, which a memberwise copy
  // would leave pointing into the source writer.
  WireWriter(const WireWriter&) = delete;
  WireWriter& operator=(const WireWriter&) = delete;

  void u8(std::uint8_t v) { buf_->push_back(v); }
  // Fixed-width fields grow the buffer once and store by index.
  void u16(std::uint16_t v) {
    const std::size_t at = buf_->size();
    buf_->resize(at + 2);
    patch_u16(at, v);
  }
  void u32(std::uint32_t v) {
    const std::size_t at = buf_->size();
    buf_->resize(at + 4);
    patch_u16(at, static_cast<std::uint16_t>(v >> 16));
    patch_u16(at + 2, static_cast<std::uint16_t>(v));
  }
  void bytes(std::span<const std::uint8_t> data) {
    buf_->insert(buf_->end(), data.begin(), data.end());
  }
  void text(std::string_view s) {
    buf_->insert(buf_->end(), s.begin(), s.end());
  }

  /// Patch a previously written 16-bit field (e.g. RDLENGTH back-fill).
  void patch_u16(std::size_t offset, std::uint16_t v) {
    (*buf_)[offset] = static_cast<std::uint8_t>(v >> 8);
    (*buf_)[offset + 1] = static_cast<std::uint8_t>(v);
  }

  /// Reserve the two-octet stream length prefix (RFC 1035 §4.2.2) at the
  /// current position so the message can be framed in place, with no second
  /// copy. Returns the prefix offset to hand to `end_stream_frame`.
  [[nodiscard]] std::size_t begin_stream_frame() {
    const std::size_t at = size();
    u16(0);
    return at;
  }
  /// Back-fill the length prefix reserved by `begin_stream_frame`.
  void end_stream_frame(std::size_t prefix_offset) {
    patch_u16(prefix_offset,
              static_cast<std::uint16_t>(size() - prefix_offset - 2));
  }

  [[nodiscard]] std::size_t size() const noexcept { return buf_->size(); }
  [[nodiscard]] const std::vector<std::uint8_t>& data() const noexcept { return *buf_; }
  /// Owned mode only: steal the buffer.
  [[nodiscard]] std::vector<std::uint8_t> take() && noexcept { return std::move(owned_); }

 private:
  std::vector<std::uint8_t> owned_;
  std::vector<std::uint8_t>* buf_;
};

/// Wrap a DNS message for stream transports (TCP / DoT): two-octet length
/// prefix followed by the message (RFC 1035 §4.2.2, RFC 7858 §3.3).
[[nodiscard]] std::vector<std::uint8_t> frame_stream(
    std::span<const std::uint8_t> message);

/// Remove the two-octet length prefix; nullopt if the prefix is missing or
/// disagrees with the actual payload length.
[[nodiscard]] std::optional<std::vector<std::uint8_t>> unframe_stream(
    std::span<const std::uint8_t> framed);

/// Allocation-free variant of `unframe_stream`: a view into `framed` past
/// the prefix. The view borrows `framed`'s storage.
[[nodiscard]] std::optional<std::span<const std::uint8_t>> unframe_view(
    std::span<const std::uint8_t> framed) noexcept;

/// Cursor over a read-only buffer. All reads are bounds-checked: a failed
/// read latches the error flag and returns zeroes, so decoders can check
/// `ok()` once after a sequence of reads.
class WireReader {
 public:
  explicit WireReader(std::span<const std::uint8_t> data) noexcept : data_(data) {}

  [[nodiscard]] std::uint8_t u8() noexcept;
  [[nodiscard]] std::uint16_t u16() noexcept;
  [[nodiscard]] std::vector<std::uint8_t> bytes(std::size_t n) noexcept;
  [[nodiscard]] std::uint32_t u32() noexcept;

  /// Allocation-free variant of `bytes`: a view into the underlying buffer
  /// (empty on bounds failure), valid as long as the buffer itself.
  [[nodiscard]] std::span<const std::uint8_t> bytes_view(std::size_t n) noexcept;

  /// Jump to an absolute offset (for compression pointers). Out-of-range
  /// offsets latch the error flag.
  void seek(std::size_t offset) noexcept;

  [[nodiscard]] std::size_t position() const noexcept { return pos_; }
  [[nodiscard]] std::size_t remaining() const noexcept {
    return pos_ <= data_.size() ? data_.size() - pos_ : 0;
  }
  [[nodiscard]] bool ok() const noexcept { return ok_; }
  [[nodiscard]] std::span<const std::uint8_t> buffer() const noexcept { return data_; }

  /// Force the error state (used when decoders detect semantic errors).
  void fail() noexcept { ok_ = false; }

 private:
  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

}  // namespace encdns::dns
