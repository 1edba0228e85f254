#include "util/base64.hpp"

#include <array>

namespace encdns::util {
namespace {

constexpr std::string_view kUrlAlphabet =
    "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789-_";
constexpr std::string_view kStdAlphabet =
    "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";

/// Encode into `out`, replacing its contents and keeping its capacity: the
/// output is sized once and written by index.
void encode_into(std::span<const std::uint8_t> data, std::string_view alphabet,
                 bool pad, std::string& out) {
  const std::size_t rem = data.size() % 3;
  const std::size_t full = data.size() - rem;
  out.resize(full / 3 * 4 + (rem == 0 ? 0 : pad ? 4 : rem + 1));
  std::size_t o = 0;
  for (std::size_t i = 0; i < full; i += 3) {
    const std::uint32_t n = (static_cast<std::uint32_t>(data[i]) << 16) |
                            (static_cast<std::uint32_t>(data[i + 1]) << 8) |
                            static_cast<std::uint32_t>(data[i + 2]);
    out[o++] = alphabet[(n >> 18) & 0x3F];
    out[o++] = alphabet[(n >> 12) & 0x3F];
    out[o++] = alphabet[(n >> 6) & 0x3F];
    out[o++] = alphabet[n & 0x3F];
  }
  if (rem == 0) return;
  std::uint32_t n = static_cast<std::uint32_t>(data[full]) << 16;
  if (rem == 2) n |= static_cast<std::uint32_t>(data[full + 1]) << 8;
  out[o++] = alphabet[(n >> 18) & 0x3F];
  out[o++] = alphabet[(n >> 12) & 0x3F];
  if (rem == 2) out[o++] = alphabet[(n >> 6) & 0x3F];
  while (o < out.size()) out[o++] = '=';
}

constexpr std::array<std::int8_t, 256> make_url_reverse() {
  std::array<std::int8_t, 256> table{};
  for (auto& v : table) v = -1;
  for (int i = 0; i < 64; ++i)
    table[static_cast<unsigned char>(kUrlAlphabet[static_cast<std::size_t>(i)])] =
        static_cast<std::int8_t>(i);
  return table;
}

constexpr auto kUrlReverse = make_url_reverse();

}  // namespace

std::string base64url_encode(std::span<const std::uint8_t> data) {
  std::string out;
  encode_into(data, kUrlAlphabet, /*pad=*/false, out);
  return out;
}

void base64url_encode_into(std::span<const std::uint8_t> data, std::string& out) {
  encode_into(data, kUrlAlphabet, /*pad=*/false, out);
}

std::string base64_encode(std::span<const std::uint8_t> data) {
  std::string out;
  encode_into(data, kStdAlphabet, /*pad=*/true, out);
  return out;
}

bool base64url_decode_into(std::string_view text, std::vector<std::uint8_t>& out) {
  out.clear();
  if (text.size() % 4 == 1) return false;
  // Sized once (every 6-bit symbol carries 3/4 of a byte), written by index.
  out.resize(text.size() * 6 / 8);
  std::size_t o = 0;
  std::uint32_t acc = 0;
  int bits = 0;
  for (char c : text) {
    const std::int8_t v = kUrlReverse[static_cast<unsigned char>(c)];
    if (v < 0) return false;
    acc = (acc << 6) | static_cast<std::uint32_t>(v);
    bits += 6;
    if (bits >= 8) {
      bits -= 8;
      out[o++] = static_cast<std::uint8_t>((acc >> bits) & 0xFF);
    }
  }
  // Leftover bits must be zero padding of the final group.
  return bits == 0 || (acc & ((1U << bits) - 1)) == 0;
}

std::optional<std::vector<std::uint8_t>> base64url_decode(std::string_view text) {
  std::vector<std::uint8_t> out;
  if (!base64url_decode_into(text, out)) return std::nullopt;
  return out;
}

std::string hex_encode(std::span<const std::uint8_t> data) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string out;
  out.reserve(data.size() * 2);
  for (std::uint8_t b : data) {
    out.push_back(kHex[b >> 4]);
    out.push_back(kHex[b & 0xF]);
  }
  return out;
}

}  // namespace encdns::util
