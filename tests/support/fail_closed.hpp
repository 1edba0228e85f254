// Fail-closed fuzzing shared by the decoder suites (ROADMAP item 5): visit
// every strict prefix and every single-byte corruption of an encoded input,
// so a test can require each one to be rejected, or, where a decoder
// tolerates slack (a trailing newline, a torn tail), to decode to exactly the
// original.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace encdns::fuzz {

/// Calls `visit(mutated, what)` for every strict prefix of `bytes`, then for
/// every copy of `bytes` with one byte inverted (x ^ 0xFF); `what` names the
/// case for assertion messages. `keep(i)` selects the prefix lengths and the
/// byte positions to visit, e.g. to sample a long run at a fixed stride.
template <typename Visit, typename Keep>
void for_each_prefix_and_flip(const std::vector<std::uint8_t>& bytes,
                              Visit&& visit, Keep&& keep) {
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    if (!keep(len)) continue;
    const std::vector<std::uint8_t> prefix(bytes.begin(), bytes.begin() + len);
    visit(prefix, "prefix length " + std::to_string(len));
  }
  std::vector<std::uint8_t> flipped = bytes;
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    if (!keep(i)) continue;
    flipped[i] ^= 0xFF;
    visit(flipped, "byte " + std::to_string(i) + " corrupted");
    flipped[i] ^= 0xFF;
  }
}

template <typename Visit>
void for_each_prefix_and_flip(const std::vector<std::uint8_t>& bytes,
                              Visit&& visit) {
  for_each_prefix_and_flip(bytes, visit, [](std::size_t) { return true; });
}

}  // namespace encdns::fuzz
