#include "util/bytes.hpp"

namespace encdns::util {

std::uint64_t fnv1a_bytes(const std::uint8_t* data, std::size_t size,
                          std::uint64_t basis) noexcept {
  std::uint64_t hash = basis;
  for (std::size_t i = 0; i < size; ++i) {
    hash ^= data[i];
    hash *= kFnv1aPrime;
  }
  return hash;
}

}  // namespace encdns::util
