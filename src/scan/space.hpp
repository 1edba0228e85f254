// The scan space: an indexable union of CIDR prefixes. ZMap-style scanners
// iterate a permutation of [0, size) and map indices to addresses here.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "util/ipv4.hpp"

namespace encdns::scan {

class ScanSpace {
 public:
  explicit ScanSpace(std::vector<util::Cidr> prefixes);

  /// Total number of addresses across all prefixes.
  [[nodiscard]] std::uint64_t size() const noexcept { return total_; }

  /// Address at flat index `i`; throws std::out_of_range unless i < size().
  /// Inline: the sweep kernel maps every walked index through it.
  [[nodiscard]] util::Ipv4 at(std::uint64_t i) const {
    if (i >= total_) throw_out_of_range();
    // Start from the bucket's block hint and advance to the prefix whose
    // cumulative start is <= i (last such).
    std::size_t block = bucket_hint_[static_cast<std::size_t>(i >> bucket_shift_)];
    while (block + 1 < prefixes_.size() && cumulative_[block + 1] <= i) ++block;
    return prefixes_[block].at(i - cumulative_[block]);
  }

  /// Inverse mapping; nullopt when the address is outside the space.
  [[nodiscard]] std::optional<std::uint64_t> index_of(util::Ipv4 addr) const;

  [[nodiscard]] bool contains(util::Ipv4 addr) const {
    return index_of(addr).has_value();
  }

  [[nodiscard]] const std::vector<util::Cidr>& prefixes() const noexcept {
    return prefixes_;
  }

 private:
  [[noreturn]] static void throw_out_of_range();

  std::vector<util::Cidr> prefixes_;       // sorted by base address
  std::vector<std::uint64_t> cumulative_;  // exclusive prefix sums
  std::uint64_t total_ = 0;
  /// Bucketed block hints over the flat index space: bucket_hint_[i >>
  /// bucket_shift_] is the block containing the bucket's first index, so
  /// at() replaces its per-probe binary search with a table load plus (on
  /// average) less than one linear advance — the sweep calls it once per
  /// address in the routable space.
  std::vector<std::uint32_t> bucket_hint_;
  unsigned bucket_shift_ = 0;
};

}  // namespace encdns::scan
