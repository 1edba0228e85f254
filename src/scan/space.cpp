#include "scan/space.hpp"

#include <algorithm>
#include <stdexcept>

namespace encdns::scan {

ScanSpace::ScanSpace(std::vector<util::Cidr> prefixes)
    : prefixes_(std::move(prefixes)) {
  std::sort(prefixes_.begin(), prefixes_.end(),
            [](const util::Cidr& a, const util::Cidr& b) {
              return a.base() < b.base();
            });
  prefixes_.erase(std::unique(prefixes_.begin(), prefixes_.end()), prefixes_.end());
  cumulative_.reserve(prefixes_.size());
  for (const auto& prefix : prefixes_) {
    cumulative_.push_back(total_);
    total_ += prefix.size();
  }
  if (total_ == 0) return;
  // Size the hint table at ~4 buckets per block so a lookup advances past
  // at most a handful of blocks even when block sizes are skewed.
  while ((total_ >> bucket_shift_) > prefixes_.size() * 4) ++bucket_shift_;
  const std::uint64_t buckets = ((total_ - 1) >> bucket_shift_) + 1;
  bucket_hint_.resize(static_cast<std::size_t>(buckets));
  std::size_t block = 0;
  for (std::uint64_t b = 0; b < buckets; ++b) {
    const std::uint64_t first = b << bucket_shift_;
    while (block + 1 < prefixes_.size() && cumulative_[block + 1] <= first)
      ++block;
    bucket_hint_[static_cast<std::size_t>(b)] = static_cast<std::uint32_t>(block);
  }
}

void ScanSpace::throw_out_of_range() {
  throw std::out_of_range("ScanSpace::at");
}

std::optional<std::uint64_t> ScanSpace::index_of(util::Ipv4 addr) const {
  // Prefixes are sorted and disjoint: binary search by base address.
  const auto it = std::upper_bound(
      prefixes_.begin(), prefixes_.end(), addr,
      [](util::Ipv4 a, const util::Cidr& p) { return a < p.base(); });
  if (it == prefixes_.begin()) return std::nullopt;
  const std::size_t block = static_cast<std::size_t>(it - prefixes_.begin()) - 1;
  if (!prefixes_[block].contains(addr)) return std::nullopt;
  return cumulative_[block] + (addr.value() - prefixes_[block].base().value());
}

}  // namespace encdns::scan
