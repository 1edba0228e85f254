#include "traffic/scan_detector.hpp"

#include <iterator>

namespace encdns::traffic {

std::uint32_t ScanDetector::row_index(std::uint32_t src) {
  const auto [it, inserted] =
      row_of_.try_emplace(src, static_cast<std::uint32_t>(rows_.size()));
  if (inserted) rows_.emplace_back().src = src;
  return it->second;
}

void ScanDetector::merge(const ScanDetector& other) {
  for (const SourceStats& theirs : other.rows_) {
    SourceStats& ours = rows_[row_index(theirs.src)];
    ours.flows += theirs.flows;
    ours.incomplete += theirs.incomplete;
    // Deterministic union under the cap: merge the two sorted sets so the
    // survivors don't depend on which shard inserted first.
    if (ours.dsts.size() < kDstSetCap && !theirs.dsts.empty()) {
      std::vector<std::uint32_t> merged;
      merged.reserve(ours.dsts.size() + theirs.dsts.size());
      std::set_union(ours.dsts.begin(), ours.dsts.end(), theirs.dsts.begin(),
                     theirs.dsts.end(), std::back_inserter(merged));
      if (merged.size() > kDstSetCap) merged.resize(kDstSetCap);
      ours.dsts = std::move(merged);
    }
    ours.state = std::max(ours.state, theirs.state);
    update_state(ours);
  }
}

ScanDetector::State ScanDetector::state_of(util::Ipv4 src_slash24) const {
  const auto it = row_of_.find(src_slash24.slash24().value());
  return it == row_of_.end() ? State::kBenign : rows_[it->second].state;
}

std::vector<ScanDetector::ExportedSource> ScanDetector::export_sources() const {
  std::vector<ExportedSource> out = rows_;
  std::sort(out.begin(), out.end(),
            [](const ExportedSource& a, const ExportedSource& b) {
              return a.src < b.src;
            });
  return out;
}

void ScanDetector::restore_sources(const std::vector<ExportedSource>& sources) {
  rows_.clear();
  row_of_.clear();
  last_src_ = kNoSource;
  for (const auto& source : sources) rows_[row_index(source.src)] = source;
}

std::vector<util::Ipv4> ScanDetector::scanners() const {
  std::vector<util::Ipv4> out;
  for (const SourceStats& stats : rows_)
    if (stats.state == State::kScanner) out.push_back(util::Ipv4{stats.src});
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace encdns::traffic
