// A NetworkScan-Mon-style scan detector (§5.2): per source /24, track
// destination fan-out and the fraction of single-SYN (handshake-less) flows;
// a state-transition heuristic flags sources as scanners. Used to verify
// that observed DoT client networks are not measurement scanners.
#pragma once

#include <algorithm>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "traffic/netflow.hpp"
#include "util/fields.hpp"
#include "util/ipv4.hpp"

namespace encdns::traffic {

struct ScanDetectorConfig {
  std::size_t distinct_dst_threshold = 64;  // suspicious fan-out
  double syn_only_threshold = 0.8;          // of flows with no completed session
  std::size_t min_flows = 32;
};

class ScanDetector {
 public:
  /// Distinct destinations remembered per source: the first this many.
  static constexpr std::size_t kDstSetCap = 4096;

  explicit ScanDetector(ScanDetectorConfig config = {}) : config_(config) {}

  enum class State { kBenign, kSuspicious, kScanner };
  /// A state's journal byte (traffic/codec.cpp): decoding rejects a byte
  /// above kScanner as an unknown state.
  struct StateByte {
    static void encode(util::ByteWriter& w, State state);
    static void decode(util::ByteReader& r, State& state);
  };

  /// Count one raw flow against its source /24. Inline: the §5.2 pass calls
  /// it for every generated flow, and consecutive flows mostly share a
  /// source, so the last source's row is remembered.
  void observe(const FlowHeader& flow);

  /// Fold another detector's per-source tallies into this one. Destination
  /// sets are united in sorted order before re-applying the cap, so the merge
  /// result does not depend on insertion order; states are recomputed from
  /// the merged tallies. Merging the per-shard detectors of a day-sharded
  /// run in canonical shard order yields a deterministic detector.
  void merge(const ScanDetector& other);

  [[nodiscard]] State state_of(util::Ipv4 src_slash24) const;
  [[nodiscard]] bool is_scanner(util::Ipv4 src_slash24) const {
    return state_of(src_slash24) == State::kScanner;
  }
  [[nodiscard]] std::vector<util::Ipv4> scanners() const;

  /// Checkpoint export: per-source tallies in ascending source order with
  /// sorted destination sets, so the serialized detector is canonical. The
  /// state is exported verbatim — promotions are sticky, so recomputing it
  /// from the tallies alone could demote a scanner whose single-SYN ratio
  /// later dipped below the threshold.
  struct ExportedSource {
    std::uint32_t src = 0;
    std::uint64_t flows = 0;
    std::uint64_t incomplete = 0;
    State state = State::kBenign;
    std::vector<std::uint32_t> dsts;  // sorted ascending

    static void fields(auto& self, auto&& visit) {
      visit(self.src, self.flows, self.incomplete,
            util::via<StateByte>(self.state), self.dsts);
    }
  };
  [[nodiscard]] std::vector<ExportedSource> export_sources() const;
  void restore_sources(const std::vector<ExportedSource>& sources);

  /// Journal codec (traffic/codec.cpp): the exported sources. Decoding
  /// rejects sources out of ascending order, more incomplete flows than
  /// flows, and destination lists that are unsorted, duplicated or over the
  /// cap.
  static void encode(util::ByteWriter& w, const ScanDetector& detector);
  static void decode(util::ByteReader& r, ScanDetector& detector);

 private:
  // No /24 ends in 0xFF, so this never names a source.
  static constexpr std::uint32_t kNoSource = 0xFFFFFFFFu;

  using SourceStats = ExportedSource;  // dsts: sorted, capped

  ScanDetectorConfig config_;
  std::vector<SourceStats> rows_;
  std::unordered_map<std::uint32_t, std::uint32_t> row_of_;  // src -> row
  std::uint32_t last_src_ = kNoSource;
  std::uint32_t last_row_ = 0;

  /// The row of `src`, appended (empty) if the source is new.
  [[nodiscard]] std::uint32_t row_index(std::uint32_t src);
  void update_state(SourceStats& stats) const {
    // Benign -> Suspicious on fan-out; Suspicious -> Scanner once the flows
    // are also overwhelmingly handshake-less.
    if (stats.flows < config_.min_flows ||
        stats.dsts.size() < config_.distinct_dst_threshold)
      return;
    if (stats.state == State::kBenign) stats.state = State::kSuspicious;
    if (static_cast<double>(stats.incomplete) /
            static_cast<double>(stats.flows) >=
        config_.syn_only_threshold)
      stats.state = State::kScanner;
  }
};

inline void ScanDetector::observe(const FlowHeader& flow) {
  const std::uint32_t src = flow.src.slash24().value();
  if (src != last_src_) {
    last_row_ = row_index(src);
    last_src_ = src;
  }
  SourceStats& stats = rows_[last_row_];
  ++stats.flows;
  if (!flow.complete_session) ++stats.incomplete;
  if (stats.dsts.size() < kDstSetCap) {
    const std::uint32_t dst = flow.dst.value();
    const auto it = std::lower_bound(stats.dsts.begin(), stats.dsts.end(), dst);
    if (it == stats.dsts.end() || *it != dst) stats.dsts.insert(it, dst);
  }
  update_state(stats);
}

}  // namespace encdns::traffic
