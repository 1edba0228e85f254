// The §5.2 DoT traffic analysis: run the backbone model through the NetFlow
// collector, select TCP/853 records, exclude single-SYN records, match the
// destination against the §3 resolver list, truncate clients to their /24
// (ethics), and aggregate into Figure 11 (monthly flows per resolver) and
// Figure 12 (per-netblock share and active time).
#pragma once

#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "exec/cancel.hpp"
#include "exec/checkpoint_hook.hpp"
#include "exec/executor.hpp"
#include "traffic/backbone.hpp"
#include "traffic/hll.hpp"
#include "traffic/netflow.hpp"
#include "traffic/scan_detector.hpp"
#include "util/date.hpp"
#include "util/fields.hpp"

namespace encdns::traffic {

struct NetflowStudyConfig {
  BackboneConfig backbone;
  double sampling_rate = 1.0 / 3000.0;
  std::uint64_t seed = 37;
  /// Worker threads for the day-sharded aggregation; 0 = auto (ENCDNS_THREADS
  /// env or hardware_concurrency). Results are identical for every value.
  unsigned thread_count = 0;
  /// Cooperative cancellation + group-boundary checkpointing (DESIGN.md §13):
  /// the 16 day-range shards run as 4 sequential groups of 4; the study saves
  /// its accumulator after every non-final group and a tripped token cuts on
  /// an executed-shard prefix. Both optional.
  exec::CancelToken* cancel = nullptr;
  exec::CheckpointHook* checkpoint = nullptr;
  /// Shared worker pool (task-graph mode); null = private pool.
  exec::WorkerPool* pool = nullptr;
};

struct NetblockStat {
  util::Ipv4 slash24;
  std::uint64_t records = 0;
  int active_days = 0;  // days with at least one sampled DoT record
  util::Date first_seen;
  util::Date last_seen;

  static void fields(auto& self, auto&& visit) {
    visit(self.slash24, self.records, self.active_days, self.first_seen,
          self.last_seen);
  }
};

/// The journal codec of a Figure 11 series (traffic/codec.cpp): the generic
/// map layout, and decoding also rejects a key that is not a month start.
struct MonthlySeries {
  static void encode(util::ByteWriter& w,
                     const std::map<util::Date, std::uint64_t>& monthly);
  static void decode(util::ByteReader& r,
                     std::map<util::Date, std::uint64_t>& monthly);
};

struct NetflowStudyResults {
  /// Monthly sampled DoT flow counts per resolver (Figure 11). Keyed by the
  /// first day of the month.
  std::map<util::Date, std::uint64_t> cloudflare_monthly;
  std::map<util::Date, std::uint64_t> quad9_monthly;

  /// Estimated monthly sampled traditional-DNS records (for the
  /// orders-of-magnitude comparison; computed analytically from the model's
  /// Do53:DoT ratio rather than by simulating billions of flows).
  std::map<util::Date, double> do53_monthly_estimate;

  std::uint64_t total_dot_records = 0;
  std::uint64_t excluded_single_syn = 0;
  std::uint64_t unmatched_853_records = 0;  // port 853 but not a known resolver

  /// Per-/24 statistics, sorted by record count descending (Figure 12).
  std::vector<NetblockStat> netblocks;

  /// Scanner-verification outcome: how many observed DoT client /24s the
  /// NetworkScan-Mon-style detector flags (the paper found none).
  std::size_t flagged_client_blocks = 0;

  /// Streaming distinct-client estimate: a seed-keyed HyperLogLog sketch
  /// (DESIGN.md §16) fed the same /24s as `netblocks`, merged across day
  /// shards. `netblocks.size()` is the exact count it is validated against;
  /// at adoption scale the trend engine reports only the sketch.
  std::uint64_t distinct_block_estimate = 0;

  /// Coverage accounting (DESIGN.md §13): simulated days planned vs actually
  /// aggregated; they differ only when a deadline cancelled tail day-shards.
  std::size_t days_planned = 0;
  std::size_t days_processed = 0;

  static void fields(auto& self, auto&& visit) {
    visit(util::via<MonthlySeries>(self.cloudflare_monthly),
          util::via<MonthlySeries>(self.quad9_monthly),
          self.do53_monthly_estimate, self.total_dot_records,
          self.excluded_single_syn, self.unmatched_853_records,
          self.distinct_block_estimate, self.flagged_client_blocks,
          self.days_planned, self.days_processed, self.netblocks);
  }

  [[nodiscard]] double top_share(std::size_t k) const;
  /// Fraction of client netblocks active fewer than `days` days.
  [[nodiscard]] double short_lived_block_fraction(int days) const;
  /// Fraction of DoT records originating from those short-lived blocks.
  [[nodiscard]] double short_lived_traffic_share(int days) const;
};

class NetflowStudy {
 public:
  /// `resolver_addresses` is the DoT resolver list built in §3 (address ->
  /// resolver label, e.g. "cloudflare"/"quad9").
  NetflowStudy(NetflowStudyConfig config,
               std::unordered_map<std::uint32_t, std::string> resolver_addresses);

  [[nodiscard]] NetflowStudyResults run();

 private:
  NetflowStudyConfig config_;
  // Resolver address -> label id: kCloudflare and kQuad9 feed Figure 11's
  // monthly series; any other label counts as DoT but has no series.
  enum Label : std::uint8_t { kCloudflare, kQuad9, kOtherLabel };
  std::unordered_map<std::uint32_t, Label> resolver_labels_;
};

/// Convenience: the resolver list for the two big DoT targets.
[[nodiscard]] std::unordered_map<std::uint32_t, std::string>
big_resolver_address_list();

}  // namespace encdns::traffic
