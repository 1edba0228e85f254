// The multi-year encrypted-DNS adoption trend engine (DESIGN.md §16).
//
// The §5.2 NetflowStudy replays 18 months of one ISP's DoT flows; the
// adoption follow-up (PAPERS.md: García & Hynek) charts multi-year growth
// across providers. This engine scales that to 100×+ the sampled §5.2
// corpus and millions of distinct clients while holding memory fixed:
//
//  - an adoption-dynamics generator emits *sampled* flow records per
//    provider-day — provider launches, browser default flips and censorship
//    windows are dated rate multipliers (AdoptionEvent);
//  - one fused pass per day: each record folds into its provider-day as it
//    is drawn — its client into the day sketch, its bytes into the day's
//    total — so no record is staged and there is no per-record heap state;
//  - a completed day retires into its month: counters add, the day's
//    distinct-client sketch register-maxes into the month sketch, and the
//    day accumulator resets. Live state is one day sketch plus one bounded
//    month table per provider, regardless of horizon or flow volume;
//  - distinct clients are HyperLogLog sketches (traffic/hll.hpp), exact
//    std::set tracking exists only behind `validate_exact` for the
//    small-scale validation tier.
//
// Determinism mirrors NetflowStudy: a fixed 16-shard day-range partition
// run as 4 sequential groups, per-day rng streams keyed by (seed, day),
// canonical ascending-shard merges, and group-boundary checkpoints — so
// ENCDNS_THREADS=1/2/8 produce bit-identical results, including the sketch
// registers, and a killed run resumes on an executed-shard prefix.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "exec/cancel.hpp"
#include "exec/checkpoint_hook.hpp"
#include "exec/executor.hpp"
#include "traffic/hll.hpp"
#include "util/bytes.hpp"
#include "util/date.hpp"
#include "util/ipv4.hpp"

namespace encdns::traffic {

/// A dated adoption-dynamics event: while `from <= day < to`, the matching
/// providers' raw flow rate is multiplied by `multiplier`.
struct AdoptionEvent {
  enum class Kind : std::uint8_t {
    kProviderLaunch = 0,  ///< informational marker; rate is zero pre-launch
    kBrowserDefault = 1,  ///< a browser turns encrypted DNS on by default
    kCensorship = 2,      ///< a blocking window suppresses traffic
  };
  Kind kind = Kind::kBrowserDefault;
  std::string provider;  ///< empty = applies to every provider
  util::Date from;
  util::Date to{9999, 1, 1};  ///< exclusive; default = open-ended
  double multiplier = 1.0;
  std::string label;

  static void fields(auto& self, auto&& visit) {
    visit(self.kind, self.provider, self.from, self.to, self.multiplier,
          self.label);
  }
};

/// The last event kind, which bounds its journal byte (util/fields.hpp).
[[nodiscard]] constexpr AdoptionEvent::Kind last_enumerator(
    AdoptionEvent::Kind) noexcept {
  return AdoptionEvent::Kind::kCensorship;
}

[[nodiscard]] const char* adoption_event_kind_label(
    AdoptionEvent::Kind kind) noexcept;

/// One encrypted-DNS provider in the trend model. Rates are *sampled*
/// records/day (the generator models the collector's output directly; the
/// raw backbone volume behind it would be ~3000× larger).
struct TrendProvider {
  std::string name;
  util::Ipv4 resolver;         ///< anycast service address (dst column)
  std::uint16_t dst_port = 443;
  util::Date launch;
  double base_daily_flows = 0.0;  ///< sampled flows/day at launch, scale=1
  double monthly_growth = 1.0;    ///< compounding month-over-month factor
  std::uint32_t client_space = 0;  ///< client address pool size
  double flows_per_client_day = 2.0;
  double client_churn_per_day = 0.0;  ///< daily slide of the active window
  std::uint32_t address_base = 0;     ///< first client address of the pool
};

/// Per-month aggregate for one provider.
struct TrendMonth {
  util::Date month;  ///< first day of the month
  std::uint64_t records = 0;
  std::uint64_t bytes = 0;
  std::uint64_t clients_estimated = 0;  ///< HLL estimate
  std::uint64_t clients_exact = 0;      ///< 0 unless validate_exact

  static void fields(auto& self, auto&& visit) {
    visit(self.month, self.records, self.bytes, self.clients_estimated,
          self.clients_exact);
  }
};

struct TrendProviderSeries {
  std::string name;
  std::vector<TrendMonth> monthly;  ///< ascending by month
  std::uint64_t total_records = 0;
  std::uint64_t total_bytes = 0;
  std::uint64_t clients_estimated = 0;  ///< all-time distinct (merged sketch)
  std::uint64_t clients_exact = 0;      ///< 0 unless validate_exact

  static void fields(auto& self, auto&& visit) {
    visit(self.name, self.total_records, self.total_bytes,
          self.clients_estimated, self.clients_exact, self.monthly);
  }

  /// The month starting at `month_start`, or null.
  [[nodiscard]] const TrendMonth* month(const util::Date& month_start) const;
};

struct TrendStudyConfig {
  util::Date start{2017, 7, 1};
  util::Date end{2021, 7, 1};  ///< exclusive: a four-year horizon
  std::uint64_t seed = 53;
  /// Linear multiplier on every provider's flow rate *and* client churn.
  /// 1.0 = adoption scale (≥100× the §5.2 sampled corpus, millions of
  /// distinct clients); StudyConfig::quick() runs at 0.02.
  double scale = 1.0;
  int hll_precision = Hll::kDefaultPrecision;
  /// Track exact per-month client sets alongside the sketches (memory grows
  /// with cardinality — validation scale only). Fills clients_exact.
  bool validate_exact = false;
  std::vector<TrendProvider> providers;  ///< empty = default_trend_providers()
  std::vector<AdoptionEvent> events;     ///< empty = default_adoption_events()
  /// Worker threads; 0 = auto. Results identical for every value.
  unsigned thread_count = 0;
  exec::CancelToken* cancel = nullptr;
  exec::CheckpointHook* checkpoint = nullptr;
  exec::WorkerPool* pool = nullptr;
};

/// The default four-provider model: Quad9 DoT, Cloudflare DoH, Google DoH,
/// NextDNS DoH, calibrated so scale=1 yields ~8M sampled records.
[[nodiscard]] std::vector<TrendProvider> default_trend_providers();
/// The default dynamics: launch markers, the Firefox default flip, the
/// Chrome same-provider auto-upgrade, and one censorship window.
[[nodiscard]] std::vector<AdoptionEvent> default_adoption_events();

struct TrendStudyResults {
  std::vector<TrendProviderSeries> providers;  ///< config order
  std::vector<AdoptionEvent> events;           ///< the dynamics applied
  std::uint64_t total_records = 0;
  std::uint64_t total_bytes = 0;
  std::uint8_t hll_precision = Hll::kDefaultPrecision;
  std::size_t days_planned = 0;
  std::size_t days_processed = 0;
  /// Deterministic upper bound on live aggregation state (the day sketch +
  /// day/month accumulators), identical at every thread count; the soak
  /// tier and the netflow bench guard hold fixed ceilings against it to
  /// prove day retirement keeps memory flat.
  std::uint64_t peak_tracked_bytes = 0;

  /// The journal writes this list inside a checksummed envelope
  /// (traffic/codec.cpp).
  static constexpr std::uint8_t kCodecVersion = 2;
  static void fields(auto& self, auto&& visit) {
    visit(self.total_records, self.total_bytes, self.hll_precision,
          self.days_planned, self.days_processed, self.peak_tracked_bytes,
          self.events, self.providers);
  }
  static void encode(util::ByteWriter& w, const TrendStudyResults& results);
  static void decode(util::ByteReader& r, TrendStudyResults& results);

  [[nodiscard]] const TrendProviderSeries* provider(
      const std::string& name) const;
  /// Sum of the per-provider all-time distinct-client estimates.
  [[nodiscard]] std::uint64_t clients_estimated_total() const;
};

class TrendStudy {
 public:
  explicit TrendStudy(TrendStudyConfig config);

  [[nodiscard]] TrendStudyResults run();

  /// The rate model, exposed for tests: expected sampled records for
  /// `provider` on `day` after launch gating, growth compounding, event
  /// multipliers, day noise and the scale knob.
  [[nodiscard]] double daily_rate(const TrendProvider& provider,
                                  const util::Date& day) const;

  [[nodiscard]] const std::vector<TrendProvider>& providers() const noexcept {
    return providers_;
  }
  [[nodiscard]] const std::vector<AdoptionEvent>& events() const noexcept {
    return events_;
  }

 private:
  TrendStudyConfig config_;
  std::vector<TrendProvider> providers_;
  std::vector<AdoptionEvent> events_;
};

}  // namespace encdns::traffic
