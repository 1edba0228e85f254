#include "traffic/trend_study.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <unordered_set>
#include <utility>
#include <vector>

#include "exec/blocked_pass.hpp"
#include "obs/span.hpp"
#include "util/fields.hpp"
#include "util/rng.hpp"

namespace encdns::traffic {

namespace {

// Fixed day-range partition, like NetflowStudy: 16 shards run as 4
// sequential groups of 4. Shard count is part of the deterministic contract
// and never tracks the thread count; group boundaries are where checkpoints
// land and cancellation is honored.
constexpr std::size_t kTrendShards = 16;
constexpr std::size_t kGroupShards = 4;
static_assert(kTrendShards % kGroupShards == 0);

// Fixed overhead charged per live month accumulator in the deterministic
// memory accounting (counters + map node, excluding the sketch registers).
constexpr std::uint64_t kMonthAggFixedBytes = 64;

/// Bounded per-month accumulator: a retired day folds into this and is gone.
struct MonthAgg {
  std::uint64_t records = 0;
  std::uint64_t bytes = 0;
  Hll clients;
  std::unordered_set<std::uint32_t> exact;  // validate_exact only

  MonthAgg(int precision, std::uint64_t seed) : clients(precision, seed) {}
};

/// Keyed by month_start().to_days(); std::map so iteration is ascending.
using MonthMap = std::map<std::int64_t, MonthAgg>;

[[nodiscard]] std::uint64_t months_tracked_bytes(
    const std::vector<MonthMap>& provider_months) {
  std::uint64_t bytes = 0;
  for (const auto& months : provider_months) {
    for (const auto& [key, agg] : months) {
      bytes += kMonthAggFixedBytes + agg.clients.memory_bytes() +
               static_cast<std::uint64_t>(agg.exact.size()) * 16;
    }
  }
  return bytes;
}

/// One provider-month of a saved partial state, its client set as an
/// ascending list; a provider's months are a map keyed by month start.
struct SavedMonth {
  std::uint64_t records = 0;
  std::uint64_t bytes = 0;
  Hll clients{};
  std::vector<std::uint32_t> exact;

  static void fields(auto& self, auto&& visit) {
    visit(self.records, self.bytes, self.clients, self.exact);
  }
};

MonthAgg& month_slot(MonthMap& months, std::int64_t key, int precision,
                     std::uint64_t seed) {
  const auto it = months.find(key);
  if (it != months.end()) return it->second;
  return months.emplace(key, MonthAgg(precision, seed)).first->second;
}

}  // namespace

const char* adoption_event_kind_label(AdoptionEvent::Kind kind) noexcept {
  switch (kind) {
    case AdoptionEvent::Kind::kProviderLaunch:
      return "launch";
    case AdoptionEvent::Kind::kBrowserDefault:
      return "browser-default";
    case AdoptionEvent::Kind::kCensorship:
      return "censorship";
  }
  return "unknown";
}

std::vector<TrendProvider> default_trend_providers() {
  std::vector<TrendProvider> providers;
  {
    TrendProvider p;
    p.name = "quad9";
    p.resolver = util::Ipv4{9, 9, 9, 9};
    p.dst_port = 853;  // DoT
    p.launch = util::Date{2017, 11, 1};
    p.base_daily_flows = 500.0;
    p.monthly_growth = 1.025;
    p.client_space = 500'000;
    p.client_churn_per_day = 300.0;
    p.address_base = util::Ipv4{10, 0, 0, 0}.value();
    providers.push_back(p);
  }
  {
    TrendProvider p;
    p.name = "cloudflare";
    p.resolver = util::Ipv4{1, 1, 1, 1};
    p.dst_port = 443;  // DoH
    p.launch = util::Date{2018, 4, 1};
    p.base_daily_flows = 800.0;
    p.monthly_growth = 1.05;
    p.client_space = 3'000'000;
    p.client_churn_per_day = 2000.0;
    p.address_base = util::Ipv4{26, 0, 0, 0}.value();
    providers.push_back(p);
  }
  {
    TrendProvider p;
    p.name = "google";
    p.resolver = util::Ipv4{8, 8, 8, 8};
    p.dst_port = 443;
    p.launch = util::Date{2019, 1, 9};
    p.base_daily_flows = 600.0;
    p.monthly_growth = 1.06;
    p.client_space = 1'500'000;
    p.client_churn_per_day = 1200.0;
    p.address_base = util::Ipv4{42, 0, 0, 0}.value();
    providers.push_back(p);
  }
  {
    TrendProvider p;
    p.name = "nextdns";
    p.resolver = util::Ipv4{45, 90, 28, 0};
    p.dst_port = 443;
    p.launch = util::Date{2019, 5, 1};
    p.base_daily_flows = 150.0;
    p.monthly_growth = 1.09;
    p.client_space = 200'000;
    p.client_churn_per_day = 150.0;
    p.address_base = util::Ipv4{58, 0, 0, 0}.value();
    providers.push_back(p);
  }
  return providers;
}

std::vector<AdoptionEvent> default_adoption_events() {
  std::vector<AdoptionEvent> events;
  for (const auto& provider : default_trend_providers()) {
    AdoptionEvent launch;
    launch.kind = AdoptionEvent::Kind::kProviderLaunch;
    launch.provider = provider.name;
    launch.from = provider.launch;
    launch.multiplier = 1.0;
    launch.label = provider.name + " service launch";
    events.push_back(launch);
  }
  {
    AdoptionEvent firefox;
    firefox.kind = AdoptionEvent::Kind::kBrowserDefault;
    firefox.provider = "cloudflare";
    firefox.from = util::Date{2020, 2, 25};
    firefox.multiplier = 2.2;
    firefox.label = "Firefox enables DoH by default (US)";
    events.push_back(firefox);
  }
  {
    AdoptionEvent chrome;
    chrome.kind = AdoptionEvent::Kind::kBrowserDefault;
    chrome.provider = "";  // same-provider upgrade lifts everyone
    chrome.from = util::Date{2020, 5, 19};
    chrome.multiplier = 1.25;
    chrome.label = "Chrome 83 same-provider DoH auto-upgrade";
    events.push_back(chrome);
  }
  {
    AdoptionEvent blocking;
    blocking.kind = AdoptionEvent::Kind::kCensorship;
    blocking.provider = "cloudflare";
    blocking.from = util::Date{2019, 11, 1};
    blocking.to = util::Date{2020, 2, 1};
    blocking.multiplier = 0.45;
    blocking.label = "state-level blocking window";
    events.push_back(blocking);
  }
  return events;
}

const TrendMonth* TrendProviderSeries::month(
    const util::Date& month_start) const {
  for (const auto& m : monthly)
    if (m.month == month_start) return &m;
  return nullptr;
}

const TrendProviderSeries* TrendStudyResults::provider(
    const std::string& name) const {
  for (const auto& series : providers)
    if (series.name == name) return &series;
  return nullptr;
}

std::uint64_t TrendStudyResults::clients_estimated_total() const {
  std::uint64_t total = 0;
  for (const auto& series : providers) total += series.clients_estimated;
  return total;
}

TrendStudy::TrendStudy(TrendStudyConfig config)
    : config_(std::move(config)),
      providers_(config_.providers.empty() ? default_trend_providers()
                                           : config_.providers),
      events_(config_.events.empty() ? default_adoption_events()
                                     : config_.events) {}

double TrendStudy::daily_rate(const TrendProvider& provider,
                              const util::Date& day) const {
  if (day < provider.launch) return 0.0;
  const int m = util::months_between(provider.launch, day);
  double rate = provider.base_daily_flows * std::pow(provider.monthly_growth, m);
  for (const auto& event : events_) {
    if (!event.provider.empty() && event.provider != provider.name) continue;
    if (!day.in_window(event.from, event.to)) continue;
    rate *= event.multiplier;
  }
  // Mild deterministic day noise, keyed by (seed, day, provider).
  const std::uint64_t h =
      util::mix64(config_.seed ^ 0x7E4DULL ^
                  static_cast<std::uint64_t>(day.to_days()) * 0x9E3779B9ULL ^
                  util::fnv1a(provider.name));
  rate *= 0.94 + 0.12 * static_cast<double>(h % 1000) / 1000.0;
  return rate * config_.scale;
}

TrendStudyResults TrendStudy::run() {
  OBS_SPAN("traffic.trend");
  TrendStudyResults results;
  results.hll_precision = static_cast<std::uint8_t>(config_.hll_precision);
  results.events = events_;
  // All sketches of a run share (precision, seed), so any pair of them —
  // day into month, shard into shard, month into provider total — merges.
  const std::uint64_t sketch_seed = util::mix64(config_.seed ^ 0x5CE7ULL);

  const std::int64_t total_days =
      util::days_between(config_.start, config_.end);
  const auto n_days = static_cast<std::size_t>(total_days > 0 ? total_days : 0);
  results.days_planned = n_days;

  // Persistent accumulator, folded group by group in canonical shard order.
  std::vector<MonthMap> provider_months(providers_.size());
  std::uint64_t total_records = 0;
  std::uint64_t total_bytes = 0;
  std::uint64_t peak_tracked = 0;

  struct ShardPartial {
    std::vector<MonthMap> months;
    std::uint64_t records = 0;
    std::uint64_t bytes = 0;
    std::uint64_t peak_tracked = 0;
  };

  // The shards run as a blocked pass (exec/blocked_pass.hpp), a group at a
  // time; a saved state counts groups.
  std::vector<ShardPartial> partials;
  (void)exec::run_blocked_pass({
      .units = kTrendShards, .block = kGroupShards,
      .pool = config_.pool, .thread_count = config_.thread_count,
      .cancel = config_.cancel, .checkpoint = config_.checkpoint,
      .run = [&](const exec::Block& group) {
        partials = std::vector<ShardPartial>(group.count);
        return group.run_shards([&](std::size_t s) {
          const std::size_t shard = group.first + s;
          const auto [first, last] =
              exec::shard_range(n_days, kTrendShards, shard);
          ShardPartial& partial = partials[s];
          partial.months.resize(providers_.size());
          // Shard-local day state, reused for every (day, provider): the
          // day sketch's registers are the only per-record-scale state, and
          // they are bounded.
          Hll day_sketch(config_.hll_precision, sketch_seed);
          std::unordered_set<std::uint32_t> day_exact;
          for (std::size_t d = first; d < last; ++d) {
            const util::Date day =
                config_.start.plus_days(static_cast<std::int64_t>(d));
            // One rng stream per day, a pure function of (seed, day):
            // independent of the shard layout and the thread count.
            util::Rng day_rng(
                util::mix64(config_.seed ^ 0x73E9DULL ^
                            static_cast<std::uint64_t>(day.to_days())));
            for (std::size_t pi = 0; pi < providers_.size(); ++pi) {
              const TrendProvider& provider = providers_[pi];
              const double rate = daily_rate(provider, day);
              if (rate <= 0.0) continue;
              const std::uint64_t day_records = day_rng.poisson(rate);
              if (day_records == 0) continue;
              // Active-client window: width follows today's rate, position
              // slides with churn, bounded by the provider's address pool —
              // multi-year distinct clients without per-client state.
              const double width = std::clamp(
                  rate / provider.flows_per_client_day, 1.0,
                  static_cast<double>(std::max(provider.client_space, 1u)));
              const auto active = static_cast<std::uint64_t>(width);
              const double slide =
                  static_cast<double>(
                      util::days_between(provider.launch, day)) *
                  provider.client_churn_per_day * config_.scale;
              const std::uint64_t max_offset =
                  provider.client_space > active
                      ? provider.client_space - active
                      : 0;
              const auto offset = static_cast<std::uint32_t>(std::min(
                  static_cast<std::uint64_t>(slide), max_offset));
              day_sketch.clear();
              day_exact.clear();
              // Each record folds into the day as it is drawn: its client
              // into the sketch, its bytes into the day's total.
              std::uint64_t day_bytes = 0;
              for (std::uint64_t j = 0; j < day_records; ++j) {
                const std::uint32_t src =
                    provider.address_base + offset +
                    static_cast<std::uint32_t>(day_rng.below(active));
                (void)day_rng.below(40000);  // the source port, unused
                const std::uint64_t packets = 6 + day_rng.below(50);
                day_bytes += packets * (100 + day_rng.below(40));
                day_sketch.add(src);
                if (config_.validate_exact) day_exact.insert(src);
              }
              // Retire the provider-day into its month and forget it.
              MonthAgg& agg =
                  month_slot(partial.months[pi], day.month_start().to_days(),
                             config_.hll_precision, sketch_seed);
              agg.records += day_records;
              agg.bytes += day_bytes;
              agg.clients.merge(day_sketch);
              if (config_.validate_exact) {
                agg.exact.insert(day_exact.begin(), day_exact.end());
              }
              partial.records += day_records;
              partial.bytes += day_bytes;
            }
            // Deterministic live-state high-water mark, taken at day
            // boundaries: the day sketch + every live month accumulator on
            // this shard.
            const std::uint64_t tracked =
                day_sketch.memory_bytes() +
                static_cast<std::uint64_t>(day_exact.size()) * 16 +
                months_tracked_bytes(partial.months);
            partial.peak_tracked = std::max(partial.peak_tracked, tracked);
          }
        });
      },
      .fold = [&](const exec::Block& group, std::size_t executed) {
        for (std::size_t s = 0; s < executed; ++s) {  // canonical order
          ShardPartial& partial = partials[s];
          total_records += partial.records;
          total_bytes += partial.bytes;
          peak_tracked = std::max(peak_tracked, partial.peak_tracked);
          for (std::size_t pi = 0; pi < providers_.size(); ++pi) {
            if (partial.months.empty()) break;  // shard body never ran
            for (auto& [key, theirs] : partial.months[pi]) {
              MonthAgg& agg = month_slot(provider_months[pi], key,
                                         config_.hll_precision, sketch_seed);
              agg.records += theirs.records;
              agg.bytes += theirs.bytes;
              agg.clients.merge(theirs.clients);
              agg.exact.merge(theirs.exact);
            }
          }
          const auto [first, last] =
              exec::shard_range(n_days, kTrendShards, group.first + s);
          results.days_processed += last - first;
        }
        peak_tracked =
            std::max(peak_tracked, months_tracked_bytes(provider_months));
        return sim::Millis{0.0};
      },
      .encode = [&](util::ByteWriter& w, std::size_t done) {
        std::vector<std::map<std::int64_t, SavedMonth>> saved(
            provider_months.size());
        for (std::size_t pi = 0; pi < saved.size(); ++pi) {
          for (const auto& [key, agg] : provider_months[pi]) {
            std::vector<std::uint32_t> exact(agg.exact.begin(), agg.exact.end());
            std::sort(exact.begin(), exact.end());
            saved[pi].emplace(key, SavedMonth{agg.records, agg.bytes,
                                              agg.clients, std::move(exact)});
          }
        }
        util::write(w, std::uint64_t{done / kGroupShards},
                    results.days_processed, total_records, total_bytes,
                    peak_tracked, saved);
      },
      .decode = [&](util::ByteReader& r) {
        std::uint64_t groups = 0;
        std::vector<std::map<std::int64_t, SavedMonth>> saved;
        util::read(r, groups, results.days_processed, total_records,
                   total_bytes, peak_tracked, saved);
        if (saved.size() != providers_.size())
          throw util::CodecError("trend checkpoint: provider count mismatch");
        for (std::size_t pi = 0; pi < saved.size(); ++pi) {
          for (auto& [key, month] : saved[pi]) {
            if (std::adjacent_find(month.exact.begin(), month.exact.end(),
                                   std::greater_equal<>()) != month.exact.end())
              throw util::CodecError(
                  "trend checkpoint: client set not strictly ascending");
            MonthAgg& agg = month_slot(provider_months[pi], key,
                                       month.clients.precision(),
                                       month.clients.seed());
            agg.records = month.records;
            agg.bytes = month.bytes;
            agg.clients = std::move(month.clients);
            agg.exact.insert(month.exact.begin(), month.exact.end());
          }
        }
        return static_cast<std::size_t>(groups) * kGroupShards;
      },
  });

  for (std::size_t pi = 0; pi < providers_.size(); ++pi) {
    TrendProviderSeries series;
    series.name = providers_[pi].name;
    Hll all_time(config_.hll_precision, sketch_seed);
    std::unordered_set<std::uint32_t> all_exact;
    for (const auto& [key, agg] : provider_months[pi]) {
      TrendMonth month;
      month.month = util::Date::from_days(key);
      month.records = agg.records;
      month.bytes = agg.bytes;
      month.clients_estimated = agg.clients.estimate_u64();
      month.clients_exact = agg.exact.size();
      series.monthly.push_back(month);
      series.total_records += agg.records;
      series.total_bytes += agg.bytes;
      all_time.merge(agg.clients);
      if (config_.validate_exact)
        all_exact.insert(agg.exact.begin(), agg.exact.end());
    }
    series.clients_estimated = all_time.estimate_u64();
    series.clients_exact = all_exact.size();
    results.providers.push_back(std::move(series));
  }
  results.total_records = total_records;
  results.total_bytes = total_bytes;
  results.peak_tracked_bytes = peak_tracked;

  auto& registry = obs::MetricsRegistry::global();
  registry.counter("traffic.trend.records").add(results.total_records);
  registry.counter("traffic.trend.bytes").add(results.total_bytes);
  registry.counter("traffic.trend.days").add(results.days_processed);
  registry.counter("traffic.trend.clients_estimated")
      .add(results.clients_estimated_total());
  registry.counter("traffic.trend.peak_tracked_bytes")
      .add(results.peak_tracked_bytes);
  return results;
}

}  // namespace encdns::traffic
