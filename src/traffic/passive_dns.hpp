// Passive DNS substrates for the §5.3 DoH usage analysis.
//
// DoH queries hide inside HTTPS, but each DoH service's hostname must be
// resolved (in clear text) before lookups — so passive DNS databases see the
// bootstrap queries. We model two collectors mirroring the paper's datasets:
// an aggregate store (DNSDB-like: first/last seen + total lookups, wide
// coverage) and a daily store (360-PassiveDNS-like: daily volumes, narrower
// coverage).
#pragma once

#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "util/bytes.hpp"
#include "util/date.hpp"
#include "util/rng.hpp"

namespace encdns::traffic {

/// Aggregate record, as DNSDB reports it.
struct PdnsAggregate {
  std::string domain;
  util::Date first_seen;
  util::Date last_seen;
  std::uint64_t total_count = 0;

  static void fields(auto& self, auto&& visit) {
    visit(self.domain, self.first_seen, self.last_seen, self.total_count);
  }
};

/// DNSDB-like store: aggregates only.
class AggregatePassiveDns {
 public:
  void record(const std::string& domain, const util::Date& date,
              std::uint64_t count);

  [[nodiscard]] std::optional<PdnsAggregate> lookup(const std::string& domain) const;
  [[nodiscard]] std::vector<PdnsAggregate> all() const;

  /// Checkpoint restore: replace the store with the given aggregates.
  void restore(const std::vector<PdnsAggregate>& aggregates) {
    aggregates_.clear();
    for (const auto& aggregate : aggregates)
      aggregates_[aggregate.domain] = aggregate;
  }

 private:
  std::map<std::string, PdnsAggregate> aggregates_;
};

/// 360-like store: per-domain daily counts, monthly extraction.
class DailyPassiveDns {
 public:
  void record(const std::string& domain, const util::Date& date,
              std::uint64_t count);

  /// Monthly totals for one domain, keyed by month start.
  [[nodiscard]] std::map<util::Date, std::uint64_t> monthly_series(
      const std::string& domain) const;

  /// Checkpoint access: the per-domain day#-keyed counts, and wholesale
  /// replacement from a decoded copy.
  [[nodiscard]] const std::map<std::string, std::map<std::int64_t, std::uint64_t>>&
  data() const {
    return daily_;
  }
  void restore(std::map<std::string, std::map<std::int64_t, std::uint64_t>> data) {
    daily_ = std::move(data);
  }

 private:
  std::map<std::string, std::map<std::int64_t, std::uint64_t>> daily_;  // day# keyed
};

/// The bootstrap-query volume model: expected clear-text lookups per month
/// for each DoH hostname, following the adoption trends of Figure 13
/// (Google oldest and largest; Cloudflare boosted by the Firefox experiment;
/// CleanBrowsing growing ~10x Sep 2018 - Mar 2019; crypto.sx modest; the
/// remaining resolvers tiny). Volumes are post-cache: recursive resolvers
/// absorb most repeats, which is why passive DNS undercounts DoH usage.
class DohUsageModel {
 public:
  explicit DohUsageModel(std::uint64_t seed) : seed_(seed) {}

  /// Expected observed lookups of `domain` during the month of `month_start`.
  [[nodiscard]] double monthly_volume(const std::string& domain,
                                      const util::Date& month_start) const;

  /// Domains the model knows about (the 17 DoH hostnames).
  [[nodiscard]] static const std::vector<std::string>& domains();

 private:
  std::uint64_t seed_;
};

struct PassiveDnsStudyConfig {
  util::Date start{2016, 1, 1};
  util::Date end{2019, 5, 1};  // exclusive
  std::uint64_t seed = 41;
  /// DNSDB's wider resolver coverage relative to the daily store.
  double aggregate_coverage_factor = 4.0;
};

struct PassiveDnsStudyResults {
  AggregatePassiveDns aggregate_db;
  DailyPassiveDns daily_db;

  /// Domains with more than `threshold` total lookups in the aggregate DB.
  [[nodiscard]] std::vector<std::string> popular_domains(
      std::uint64_t threshold) const;

  /// Journal codec (traffic/codec.cpp): the aggregates, then the daily
  /// counts, each restored through its store.
  static void encode(util::ByteWriter& w, const PassiveDnsStudyResults& results);
  static void decode(util::ByteReader& r, PassiveDnsStudyResults& results);
};

/// Populate both stores from the usage model.
[[nodiscard]] PassiveDnsStudyResults run_passive_dns_study(
    PassiveDnsStudyConfig config = {});

}  // namespace encdns::traffic
