// Hand-built values of every journaled result type (DESIGN.md §13). Each
// sets every field to a value that differs from its default and holds two
// elements in every container, so a layout test covers the wire form of
// each field. tests/core/data/layouts holds the bytes the journal wrote for
// each of them before the field lists, and the layout tests hold the
// encoders to those bytes.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "fault/retry.hpp"
#include "measure/local_probe.hpp"
#include "measure/performance.hpp"
#include "measure/reachability.hpp"
#include "scan/doh_prober.hpp"
#include "scan/doh_scan.hpp"
#include "scan/scanner.hpp"
#include "tls/verify.hpp"
#include "traffic/netflow_study.hpp"
#include "traffic/passive_dns.hpp"
#include "traffic/trend_study.hpp"

namespace encdns::layouts {

[[nodiscard]] inline fault::LayerTally tally(std::uint64_t base) {
  return {base, base + 1, base + 2};
}

[[nodiscard]] inline std::vector<scan::ScanSnapshot> scans() {
  std::vector<scan::ScanSnapshot> snapshots(2);
  for (std::size_t i = 0; i < snapshots.size(); ++i) {
    scan::ScanSnapshot& s = snapshots[i];
    const auto k = static_cast<std::uint64_t>(i + 1);
    s.date = util::Date{2019, 2, static_cast<int>(1 + 10 * i)};
    s.addresses_probed = 45219840 * k;
    s.port_open = 1200000 + k;
    s.tls_responsive = 150000 + k;
    s.breaker_skipped = 3 * k;
    s.rejected_forgery = 4 * k;
    s.rejected_duplicate = 5 * k;
    s.rejected_stale = 6 * k;
    s.retransmits = 7 * k;
    s.faults = tally(10 * k);
    for (std::uint8_t j = 0; j < 2; ++j) {
      scan::DiscoveredResolver r;
      r.address = util::Ipv4{1, static_cast<std::uint8_t>(i), j, 1};
      r.cert_cn = j == 0 ? "cloudflare-dns.com" : "dns.quad9.net";
      r.provider = j == 0 ? "cloudflare" : "quad9";
      r.cert_status = j == 0 ? tls::CertStatus::kValid
                             : tls::CertStatus::kHostnameMismatch;
      r.answer_correct = j == 0;
      r.country = j == 0 ? "US" : "CN";
      r.probe_latency = sim::Millis{12.5 + i + 0.25 * j};
      s.resolvers.push_back(r);
    }
  }
  return snapshots;
}

[[nodiscard]] inline scan::DohDiscovery doh_discovery() {
  scan::DohDiscovery d;
  d.urls_in_dataset = 1300000;
  d.path_candidates = 4000;
  d.valid_urls = 17;
  d.faults = tally(20);
  d.candidates.push_back({"https://dns.google/dns-query", "dns.google",
                          "/dns-query", true, true, 200});
  d.candidates.push_back({"https://example.org/resolve", "example.org",
                          "/resolve", false, false, -1});
  d.resolvers.push_back({"https://dns.google/dns-query{?dns}", "dns.google",
                         "/dns-query", true, true});
  d.resolvers.push_back({"https://doh.example/q{?dns}", "doh.example", "/q",
                         false, false});
  return d;
}

[[nodiscard]] inline scan::DohScanResult doh_scan() {
  scan::DohScanResult d;
  d.date = util::Date{2019, 4, 2};
  d.addresses_probed = 45219840;
  d.port443_open = 900000;
  d.tls_established = 800000;
  d.rejected_forgery = 1;
  d.rejected_duplicate = 2;
  d.rejected_stale = 3;
  d.retransmits = 4;
  d.faults = tally(30);
  d.endpoints.push_back({util::Ipv4{8, 8, 8, 8}, "dns.google", "/dns-query",
                         "https://dns.google/dns-query{?dns}", true, true,
                         sim::Millis{31.75}});
  d.endpoints.push_back({util::Ipv4{9, 9, 9, 9}, "dns.quad9.net",
                         "/dns-query", "https://dns.quad9.net/dns-query{?dns}",
                         false, false, sim::Millis{-0.5}});
  return d;
}

[[nodiscard]] inline measure::LocalProbeResults local_probe() {
  return {.probes = 6655, .dot_succeeded = 20};
}

[[nodiscard]] inline measure::ReachabilityResults reachability() {
  measure::ReachabilityResults r;
  r.platform = "ProxyRack";
  r.clients = 29622;
  r.clients_planned = 29700;
  r.dataset = {"ProxyRack", 29000, 166, 2400};
  r.client_faults = tally(40);
  r.proxy_faults = tally(50);
  r.cells[{"Cloudflare", measure::Protocol::kDoT}] = {100, 2, 3};
  r.cells[{"Google", measure::Protocol::kDoH}] = {200, 4, 5};
  r.conflict_diagnoses.push_back(
      {util::Ipv4{10, 0, 0, 1}, "BR", 64512, {80, 443}, "<html>router</html>"});
  r.conflict_diagnoses.push_back(
      {util::Ipv4{10, 0, 0, 2}, "ID", 64513, {22, 853}, ""});
  r.interceptions.push_back({util::Ipv4{172, 16, 0, 1}, "US", 7018,
                             "Sample CA", true, false, true, false});
  r.interceptions.push_back({util::Ipv4{172, 16, 0, 2}, "DE", 3320,
                             "Another CA", false, true, false, true});
  return r;
}

[[nodiscard]] inline measure::PerformanceResults performance() {
  measure::PerformanceResults p;
  p.clients.push_back({"US", 20.5, 35.25, 40.125});
  p.clients.push_back({"CN", 150.0, 190.75, -1.5});
  p.discarded_clients = 1513;
  p.clients_planned = 8257;
  p.clients_processed = 8250;
  p.client_faults = tally(60);
  p.proxy_faults = tally(70);
  return p;
}

[[nodiscard]] inline std::vector<measure::NoReuseRow> no_reuse() {
  return {{"US", 0.02, 0.15, 0.18}, {"IN", 0.3, 1.25, 1.5}};
}

[[nodiscard]] inline traffic::NetflowStudyResults netflow() {
  traffic::NetflowStudyResults n;
  n.cloudflare_monthly = {{util::Date{2018, 7, 1}, 12},
                          {util::Date{2018, 8, 1}, 40}};
  n.quad9_monthly = {{util::Date{2018, 7, 1}, 3}, {util::Date{2018, 9, 1}, 9}};
  n.do53_monthly_estimate = {{util::Date{2018, 7, 1}, 1.5e9},
                             {util::Date{2018, 8, 1}, 2.25e9}};
  n.total_dot_records = 85860;
  n.excluded_single_syn = 4601;
  n.unmatched_853_records = 7;
  n.netblocks.push_back({util::Ipv4{114, 0, 0, 0}, 900, 300,
                         util::Date{2017, 7, 1}, util::Date{2019, 1, 31}});
  n.netblocks.push_back({util::Ipv4{36, 1, 2, 0}, 2, 1, util::Date{2018, 3, 4},
                         util::Date{2018, 3, 4}});
  n.flagged_client_blocks = 1;
  n.distinct_block_estimate = 2300;
  n.days_planned = 580;
  n.days_processed = 579;
  return n;
}

[[nodiscard]] inline traffic::TrendStudyResults trend() {
  traffic::TrendStudyResults t;
  for (int p = 0; p < 2; ++p) {
    traffic::TrendProviderSeries series;
    series.name = p == 0 ? "cloudflare" : "quad9";
    for (int m = 0; m < 2; ++m) {
      const auto k = static_cast<std::uint64_t>(10 * p + m + 1);
      series.monthly.push_back({util::Date{2018, 7 + m, 1}, 1000 * k,
                                90000 * k, 300 * k, 299 * k});
    }
    series.total_records = 3000 + p;
    series.total_bytes = 270000 + p;
    series.clients_estimated = 610 + p;
    series.clients_exact = 600 + p;
    t.providers.push_back(series);
  }
  t.events.push_back({traffic::AdoptionEvent::Kind::kBrowserDefault, "",
                      util::Date{2020, 2, 25}, util::Date{9999, 1, 1}, 3.0,
                      "Firefox default"});
  t.events.push_back({traffic::AdoptionEvent::Kind::kCensorship, "quad9",
                      util::Date{2019, 6, 1}, util::Date{2019, 7, 1}, 0.25,
                      "block"});
  t.total_records = 6001;
  t.total_bytes = 540001;
  t.hll_precision = 12;
  t.days_planned = 1461;
  t.days_processed = 1460;
  t.peak_tracked_bytes = 123456;
  return t;
}

[[nodiscard]] inline traffic::PassiveDnsStudyResults passive_dns() {
  traffic::PassiveDnsStudyResults r;
  r.aggregate_db.record("dns.google", util::Date{2016, 3, 1}, 70);
  r.aggregate_db.record("dns.google", util::Date{2019, 4, 30}, 5);
  r.aggregate_db.record("mozilla.cloudflare-dns.com", util::Date{2018, 6, 1}, 9);
  r.daily_db.record("dns.google", util::Date{2018, 9, 1}, 4);
  r.daily_db.record("dns.google", util::Date{2018, 9, 2}, 6);
  r.daily_db.record("doh.cleanbrowsing.org", util::Date{2019, 1, 5}, 2);
  r.daily_db.record("doh.cleanbrowsing.org", util::Date{2019, 3, 7}, 11);
  return r;
}

// The partial states' plain fields.
inline constexpr std::uint64_t kScanSerial = 3;
[[nodiscard]] inline std::vector<std::pair<std::uint64_t, int>> strikes() {
  return {{0x01020304, 2}, {0x0A0B0C0D, 5}};
}
inline constexpr std::uint64_t kReachDone = 1024;
inline constexpr std::uint64_t kReachQueries = 88000;
inline constexpr std::uint64_t kReachSimCreditUs = 987654321;
inline constexpr std::uint64_t kPerfDone = 512;
inline constexpr std::uint64_t kPerfSimCreditUs = 123456789;

}  // namespace encdns::layouts
