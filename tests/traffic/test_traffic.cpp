#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "traffic/backbone.hpp"
#include "traffic/netflow.hpp"
#include "traffic/netflow_study.hpp"
#include "traffic/passive_dns.hpp"
#include "traffic/scan_detector.hpp"

namespace encdns::traffic {
namespace {

FlowHeader dot_flow(util::Ipv4 src, util::Ipv4 dst, std::uint32_t packets) {
  FlowHeader flow;
  flow.src = src;
  flow.dst = dst;
  flow.src_port = 40000;
  flow.dst_port = 853;
  flow.packets = packets;
  flow.bytes = packets * 110ULL;
  flow.complete_session = true;
  return flow;
}

TEST(NetflowCollector, SamplingRateApproximatelyHonored) {
  const NetflowCollector collector(1.0 / 100.0);
  util::Rng rng(util::mix64(1));
  int exported = 0;
  const int flows = 20000;
  for (int i = 0; i < flows; ++i) {
    if (collector.observe(dot_flow(util::Ipv4{114, 0, 0, 1},
                                   util::Ipv4{1, 1, 1, 1}, 20),
                          rng))
      ++exported;
  }
  // P(export) ~= 1 - (1-rate)^packets ~= 18%.
  EXPECT_NEAR(exported / static_cast<double>(flows), 0.18, 0.03);
}

TEST(NetflowCollector, FullSamplingExportsEverything) {
  const NetflowCollector collector(1.0);
  util::Rng rng(util::mix64(2));
  const auto record = collector.observe(
      dot_flow(util::Ipv4{114, 0, 0, 1}, util::Ipv4{1, 1, 1, 1}, 10), rng);
  ASSERT_TRUE(record);
  EXPECT_TRUE(record.tcp_flags & tcpflags::kSyn);
  EXPECT_TRUE(record.tcp_flags & tcpflags::kAck);
  EXPECT_TRUE(record.tcp_flags & tcpflags::kFin);
  EXPECT_FALSE(record.single_syn());
}

TEST(NetflowCollector, LoneSynProbeExportsAsSingleSyn) {
  const NetflowCollector collector(1.0);
  util::Rng rng(util::mix64(3));
  FlowHeader probe =
      dot_flow(util::Ipv4{162, 142, 125, 7}, util::Ipv4{1, 1, 1, 1}, 1);
  probe.complete_session = false;
  const auto record = collector.observe(probe, rng);
  ASSERT_TRUE(record);
  EXPECT_TRUE(record.single_syn());
  EXPECT_EQ(record.tcp_flags, tcpflags::kSyn);
}

TEST(NetflowCollector, SampledBytesScale) {
  const NetflowCollector collector(1.0);
  util::Rng rng(util::mix64(4));
  const auto record = collector.observe(
      dot_flow(util::Ipv4{114, 0, 0, 1}, util::Ipv4{1, 1, 1, 1}, 20), rng);
  ASSERT_TRUE(record);
  EXPECT_EQ(record.bytes, 20 * 110ULL * record.packets / 20);
}

TEST(NetflowCollector, UdpSinglePacket) {
  const NetflowCollector collector(1.0);
  util::Rng rng(util::mix64(5));
  FlowHeader udp;
  udp.src = util::Ipv4{114, 0, 0, 2};
  udp.dst = util::Ipv4{8, 8, 8, 8};
  udp.dst_port = 53;
  udp.protocol = kProtoUdp;
  udp.packets = 1;
  udp.bytes = 80;
  const auto record = collector.observe(udp, rng);
  ASSERT_TRUE(record);
  EXPECT_EQ(record.tcp_flags, 0);
  EXPECT_FALSE(record.single_syn());  // UDP is never a SYN probe
}

// The collector's tabled Poisson draw is Rng::poisson(m * rate) value for
// value, and leaves its rng where Rng::poisson leaves it, for every middle
// packet count in the table and past it (where it falls back), at the §5.2
// rate, a dense rate, and a rate of one (half the table past lambda = 64).
TEST(NetflowCollector, TabledPoissonDrawsWhatRngPoissonDraws) {
  for (const double rate : {1.0 / 3000.0, 1.0 / 100.0, 1.0}) {
    const NetflowCollector collector(rate);
    for (std::uint32_t m = 0; m < NetflowCollector::kPoissonTable + 8; ++m) {
      util::Rng tabled(util::mix64(m ^ 0x9015ULL));
      util::Rng direct = tabled;
      for (int draw = 0; draw < 64; ++draw) {
        ASSERT_EQ(collector.poisson(m, tabled),
                  direct.poisson(static_cast<double>(m) * rate))
            << "rate " << rate << " m " << m << " draw " << draw;
      }
      const util::RngState a = tabled.state();
      const util::RngState b = direct.state();
      EXPECT_EQ(a.words, b.words) << "rate " << rate << " m " << m;
      EXPECT_EQ(a.has_cached_normal, b.has_cached_normal);
      EXPECT_EQ(a.cached_normal, b.cached_normal);
    }
  }
}

// A rate of one or more samples every flag packet without drawing: chance()
// draws nothing there, so only the middle packets consume the rng.
TEST(NetflowCollector, FullRateFlagPacketsDrawNothing) {
  const NetflowCollector collector(1.0);
  util::Rng rng(util::mix64(6));
  util::Rng untouched = rng;
  FlowHeader probe =
      dot_flow(util::Ipv4{162, 142, 125, 7}, util::Ipv4{1, 1, 1, 1}, 1);
  probe.complete_session = false;
  ASSERT_TRUE(collector.observe(probe, rng));
  EXPECT_EQ(rng.state().words, untouched.state().words);
}

TEST(AdoptionCurve, CloudflareGrowsQuad9Fluctuates) {
  AdoptionCurve curve(7);
  EXPECT_EQ(curve.daily_raw_flows("cloudflare", {2018, 3, 1}), 0.0);
  const double jul = curve.daily_raw_flows("cloudflare", {2018, 7, 15});
  const double dec = curve.daily_raw_flows("cloudflare", {2018, 12, 15});
  EXPECT_GT(jul, 0.0);
  EXPECT_GT(dec / jul, 1.3);  // ~+56% Jul->Dec
  EXPECT_LT(dec / jul, 1.9);
  EXPECT_GT(curve.daily_raw_flows("quad9", {2018, 1, 1}), 0.0);
  EXPECT_EQ(curve.daily_raw_flows("quad9", {2017, 10, 1}), 0.0);
  EXPECT_EQ(curve.daily_raw_flows("unknown", {2018, 7, 1}), 0.0);
}

TEST(BackboneModel, NetblockPopulationShape) {
  BackboneConfig config;
  const BackboneModel model(config);
  const auto& blocks = model.netblocks();
  EXPECT_EQ(blocks.size(), config.heavy_blocks + config.mid_blocks +
                               config.medium_blocks + config.tail_blocks);
  std::size_t heavy = 0, short_lived = 0;
  for (const auto& nb : blocks) {
    if (nb.heavy) ++heavy;
    if (util::days_between(nb.active_from, nb.active_to) < 7) ++short_lived;
  }
  EXPECT_EQ(heavy, config.heavy_blocks);
  // ~96% of blocks are the short-lived tail.
  EXPECT_GT(static_cast<double>(short_lived) / blocks.size(), 0.9);
}

TEST(ScanDetector, FlagsScannersNotClients) {
  ScanDetector detector;
  util::Rng rng(11);
  // A DoT client: many flows to one resolver, all complete.
  const util::Ipv4 client{114, 0, 0, 1};
  for (int i = 0; i < 500; ++i)
    detector.observe(dot_flow(client, util::Ipv4{1, 1, 1, 1}, 20));
  EXPECT_FALSE(detector.is_scanner(client));

  // A scanner: lone SYNs to many destinations.
  const util::Ipv4 scanner{162, 142, 125, 7};
  for (int i = 0; i < 500; ++i) {
    FlowHeader probe = dot_flow(
        scanner, util::Ipv4{static_cast<std::uint32_t>(rng.next())}, 1);
    probe.complete_session = false;
    detector.observe(probe);
  }
  EXPECT_TRUE(detector.is_scanner(scanner));
  EXPECT_EQ(detector.scanners().size(), 1u);
}

TEST(ScanDetector, FanoutAloneIsOnlySuspicious) {
  ScanDetector detector;
  util::Rng rng(12);
  const util::Ipv4 cdn{114, 0, 5, 1};
  for (int i = 0; i < 500; ++i)
    detector.observe(dot_flow(cdn, util::Ipv4{static_cast<std::uint32_t>(rng.next())},
                              20));
  EXPECT_EQ(detector.state_of(cdn), ScanDetector::State::kSuspicious);
  EXPECT_FALSE(detector.is_scanner(cdn));
}

// The destination set keeps the first kDstSetCap distinct destinations a
// source was seen with, in any order of arrival, repeats included.
TEST(ScanDetector, KeepsTheFirstDistinctDestinationsUpToTheCap) {
  ScanDetector detector;
  util::Rng rng(13);
  const util::Ipv4 scanner{162, 142, 125, 7};
  std::vector<std::uint32_t> first_distinct;
  while (first_distinct.size() < ScanDetector::kDstSetCap + 500) {
    const auto dst = static_cast<std::uint32_t>(rng.below(6000));
    FlowHeader probe = dot_flow(scanner, util::Ipv4{dst}, 1);
    probe.complete_session = false;
    detector.observe(probe);
    if (std::find(first_distinct.begin(), first_distinct.end(), dst) ==
        first_distinct.end())
      first_distinct.push_back(dst);
  }
  first_distinct.resize(ScanDetector::kDstSetCap);
  std::sort(first_distinct.begin(), first_distinct.end());
  const auto sources = detector.export_sources();
  ASSERT_EQ(sources.size(), 1u);
  EXPECT_EQ(sources[0].dsts, first_distinct);
  EXPECT_EQ(sources[0].state, ScanDetector::State::kScanner);
}

struct NetflowStudyFixture : ::testing::Test {
  static const NetflowStudyResults& results() {
    static const NetflowStudyResults value = [] {
      NetflowStudyConfig config;
      config.backbone.tail_blocks = 1500;  // keep the test quick
      config.backbone.medium_blocks = 80;
      NetflowStudy study(config, big_resolver_address_list());
      return study.run();
    }();
    return value;
  }
};

TEST_F(NetflowStudyFixture, CloudflareGrowthJulToDec2018) {
  const auto& r = results();
  const auto jul = r.cloudflare_monthly.find(util::Date{2018, 7, 1});
  const auto dec = r.cloudflare_monthly.find(util::Date{2018, 12, 1});
  ASSERT_NE(jul, r.cloudflare_monthly.end());
  ASSERT_NE(dec, r.cloudflare_monthly.end());
  const double growth =
      static_cast<double>(dec->second) / static_cast<double>(jul->second);
  EXPECT_GT(growth, 1.3);  // paper: +56%
  EXPECT_LT(growth, 1.9);
  // No Cloudflare DoT traffic before the Apr 2018 launch.
  EXPECT_EQ(r.cloudflare_monthly.count(util::Date{2018, 2, 1}), 0u);
}

TEST_F(NetflowStudyFixture, DotIsOrdersOfMagnitudeBelowDo53) {
  const auto& r = results();
  const auto dec = r.cloudflare_monthly.find(util::Date{2018, 12, 1});
  const auto est = r.do53_monthly_estimate.find(util::Date{2018, 12, 1});
  ASSERT_NE(dec, r.cloudflare_monthly.end());
  ASSERT_NE(est, r.do53_monthly_estimate.end());
  const double ratio = est->second / static_cast<double>(dec->second);
  EXPECT_GT(ratio, 80.0);     // "2-3 orders of magnitude"
  EXPECT_LT(ratio, 5000.0);
}

TEST_F(NetflowStudyFixture, HeavyHittersAndShortTail) {
  const auto& r = results();
  EXPECT_GT(r.top_share(5), 0.30);    // paper: 44%
  EXPECT_LT(r.top_share(5), 0.80);
  EXPECT_GT(r.top_share(20), r.top_share(5));
  EXPECT_GT(r.short_lived_block_fraction(7), 0.80);  // paper: 96%
  EXPECT_LT(r.short_lived_traffic_share(7), 0.45);   // paper: 25%
}

TEST_F(NetflowStudyFixture, SingleSynExcludedAndNoScannerClients) {
  const auto& r = results();
  EXPECT_GT(r.excluded_single_syn, 0u);
  EXPECT_EQ(r.flagged_client_blocks, 0u);  // paper: no scan alerts
  EXPECT_GT(r.total_dot_records, 1000u);
}

// The day-sharded aggregation's contract: identical results for every thread
// count, and repeated parallel runs agree.
TEST(NetflowStudy, ResultsAreThreadCountInvariant) {
  const auto run_with_threads = [](unsigned threads) {
    NetflowStudyConfig config;
    config.backbone.tail_blocks = 300;  // keep the test quick
    config.backbone.medium_blocks = 30;
    config.thread_count = threads;
    NetflowStudy study(config, big_resolver_address_list());
    return study.run();
  };
  const auto serial = run_with_threads(1);
  const auto parallel_a = run_with_threads(8);
  const auto parallel_b = run_with_threads(8);

  const auto equal = [](const NetflowStudyResults& a,
                        const NetflowStudyResults& b) {
    if (a.cloudflare_monthly != b.cloudflare_monthly) return false;
    if (a.quad9_monthly != b.quad9_monthly) return false;
    if (a.total_dot_records != b.total_dot_records) return false;
    if (a.excluded_single_syn != b.excluded_single_syn) return false;
    if (a.unmatched_853_records != b.unmatched_853_records) return false;
    if (a.flagged_client_blocks != b.flagged_client_blocks) return false;
    if (a.netblocks.size() != b.netblocks.size()) return false;
    for (std::size_t i = 0; i < a.netblocks.size(); ++i) {
      const auto& x = a.netblocks[i];
      const auto& y = b.netblocks[i];
      if (x.slash24 != y.slash24 || x.records != y.records ||
          x.active_days != y.active_days || !(x.first_seen == y.first_seen) ||
          !(x.last_seen == y.last_seen))
        return false;
    }
    return true;
  };
  EXPECT_TRUE(equal(serial, parallel_a));
  EXPECT_TRUE(equal(parallel_a, parallel_b));
}

TEST(PassiveDns, AggregateStoreSemantics) {
  AggregatePassiveDns db;
  db.record("a.example", {2018, 3, 1}, 10);
  db.record("a.example", {2018, 1, 1}, 5);
  db.record("a.example", {2018, 6, 1}, 1);
  const auto agg = db.lookup("a.example");
  ASSERT_TRUE(agg);
  EXPECT_EQ(agg->first_seen, (util::Date{2018, 1, 1}));
  EXPECT_EQ(agg->last_seen, (util::Date{2018, 6, 1}));
  EXPECT_EQ(agg->total_count, 16u);
  EXPECT_FALSE(db.lookup("missing"));
  db.record("zero.example", {2018, 1, 1}, 0);
  EXPECT_FALSE(db.lookup("zero.example"));
}

TEST(PassiveDns, DailyStoreMonthlySeries) {
  DailyPassiveDns db;
  db.record("d.example", {2018, 9, 1}, 3);
  db.record("d.example", {2018, 9, 20}, 4);
  db.record("d.example", {2018, 10, 2}, 5);
  const auto series = db.monthly_series("d.example");
  ASSERT_EQ(series.size(), 2u);
  EXPECT_EQ(series.at(util::Date{2018, 9, 1}), 7u);
  EXPECT_EQ(series.at(util::Date{2018, 10, 1}), 5u);
  EXPECT_TRUE(db.monthly_series("missing").empty());
}

TEST(PassiveDnsStudy, Figure13Shapes) {
  const auto results = run_passive_dns_study();
  // Only a handful of domains exceed 10K total lookups (paper: 4).
  const auto popular = results.popular_domains(10000);
  EXPECT_GE(popular.size(), 3u);
  EXPECT_LE(popular.size(), 6u);
  EXPECT_NE(std::find(popular.begin(), popular.end(), "dns.google.com"),
            popular.end());

  // Google dwarfs CleanBrowsing by orders of magnitude.
  const auto google = results.daily_db.monthly_series("dns.google.com");
  const auto clean = results.daily_db.monthly_series("doh.cleanbrowsing.org");
  ASSERT_FALSE(google.empty());
  ASSERT_FALSE(clean.empty());
  EXPECT_GT(google.at(util::Date{2019, 3, 1}),
            50 * clean.at(util::Date{2019, 3, 1}));

  // CleanBrowsing grows ~10x from Sep 2018 to Mar 2019.
  const double growth = static_cast<double>(clean.at(util::Date{2019, 3, 1})) /
                        static_cast<double>(clean.at(util::Date{2018, 9, 1}));
  EXPECT_GT(growth, 5.0);
  EXPECT_LT(growth, 20.0);

  // Google has the longest history (first seen 2016).
  const auto agg = results.aggregate_db.lookup("dns.google.com");
  ASSERT_TRUE(agg);
  EXPECT_EQ(agg->first_seen.year, 2016);
  const auto cf = results.aggregate_db.lookup("mozilla.cloudflare-dns.com");
  ASSERT_TRUE(cf);
  EXPECT_GE(cf->first_seen.year, 2018);
}

}  // namespace
}  // namespace encdns::traffic
