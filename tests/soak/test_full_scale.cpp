// Paper-scale soak coverage for StudyConfig::full() (DESIGN.md §11).
//
// Every other integration test runs the study at quick() scale; until this
// suite, nothing ever executed the full-scale configuration (29,622 global
// reachability clients, 20,000 CN clients, 8,257 performance clients, 6,655
// local probes, the 10-scan campaign) end to end. These tests assert the
// paper's headline findings still hold at that scale:
//
//  - Table 2 country growth ranking across the full 10-scan campaign
//  - Table 4 / Finding 21 reachability ordering (Do53 worst, DoH best)
//  - §3.1 local-resolver DoT probe rate band (~0.3%)
//  - the task graph's obs JSON equal at one and four threads, and SIGKILLs
//    mid reachability_global and inside performance resuming to it exactly
//
// The full study takes tens of seconds on one core, so the suite is opt-in:
// each test GTEST_SKIPs unless ENCDNS_SOAK is set in the environment. CTest
// registers the binary under the `soak` label with a generous timeout;
// tools/check.sh runs `ENCDNS_SOAK=1 ctest -L soak` as a dedicated step.
#include <gtest/gtest.h>

#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "core/checkpoint/journal.hpp"
#include "core/report.hpp"
#include "core/study.hpp"
#include "traffic/trend_study.hpp"
#include "util/stats.hpp"

namespace encdns::core {
namespace {

bool soak_enabled() { return std::getenv("ENCDNS_SOAK") != nullptr; }

#define ENCDNS_REQUIRE_SOAK()                                           \
  do {                                                                  \
    if (!soak_enabled())                                                \
      GTEST_SKIP() << "set ENCDNS_SOAK=1 to run paper-scale soak tests"; \
  } while (0)

/// One shared full-scale Study for the whole suite. Experiments are computed
/// lazily and cached inside Study, so the first test that touches a phase
/// pays for it and the rest reuse the result.
Study& full_study() {
  static Study instance{StudyConfig::full()};
  return instance;
}

// --- Table 2: country growth over the full 10-scan campaign -------------------

TEST(SoakTable2, CountryGrowthRankingHoldsAtFullScale) {
  ENCDNS_REQUIRE_SOAK();
  const auto& scans = full_study().scans();
  ASSERT_EQ(scans.size(), 10u);  // full() runs the complete campaign
  util::Counter first, last;
  for (const auto& r : scans.front().resolvers) first.add(r.country);
  for (const auto& r : scans.back().resolvers) last.add(r.country);
  // Paper Table 2: IE +108%, CN -84%, US +431%, BR +122%.
  EXPECT_GT(last.get("IE") / first.get("IE"), 1.7);
  EXPECT_LT(last.get("CN") / first.get("CN"), 0.35);
  EXPECT_GT(last.get("US") / first.get("US"), 3.0);
  EXPECT_GT(last.get("BR") / first.get("BR"), 1.5);
  // The ranking itself: US grows fastest of the four, CN shrinks.
  const double us = last.get("US") / first.get("US");
  const double ie = last.get("IE") / first.get("IE");
  const double br = last.get("BR") / first.get("BR");
  const double cn = last.get("CN") / first.get("CN");
  EXPECT_GT(us, ie);
  EXPECT_GT(us, br);
  EXPECT_LT(cn, 1.0);
}

TEST(SoakTable2, EveryScanInTheCampaignFindsProviders) {
  ENCDNS_REQUIRE_SOAK();
  for (const auto& snapshot : full_study().scans()) {
    EXPECT_GT(snapshot.resolvers.size(), 1200u);
    EXPECT_GT(snapshot.providers().size(), 150u);
    EXPECT_GT(snapshot.port_open, snapshot.resolvers.size() * 10);
  }
}

TEST(SoakTable2, FullCampaignRunsThroughTheStatelessEngine) {
  ENCDNS_REQUIRE_SOAK();
  // The 10-sweep, ~4.65M-probe-per-sweep campaign is gated through the
  // stateless engine by default — this pins the default so a config drift
  // back to the legacy sweep cannot pass silently.
  ASSERT_EQ(full_study().config().campaign.sweep_mode,
            scan::SweepMode::kStateless);
  for (const auto& snapshot : full_study().scans()) {
    // Full-scale fault-free sweeps: every address probed, nothing rejected.
    EXPECT_GT(snapshot.addresses_probed, 4500000u);
    EXPECT_EQ(snapshot.rejected_forgery, 0u);
    EXPECT_EQ(snapshot.rejected_duplicate, 0u);
    EXPECT_EQ(snapshot.rejected_stale, 0u);
    EXPECT_EQ(snapshot.retransmits, 0u);
  }
}

// --- §3 variant: IP-directed DoH discovery at full scale ----------------------

TEST(SoakDohScan, DirectedScanAgreesWithUrlDiscoveryAtFullScale) {
  ENCDNS_REQUIRE_SOAK();
  const auto& scan = full_study().doh_scan();
  // The 443 sweep covers the same ~4.65M-address space as the DoT campaign.
  EXPECT_GT(scan.addresses_probed, 4500000u);
  EXPECT_GT(scan.port443_open, 0u);
  EXPECT_GE(scan.port443_open, scan.tls_established);
  EXPECT_FALSE(scan.endpoints.empty());
  // Cross-check against the URL-dataset discovery: the directed scan must
  // confirm a comparable endpoint population (it can only reach deployments
  // with routable addresses, so it is bounded by the 443-open count) and
  // find at least one host the URL dataset misses.
  const auto& discovery = full_study().doh_discovery();
  EXPECT_GE(discovery.resolvers.size(), 17u);
  std::vector<std::string> url_hosts;
  for (const auto& resolver : discovery.resolvers)
    url_hosts.push_back(resolver.host);
  EXPECT_GE(scan.hosts_beyond(url_hosts), 1u);
  EXPECT_LE(scan.endpoints.size(), scan.port443_open);
}

// --- Table 4 / Finding 21: reachability ordering at full client scale ---------

TEST(SoakTable4, ReachabilityOrderingHoldsAtFullScale) {
  ENCDNS_REQUIRE_SOAK();
  const auto& global = full_study().reachability_global();
  using P = measure::Protocol;
  using O = measure::Outcome;
  EXPECT_GE(global.clients, 29000u);  // full(): 29,622 vantage clients
  const double dns_failed =
      global.cell("Cloudflare", P::kDo53).fraction(O::kFailed);
  const double dot_failed =
      global.cell("Cloudflare", P::kDoT).fraction(O::kFailed);
  const double doh_failed =
      global.cell("Cloudflare", P::kDoH).fraction(O::kFailed);
  // Paper ordering: clear-text Do53 fails most (16%+ of clients), DoT under
  // 4%, DoH under 2% — encrypted DNS is *more* reachable than clear text.
  EXPECT_GT(dns_failed, 0.10);
  EXPECT_LT(dot_failed, 0.04);
  EXPECT_LT(doh_failed, 0.02);
  EXPECT_GT(dns_failed, dot_failed);
  EXPECT_GT(dot_failed, doh_failed);
  // Over 99% of clients can use the DoE services normally.
  EXPECT_GT(global.cell("Cloudflare", P::kDoH).fraction(O::kCorrect), 0.97);
  EXPECT_GT(global.cell("Quad9", P::kDoT).fraction(O::kCorrect), 0.97);
}

TEST(SoakTable4, CensorshipShapeHoldsAtFullCnScale) {
  ENCDNS_REQUIRE_SOAK();
  const auto& cn = full_study().reachability_cn();
  using P = measure::Protocol;
  using O = measure::Outcome;
  EXPECT_GE(cn.clients, 19000u);  // full(): 20,000 CN clients
  EXPECT_GT(cn.cell("Google", P::kDoH).fraction(O::kFailed), 0.99);
  EXPECT_LT(cn.cell("Google", P::kDo53).fraction(O::kFailed), 0.05);
  EXPECT_LT(cn.cell("Cloudflare", P::kDoH).fraction(O::kFailed), 0.05);
}

// --- §3.1: local resolvers barely speak DoT -----------------------------------

TEST(SoakLocalProbe, IspDotRateStaysInPaperBand) {
  ENCDNS_REQUIRE_SOAK();
  const auto& probe = full_study().local_probe();
  // Paper §3.1: 6,657 local resolvers probed, ~0.3% answer DoT. At full
  // probe count the rate must sit in a tight band around that — nonzero
  // (some ISPs do deploy) but rare.
  EXPECT_GT(probe.success_rate(), 0.0005);
  EXPECT_LT(probe.success_rate(), 0.03);
}

// --- §5.2 extension: multi-year adoption trend at 100x the sampled corpus -----

/// Current resident set in bytes (statm field 2), for before/after deltas.
std::uint64_t resident_bytes() {
  std::ifstream statm("/proc/self/statm");
  std::uint64_t pages_total = 0, pages_resident = 0;
  statm >> pages_total >> pages_resident;
  return pages_resident * static_cast<std::uint64_t>(sysconf(_SC_PAGESIZE));
}

TEST(SoakTrend, HundredFoldCorpusRunsUnderFixedTrackedMemory) {
  ENCDNS_REQUIRE_SOAK();
  const auto& trend = full_study().netflow_trend();
  ASSERT_EQ(trend.days_processed, trend.days_planned);
  // The acceptance floor: >= 100x the §5.2 sampled corpus (53,591 records)
  // and millions of distinct clients, while the deterministic live-state
  // high-water mark stays bounded by staging + month accumulators.
  EXPECT_GE(trend.total_records, 100u * 53591u);
  EXPECT_GE(trend.clients_estimated_total(), 1000000u);
  EXPECT_LT(trend.peak_tracked_bytes, 64ull << 20);
  // Every default provider contributed, with a multi-year month series.
  ASSERT_EQ(trend.providers.size(), 4u);
  for (const auto& provider : trend.providers) {
    EXPECT_GT(provider.total_records, 100000u) << provider.name;
    EXPECT_GE(provider.monthly.size(), 24u) << provider.name;
  }
}

TEST(SoakTrend, DayRetirementKeepsResidentMemoryFlat) {
  ENCDNS_REQUIRE_SOAK();
  // Standalone full-scale run (not via full_study(), whose other phases
  // dominate absolute RSS): generating ~9M records across four years must
  // not grow the resident set by more than a fixed staging allowance.
  const std::uint64_t before = resident_bytes();
  traffic::TrendStudyConfig config;  // defaults: scale=1, four-year horizon
  const auto results = traffic::TrendStudy(config).run();
  const std::uint64_t after = resident_bytes();
  ASSERT_GE(results.total_records, 100u * 53591u);
  EXPECT_LT(results.peak_tracked_bytes, 64ull << 20);
  const std::uint64_t delta = after > before ? after - before : 0;
  EXPECT_LT(delta, 256ull << 20)
      << "day retirement should keep memory flat; resident grew by "
      << (delta >> 20) << " MiB over " << results.total_records << " records";
}

TEST(SoakTrend, SketchTracksExactClientsAtValidationScale) {
  ENCDNS_REQUIRE_SOAK();
  // Larger-than-tier-1 validation point: exact per-month client sets are
  // still tractable at 0.1x, and every provider's all-time estimate must sit
  // within the tested 3-sigma band of the exact distinct count.
  traffic::TrendStudyConfig config;
  config.scale = 0.1;
  config.validate_exact = true;
  const auto results = traffic::TrendStudy(config).run();
  const double sigma =
      traffic::Hll(config.hll_precision).relative_error_bound();
  for (const auto& provider : results.providers) {
    ASSERT_GT(provider.clients_exact, 0u) << provider.name;
    const double rel_error =
        std::abs(static_cast<double>(provider.clients_estimated) -
                 static_cast<double>(provider.clients_exact)) /
        static_cast<double>(provider.clients_exact);
    EXPECT_LE(rel_error, 3.0 * sigma) << provider.name;
  }
}

// --- The full report stays green at paper scale -------------------------------

TEST(SoakReport, EveryPaperClaimReproducesAtFullScale) {
  ENCDNS_REQUIRE_SOAK();
  const auto checks = evaluate_findings(full_study());
  EXPECT_GE(checks.size(), 20u);
  for (const auto& check : checks) {
    EXPECT_TRUE(check.ok) << check.id << ": " << check.description << " (paper "
                          << check.paper << ", measured " << check.measured
                          << ")";
  }
  EXPECT_EQ(failed_count(checks), 0u);
}

// --- The one schedule at paper scale ------------------------------------------

// DESIGN.md §15: the task graph orders every writer of the resolver cache
// performance fills before performance, so the full study's stable obs JSON
// is a function of the config alone: equal at any thread count, and after
// a SIGKILL anywhere followed by a resume. A full-scale journal ends at
// ~117 MB; the resume legs write it under the temp directory ($TMPDIR,
// else /tmp).

/// The full study's stable obs JSON at `threads` worker threads, journaled
/// into `dir` when one is given.
std::string full_report(const char* threads, const std::string& dir = "",
                        bool resume = false) {
  ::setenv("ENCDNS_THREADS", threads, 1);
  Study study(StudyConfig::full());
  if (!dir.empty()) study.enable_checkpoint(dir, resume);
  std::string json = study.observability_report().to_json();
  ::unsetenv("ENCDNS_THREADS");
  return json;
}

std::string make_temp_dir() {
  std::string dir = (std::filesystem::temp_directory_path() /
                     "encdns_soak_resume_XXXXXX")
                        .string();
  return ::mkdtemp(dir.data()) == nullptr ? std::string() : dir;
}

/// A full journaled run into `dir` at `threads`, SIGKILLed at `commit`.
void run_until_killed(const std::string& dir, const char* threads,
                      int commit) {
  EXPECT_EXIT(
      {
        ::setenv("ENCDNS_CHECKPOINT_KILL_AFTER", std::to_string(commit).c_str(),
                 1);
        (void)full_report(threads, dir);
        std::_Exit(0);  // unreachable: the fuse fires first
      },
      ::testing::KilledBySignal(SIGKILL), "");
}

TEST(SoakDeterminism, GraphReportIsEqualAtOneAndFourThreads) {
  ENCDNS_REQUIRE_SOAK();
  EXPECT_EQ(full_report("1"), full_report("4"));
}

// Commit 40 lands mid reachability_global.
TEST(SoakResume, GraphKillMidReachabilityResumesToTheUninterruptedReport) {
  ENCDNS_REQUIRE_SOAK();
  const std::string dir = make_temp_dir();
  ASSERT_FALSE(dir.empty());
  run_until_killed(dir, "2", 40);
  const std::string expected = full_report("4");
  EXPECT_EQ(full_report("8", dir, /*resume=*/true), expected);
  std::filesystem::remove_all(dir);
}

// The kill point is the commit of performance's middle partial in an
// uninterrupted journal's key order. Other phases' partials interleave with
// performance's, so the same commit of a killed run still lands inside it.
TEST(SoakResume, GraphKillInsidePerformanceResumesToTheUninterruptedReport) {
  ENCDNS_REQUIRE_SOAK();
  const std::string dir = make_temp_dir();
  ASSERT_FALSE(dir.empty());
  const std::uint64_t fingerprint = Study(StudyConfig::full()).config_fingerprint();
  const auto keys = [&] {
    std::vector<std::string> out;
    const Journal journal(dir, fingerprint, /*resume=*/true);
    for (const auto& record : journal.records()) out.emplace_back(record.key);
    return out;
  };
  (void)full_report("4", dir);
  // A phase record and its name skeleton share one commit.
  std::vector<int> performance_partials;
  int commit = 0;
  for (const std::string& key : keys()) {
    if (key == "obs:skeleton") continue;
    ++commit;
    if (key == "partial:performance") performance_partials.push_back(commit);
  }
  ASSERT_GE(performance_partials.size(), 3u);
  const int kill_at = performance_partials[performance_partials.size() / 2];
  std::filesystem::remove_all(dir);
  ASSERT_TRUE(std::filesystem::create_directory(dir));

  run_until_killed(dir, "8", kill_at);
  const auto killed = keys();
  EXPECT_NE(std::find(killed.begin(), killed.end(), "partial:performance"),
            killed.end());
  EXPECT_EQ(std::find(killed.begin(), killed.end(), "phase:performance"),
            killed.end());
  const std::string expected = full_report("4");
  EXPECT_EQ(full_report("1", dir, /*resume=*/true), expected);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace encdns::core
