// Differential tests of the fused §5 traffic passes against the row-by-row
// reference they replaced (support/traffic_reference.hpp), at quick scale,
// for three seeds, at one and four threads: the §5.2 monthly series, every
// netblock (records, active days, first and last seen), the excluded,
// unmatched and flagged counts and the distinct-block estimate must be
// equal, and the partial state saved at each group boundary — counters,
// sorted active-day lists, the block sketch and the scan detector's export —
// byte-equal to the one the reference writes in the parent layout. The trend
// must match per month in records, bytes and estimate, and its saved states
// (every month's sketch registers) byte for byte, except for the live-state
// peak, which no longer charges the staging batch the reference fills.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <vector>

#include "core/study.hpp"
#include "exec/checkpoint_hook.hpp"
#include "support/traffic_reference.hpp"
#include "traffic/netflow_study.hpp"
#include "traffic/trend_study.hpp"

namespace encdns::traffic {
namespace {

class RecordingHook : public exec::CheckpointHook {
 public:
  std::optional<std::vector<std::uint8_t>> load() override {
    return std::nullopt;
  }
  void save(const std::vector<std::uint8_t>& state) override {
    states.push_back(state);
  }
  std::vector<std::vector<std::uint8_t>> states;
};

constexpr unsigned kThreadCounts[] = {1, 4};

class NetflowReference : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(NetflowReference, FusedPassMatchesTheRowByRowReference) {
  NetflowStudyConfig config = core::StudyConfig::quick().netflow;
  config.seed = GetParam();
  config.backbone.seed = GetParam();
  const reference::NetflowRun expected =
      reference::run_netflow(config, big_resolver_address_list());
  const NetflowStudyResults& want = expected.results;
  ASSERT_GT(want.total_dot_records, 0u);
  ASSERT_GT(want.excluded_single_syn, 0u);

  for (const unsigned threads : kThreadCounts) {
    SCOPED_TRACE(testing::Message() << threads << " threads");
    RecordingHook hook;
    config.thread_count = threads;
    config.checkpoint = &hook;
    const NetflowStudyResults got =
        NetflowStudy(config, big_resolver_address_list()).run();

    EXPECT_EQ(got.cloudflare_monthly, want.cloudflare_monthly);
    EXPECT_EQ(got.quad9_monthly, want.quad9_monthly);
    EXPECT_EQ(got.total_dot_records, want.total_dot_records);
    EXPECT_EQ(got.excluded_single_syn, want.excluded_single_syn);
    EXPECT_EQ(got.unmatched_853_records, want.unmatched_853_records);
    EXPECT_EQ(got.flagged_client_blocks, want.flagged_client_blocks);
    EXPECT_EQ(got.distinct_block_estimate, want.distinct_block_estimate);
    EXPECT_EQ(got.days_planned, want.days_planned);
    EXPECT_EQ(got.days_processed, want.days_processed);
    ASSERT_EQ(got.netblocks.size(), want.netblocks.size());
    for (std::size_t i = 0; i < want.netblocks.size(); ++i) {
      const NetblockStat& g = got.netblocks[i];
      const NetblockStat& w = want.netblocks[i];
      EXPECT_EQ(g.slash24, w.slash24) << "netblock " << i;
      EXPECT_EQ(g.records, w.records) << "netblock " << i;
      EXPECT_EQ(g.active_days, w.active_days) << "netblock " << i;
      EXPECT_EQ(g.first_seen, w.first_seen) << "netblock " << i;
      EXPECT_EQ(g.last_seen, w.last_seen) << "netblock " << i;
    }
    ASSERT_EQ(hook.states.size(), expected.states.size());
    for (std::size_t g = 0; g < expected.states.size(); ++g)
      EXPECT_EQ(hook.states[g], expected.states[g])
          << "state saved after group " << g + 1;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, NetflowReference,
                         ::testing::Values(2019, 7, 31));

class TrendReference : public ::testing::TestWithParam<std::uint64_t> {};

// The offset of the live-state peak in a saved trend state: after the group
// count, days processed, records and bytes.
constexpr std::size_t kPeakOffset = 32;

TEST_P(TrendReference, FusedPassMatchesTheStagedReference) {
  TrendStudyConfig config = core::StudyConfig::quick().trend;
  config.seed = GetParam();
  const reference::TrendRun expected = reference::run_trend(config);
  const TrendStudyResults& want = expected.results;
  ASSERT_GT(want.total_records, 0u);

  for (const unsigned threads : kThreadCounts) {
    SCOPED_TRACE(testing::Message() << threads << " threads");
    RecordingHook hook;
    config.thread_count = threads;
    config.checkpoint = &hook;
    const TrendStudyResults got = TrendStudy(config).run();

    EXPECT_EQ(got.total_records, want.total_records);
    EXPECT_EQ(got.total_bytes, want.total_bytes);
    EXPECT_EQ(got.days_planned, want.days_planned);
    EXPECT_EQ(got.days_processed, want.days_processed);
    ASSERT_EQ(got.providers.size(), want.providers.size());
    for (std::size_t p = 0; p < want.providers.size(); ++p) {
      const TrendProviderSeries& g = got.providers[p];
      const TrendProviderSeries& w = want.providers[p];
      EXPECT_EQ(g.name, w.name);
      EXPECT_EQ(g.total_records, w.total_records) << w.name;
      EXPECT_EQ(g.total_bytes, w.total_bytes) << w.name;
      EXPECT_EQ(g.clients_estimated, w.clients_estimated) << w.name;
      ASSERT_EQ(g.monthly.size(), w.monthly.size()) << w.name;
      for (std::size_t m = 0; m < w.monthly.size(); ++m) {
        EXPECT_EQ(g.monthly[m].month, w.monthly[m].month) << w.name;
        EXPECT_EQ(g.monthly[m].records, w.monthly[m].records) << w.name;
        EXPECT_EQ(g.monthly[m].bytes, w.monthly[m].bytes) << w.name;
        EXPECT_EQ(g.monthly[m].clients_estimated,
                  w.monthly[m].clients_estimated)
            << w.name;
      }
    }
    // The peak leaves out the staging batch's columns, and nothing else.
    EXPECT_EQ(got.peak_tracked_bytes, expected.unstaged_peak);
    EXPECT_LE(got.peak_tracked_bytes, want.peak_tracked_bytes);

    ASSERT_EQ(hook.states.size(), expected.states.size());
    for (std::size_t g = 0; g < expected.states.size(); ++g) {
      std::vector<std::uint8_t> unstaged = expected.states[g];
      ASSERT_GE(unstaged.size(), kPeakOffset + 8);
      const std::uint64_t peak = expected.unstaged_peaks[g];
      for (std::size_t b = 0; b < 8; ++b)
        unstaged[kPeakOffset + b] = static_cast<std::uint8_t>(peak >> (8 * b));
      EXPECT_EQ(hook.states[g], unstaged) << "state saved after group " << g + 1;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TrendReference, ::testing::Values(2019, 7, 31));

}  // namespace
}  // namespace encdns::traffic
