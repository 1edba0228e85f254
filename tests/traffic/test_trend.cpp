// The multi-year adoption trend engine (DESIGN.md §16): rate-model
// semantics (launch gating, event multipliers), the dynamics visible in the
// monthly series, thread-count invariance of the full result bytes,
// cancellation on a shard prefix, checkpoint save/resume equality, and the
// fixed-memory property the day-retirement design exists for.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <optional>
#include <vector>

#include "exec/cancel.hpp"
#include "exec/checkpoint_hook.hpp"
#include "traffic/trend_study.hpp"
#include "util/bytes.hpp"
#include "util/fields.hpp"

namespace encdns::traffic {
namespace {

std::vector<std::uint8_t> result_bytes(const TrendStudyResults& results) {
  return util::encode(results);
}

TrendStudyConfig quick_config() {
  TrendStudyConfig config;
  config.scale = 0.02;
  return config;
}

// A single-provider model with flat growth and no churn, so the only
// rate-shaping inputs are launch gating and the event list under test.
TrendProvider flat_provider() {
  TrendProvider provider;
  provider.name = "flat";
  provider.resolver = util::Ipv4{192, 0, 2, 1};
  provider.launch = util::Date{2019, 1, 1};
  provider.base_daily_flows = 1000.0;
  provider.monthly_growth = 1.0;
  provider.client_space = 10000;
  provider.address_base = util::Ipv4{10, 0, 0, 0}.value();
  return provider;
}

TEST(TrendStudy, RateIsZeroBeforeLaunchAndPositiveAfter) {
  const TrendStudy study(quick_config());
  for (const auto& provider : study.providers()) {
    EXPECT_EQ(study.daily_rate(provider, provider.launch.plus_days(-1)), 0.0)
        << provider.name;
    EXPECT_GT(study.daily_rate(provider, provider.launch), 0.0)
        << provider.name;
  }
}

TEST(TrendStudy, EventMultiplierScalesTheRateExactly) {
  // Same provider, same seed, same day: the day-noise factor is a pure
  // function of (seed, provider, day), so the rate ratio between a config
  // with a x0.45 window and one with a x1.0 marker is exactly 0.45.
  const util::Date day{2019, 6, 15};
  AdoptionEvent window;
  window.kind = AdoptionEvent::Kind::kCensorship;
  window.from = util::Date{2019, 6, 1};
  window.to = util::Date{2019, 7, 1};
  window.multiplier = 0.45;
  window.label = "test window";

  TrendStudyConfig treated;
  treated.providers = {flat_provider()};
  treated.events = {window};
  TrendStudyConfig control = treated;
  control.events[0].multiplier = 1.0;

  const TrendStudy treated_study(treated);
  const TrendStudy control_study(control);
  const double treated_rate =
      treated_study.daily_rate(treated_study.providers()[0], day);
  const double control_rate =
      control_study.daily_rate(control_study.providers()[0], day);
  ASSERT_GT(control_rate, 0.0);
  EXPECT_DOUBLE_EQ(treated_rate, control_rate * 0.45);
  // Outside the window the two models agree.
  const util::Date outside{2019, 8, 1};
  EXPECT_DOUBLE_EQ(treated_study.daily_rate(treated_study.providers()[0], outside),
                   control_study.daily_rate(control_study.providers()[0], outside));
}

TEST(TrendStudy, EventWithProviderAppliesOnlyToThatProvider) {
  TrendProvider other = flat_provider();
  other.name = "other";
  other.resolver = util::Ipv4{192, 0, 2, 2};
  other.address_base = util::Ipv4{11, 0, 0, 0}.value();
  AdoptionEvent flip;
  flip.kind = AdoptionEvent::Kind::kBrowserDefault;
  flip.provider = "flat";
  flip.from = util::Date{2019, 6, 1};
  flip.multiplier = 2.0;
  flip.label = "default flip";
  TrendStudyConfig config;
  config.providers = {flat_provider(), other};
  config.events = {flip};
  TrendStudyConfig baseline = config;
  baseline.events[0].multiplier = 1.0;

  const TrendStudy with(config), without(baseline);
  const util::Date day{2019, 9, 1};
  EXPECT_DOUBLE_EQ(with.daily_rate(with.providers()[0], day),
                   2.0 * without.daily_rate(without.providers()[0], day));
  EXPECT_DOUBLE_EQ(with.daily_rate(with.providers()[1], day),
                   without.daily_rate(without.providers()[1], day));
}

TEST(TrendStudy, MonthlySeriesShowsLaunchGrowthDipAndFlip) {
  TrendStudyResults results = TrendStudy(quick_config()).run();
  ASSERT_EQ(results.days_processed, results.days_planned);

  const TrendProviderSeries* cloudflare = results.provider("cloudflare");
  ASSERT_NE(cloudflare, nullptr);
  // No months before the provider existed.
  ASSERT_FALSE(cloudflare->monthly.empty());
  EXPECT_EQ(cloudflare->monthly.front().month, (util::Date{2018, 4, 1}));
  // The censorship window (Nov 2019 – Feb 2020) dips below the preceding
  // summer despite compounding growth.
  const TrendMonth* before = cloudflare->month(util::Date{2019, 7, 1});
  const TrendMonth* dipped = cloudflare->month(util::Date{2020, 1, 1});
  ASSERT_NE(before, nullptr);
  ASSERT_NE(dipped, nullptr);
  EXPECT_LT(dipped->records, before->records);
  // The Firefox default flip (Feb 2020) more than recovers it.
  const TrendMonth* flipped = cloudflare->month(util::Date{2020, 7, 1});
  ASSERT_NE(flipped, nullptr);
  EXPECT_GT(flipped->records, 3 * dipped->records);

  // Distinct clients: month estimates are positive and the all-time merge
  // is at least any single month (a union can only grow).
  std::uint64_t max_month = 0;
  for (const auto& month : cloudflare->monthly)
    max_month = std::max(max_month, month.clients_estimated);
  EXPECT_GT(max_month, 0u);
  EXPECT_GE(cloudflare->clients_estimated, max_month / 2);
  EXPECT_GT(results.clients_estimated_total(), 0u);
}

TEST(TrendStudy, HllTracksExactClientCountsAtValidationScale) {
  TrendStudyConfig config = quick_config();
  config.validate_exact = true;
  TrendStudyResults results = TrendStudy(config).run();
  for (const auto& provider : results.providers) {
    ASSERT_GT(provider.clients_exact, 0u) << provider.name;
    const double rel_error =
        std::abs(static_cast<double>(provider.clients_estimated) -
                 static_cast<double>(provider.clients_exact)) /
        static_cast<double>(provider.clients_exact);
    EXPECT_LE(rel_error, 3.0 * Hll(config.hll_precision).relative_error_bound())
        << provider.name;
  }
}

TEST(TrendStudy, NetflowThreadCountInvariance) {
  // The determinism contract: ENCDNS_THREADS must not leak into any result
  // byte — counters, month series, or sketch registers.
  std::optional<std::vector<std::uint8_t>> reference;
  for (const char* threads : {"1", "2", "8"}) {
    setenv("ENCDNS_THREADS", threads, 1);
    TrendStudyConfig config = quick_config();
    config.thread_count = 0;  // resolve through the env knob
    const auto bytes = result_bytes(TrendStudy(config).run());
    if (!reference) {
      reference = bytes;
    } else {
      EXPECT_EQ(bytes, *reference) << "ENCDNS_THREADS=" << threads;
    }
  }
  unsetenv("ENCDNS_THREADS");
}

TEST(TrendStudy, PreTrippedCancelProcessesNothing) {
  exec::CancelToken cancel;
  cancel.cancel("test");
  TrendStudyConfig config = quick_config();
  config.cancel = &cancel;
  TrendStudyResults results = TrendStudy(config).run();
  EXPECT_EQ(results.days_processed, 0u);
  EXPECT_EQ(results.total_records, 0u);
  EXPECT_GT(results.days_planned, 0u);
}

class MemoryHook : public exec::CheckpointHook {
 public:
  std::optional<std::vector<std::uint8_t>> load() override { return state_; }
  void save(const std::vector<std::uint8_t>& state) override {
    state_ = state;
    ++saves_;
  }
  std::optional<std::vector<std::uint8_t>> state_;
  int saves_ = 0;
};

TEST(TrendStudy, ResumeFromGroupCheckpointMatchesUninterruptedRun) {
  const auto uninterrupted = result_bytes(TrendStudy(quick_config()).run());

  // First run: save at every group boundary (3 saves for 4 groups).
  MemoryHook hook;
  TrendStudyConfig first = quick_config();
  first.checkpoint = &hook;
  const auto with_hook = result_bytes(TrendStudy(first).run());
  EXPECT_EQ(with_hook, uninterrupted);
  EXPECT_EQ(hook.saves_, 3);
  ASSERT_TRUE(hook.state_.has_value());

  // Second run resumes from the last saved group boundary — as after a
  // SIGKILL — and must land on the identical bytes.
  MemoryHook resume;
  resume.state_ = hook.state_;
  TrendStudyConfig second = quick_config();
  second.checkpoint = &resume;
  EXPECT_EQ(result_bytes(TrendStudy(second).run()), uninterrupted);
}

TEST(TrendStudy, CorruptCheckpointFailsClosed) {
  MemoryHook hook;
  TrendStudyConfig first = quick_config();
  first.checkpoint = &hook;
  (void)TrendStudy(first).run();
  ASSERT_TRUE(hook.state_.has_value());
  (*hook.state_)[hook.state_->size() / 2] ^= 0xFF;
  MemoryHook corrupted;
  corrupted.state_ = hook.state_;
  TrendStudyConfig second = quick_config();
  second.checkpoint = &corrupted;
  EXPECT_THROW((void)TrendStudy(second).run(), util::CodecError);
}

TEST(TrendStudy, PeakTrackedBytesStaysFlatAsScaleGrows) {
  // Day retirement bounds live state by the day sketch plus the month
  // tables: quadrupling the flow volume must not move the high-water mark
  // by more than the sketch/accumulator slack.
  TrendStudyConfig small = quick_config();
  TrendStudyConfig large = quick_config();
  large.scale = 4 * small.scale;
  const auto small_peak = TrendStudy(small).run().peak_tracked_bytes;
  const auto large_run = TrendStudy(large).run();
  ASSERT_GT(large_run.total_records, 0u);
  EXPECT_GT(small_peak, 0u);
  EXPECT_LE(large_run.peak_tracked_bytes, small_peak + small_peak / 2)
      << "4x the volume should not grow live state by more than 50%";
}

}  // namespace
}  // namespace encdns::traffic
