// Unit tests for the observability layer (src/obs) plus the acceptance
// test of its central contract: the stable JSON snapshot of a full
// instrumented phase is byte-identical at 1, 2 and 8 worker threads.
#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "measure/reachability.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "obs/span.hpp"
#include "proxy/proxy.hpp"
#include "scan/scanner.hpp"
#include "sim/duration.hpp"
#include "util/date.hpp"
#include "world/world.hpp"

namespace encdns::obs {
namespace {

// Restores the global enable switch so a failing test cannot silently turn
// instrumentation off for the rest of the binary.
struct EnabledGuard {
  explicit EnabledGuard(bool on) { set_enabled(on); }
  ~EnabledGuard() { set_enabled(true); }
};

TEST(Counter, AddsAndResets) {
  auto& counter = MetricsRegistry::global().counter("test.counter.basic");
  counter.reset();
  counter.add();
  counter.add(41);
  EXPECT_EQ(counter.value(), 42u);
  counter.reset();
  EXPECT_EQ(counter.value(), 0u);
}

TEST(Counter, ShardsMergeAcrossThreads) {
  auto& counter = MetricsRegistry::global().counter("test.counter.sharded");
  counter.reset();
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t)
    threads.emplace_back([&] {
      for (int i = 0; i < 1000; ++i) counter.add();
    });
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(counter.value(), 8000u);
}

TEST(Counter, DisabledSwitchSkipsRecording) {
  auto& counter = MetricsRegistry::global().counter("test.counter.switch");
  counter.reset();
  {
    EnabledGuard off(false);
    counter.add(7);
    EXPECT_EQ(counter.value(), 0u);
  }
  counter.add(7);
  EXPECT_EQ(counter.value(), 7u);
}

TEST(Gauge, SetAddMax) {
  auto& gauge = MetricsRegistry::global().gauge("test.gauge.basic");
  gauge.reset();
  gauge.set(10);
  gauge.add(-3);
  EXPECT_EQ(gauge.value(), 7);
  gauge.set_max(100);
  gauge.set_max(50);  // lower: ignored
  EXPECT_EQ(gauge.value(), 100);
  gauge.reset();
  EXPECT_EQ(gauge.value(), 0);
}

TEST(Histogram, BucketsScaleAndMinMax) {
  auto& histogram = MetricsRegistry::global().histogram(
      "test.histogram.basic_ms", {1.0, 10.0, 100.0});
  histogram.reset();
  histogram.observe(0.5);    // bucket 0 (<= 1ms)
  histogram.observe(1.0);    // bucket 0 (upper edge inclusive)
  histogram.observe(5.0);    // bucket 1
  histogram.observe(99.0);   // bucket 2
  histogram.observe(500.0);  // overflow bucket
  EXPECT_EQ(histogram.count(), 5u);
  EXPECT_EQ(histogram.bucket(0), 2u);
  EXPECT_EQ(histogram.bucket(1), 1u);
  EXPECT_EQ(histogram.bucket(2), 1u);
  EXPECT_EQ(histogram.bucket(3), 1u);
  // Sum/min/max in integer microseconds.
  EXPECT_EQ(histogram.sum_us(), 605500u);
  EXPECT_EQ(histogram.min_us(), 500);
  EXPECT_EQ(histogram.max_us(), 500000);
  histogram.reset();
  EXPECT_EQ(histogram.count(), 0u);
  EXPECT_EQ(histogram.min_us(), 0);
  EXPECT_EQ(histogram.max_us(), 0);
}

TEST(Histogram, SumIsOrderIndependent) {
  // Scaling each observation to integer microseconds before accumulation is
  // what makes parallel observation deterministic: integer addition
  // commutes where floating-point addition does not.
  auto& forward = MetricsRegistry::global().histogram(
      "test.histogram.forward_ms", latency_buckets_ms());
  auto& reverse = MetricsRegistry::global().histogram(
      "test.histogram.reverse_ms", latency_buckets_ms());
  forward.reset();
  reverse.reset();
  std::vector<double> values;
  for (int i = 0; i < 1000; ++i) values.push_back(0.1 + 0.3 * i);
  for (auto it = values.begin(); it != values.end(); ++it)
    forward.observe(*it);
  for (auto it = values.rbegin(); it != values.rend(); ++it)
    reverse.observe(*it);
  EXPECT_EQ(forward.sum_us(), reverse.sum_us());
  EXPECT_EQ(forward.count(), reverse.count());
  for (std::size_t i = 0; i <= latency_buckets_ms().size(); ++i)
    EXPECT_EQ(forward.bucket(i), reverse.bucket(i)) << "bucket " << i;
}

TEST(Registry, GetOrCreateReturnsSameInstance) {
  auto& first = MetricsRegistry::global().counter("test.registry.identity");
  auto& second = MetricsRegistry::global().counter("test.registry.identity");
  EXPECT_EQ(&first, &second);
  auto& span_first = MetricsRegistry::global().span("test.registry.span");
  auto& span_second = MetricsRegistry::global().span("test.registry.span");
  EXPECT_EQ(&span_first, &span_second);
}

TEST(Registry, ReferencesSurviveReset) {
  auto& counter = MetricsRegistry::global().counter("test.registry.survivor");
  counter.add(5);
  MetricsRegistry::global().reset();
  EXPECT_EQ(counter.value(), 0u);
  counter.add(3);  // the reference is still the registered metric
  EXPECT_EQ(MetricsRegistry::global().counter("test.registry.survivor").value(),
            3u);
}

TEST(Snapshot, SortedAndDiagnosticFiltered) {
  auto& registry = MetricsRegistry::global();
  registry.reset();
  registry.counter("test.snap.zz").add(1);
  registry.counter("test.snap.aa").add(2);
  registry.counter("test.snap.diag", /*diagnostic=*/true).add(3);
  const Snapshot snapshot = registry.snapshot();

  // Counters arrive name-sorted (std::map iteration order).
  std::vector<std::string> names;
  for (const auto& sample : snapshot.counters)
    if (sample.name.starts_with("test.snap.")) names.push_back(sample.name);
  ASSERT_EQ(names.size(), 3u);
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));

  const std::string stable = snapshot.to_json(false);
  const std::string full = snapshot.to_json(true);
  EXPECT_NE(stable.find("test.snap.aa"), std::string::npos);
  EXPECT_EQ(stable.find("test.snap.diag"), std::string::npos);
  EXPECT_NE(full.find("test.snap.diag"), std::string::npos);
  EXPECT_NE(stable.find("\"schema\": \"encdns.obs.v1\""), std::string::npos);
  EXPECT_EQ(stable.find("wall_ns"), std::string::npos);
  EXPECT_FALSE(snapshot.to_text().empty());
}

TEST(Span, CreditsSimTimeAndCounts) {
  auto& stat = MetricsRegistry::global().span("test.span.credit");
  stat.reset();
  {
    SpanScope scope(stat);
    scope.add_sim(sim::Millis{2.5});
    scope.add_sim(sim::Millis{1.5});
  }
  {
    SpanScope scope(stat);
    scope.add_sim(sim::Millis{10.0});
  }
  EXPECT_EQ(stat.count.load(), 2u);
  EXPECT_EQ(stat.sim_us.load(), 14000u);  // (2.5 + 1.5 + 10) ms in us
}

TEST(Span, InertWhenDisabled) {
  auto& stat = MetricsRegistry::global().span("test.span.inert");
  stat.reset();
  {
    EnabledGuard off(false);
    SpanScope scope(stat);
    scope.add_sim(sim::Millis{100.0});
  }
  EXPECT_EQ(stat.count.load(), 0u);
  EXPECT_EQ(stat.sim_us.load(), 0u);
  EXPECT_EQ(stat.wall_ns.load(), 0u);
}

TEST(Span, MacroRegistersDottedName) {
  {
    OBS_SPAN("test.span.macro");
  }
  EXPECT_GE(MetricsRegistry::global().span("test.span.macro").count.load(),
            1u);
}

TEST(Profiler, RecordsDeltasPerPhase) {
  auto& registry = MetricsRegistry::global();
  registry.reset();
  auto& work = registry.counter("test.phase.work");
  auto& faults = registry.counter("test.phase.fault.injected");
  auto& span = registry.span("test.phase.span");

  PhaseTally alpha_tally;
  {
    ScopedTally attribute(&alpha_tally);
    work.add(10);
    faults.add(2);
    SpanScope scope(span);
    scope.add_sim(sim::Millis{5.0});
  }
  PhaseTally beta_tally;
  {
    ScopedTally attribute(&beta_tally);
    work.add(1);
  }
  const std::vector<PhaseRecord> records = {
      PhaseProfiler::from_delta("alpha", registry.delta_snapshot(alpha_tally),
                                1.5),
      PhaseProfiler::from_delta("beta", registry.delta_snapshot(beta_tally),
                                0.5)};

  const PhaseRecord& alpha = records[0];
  EXPECT_EQ(alpha.name, "alpha");
  EXPECT_EQ(alpha.sim_us, 5000u);
  EXPECT_EQ(alpha.faults, 2u);
  EXPECT_EQ(alpha.wall_ms, 1.5);
  bool saw_work = false;
  for (const auto& sample : alpha.counters)
    if (sample.name == "test.phase.work") {
      saw_work = true;
      EXPECT_EQ(sample.value, 10u);
    }
  EXPECT_TRUE(saw_work);
  const PhaseRecord& beta = records[1];
  EXPECT_EQ(beta.name, "beta");
  EXPECT_EQ(beta.sim_us, 0u);
  EXPECT_EQ(beta.faults, 0u);

  const std::string json = PhaseProfiler::to_json(records);
  EXPECT_NE(json.find("\"alpha\""), std::string::npos);
  EXPECT_EQ(json.find("wall"), std::string::npos);
  EXPECT_FALSE(PhaseProfiler::to_text(records).empty());
}

// ---------------------------------------------------------------------------
// Acceptance: instrumented phases produce a byte-identical stable snapshot
// for any worker count. Runs a real scan sweep + probe and a reachability
// fan-out — the two most heavily parallel phases — at 1, 2 and 8 threads.

TEST(ThreadInvariance, SnapshotJsonByteIdenticalAt1_2_8Threads) {
  std::vector<std::string> snapshots;
  for (const unsigned threads : {1u, 2u, 8u}) {
    MetricsRegistry::global().reset();
    // Fresh world per run: the network model is stateful (latency draws
    // consume per-world rng state), so reuse would conflate "different
    // thread count" with "warmer world". Same seed -> same world.
    world::World world;

    scan::CampaignConfig scan_config;
    scan_config.thread_count = threads;
    scan::Scanner scanner(world, scan_config);
    const auto snapshot_result = scanner.scan_once(util::Date{2019, 2, 1});
    EXPECT_GT(snapshot_result.addresses_probed, 0u);

    proxy::ProxyNetwork platform(world, proxy::ProxyConfig{}, 21);
    measure::ReachabilityConfig reach_config;
    reach_config.client_count = 400;
    reach_config.thread_count = threads;
    measure::ReachabilityTest reachability(world, platform, reach_config);
    const auto results = reachability.run();
    EXPECT_GT(results.clients, 0u);

    snapshots.push_back(MetricsRegistry::global().snapshot().to_json());
  }
  ASSERT_EQ(snapshots.size(), 3u);
  EXPECT_EQ(snapshots[0], snapshots[1]) << "1 vs 2 threads";
  EXPECT_EQ(snapshots[0], snapshots[2]) << "1 vs 8 threads";
  // The snapshot must actually contain the instrumented families, or the
  // equality above would be vacuous.
  EXPECT_NE(snapshots[0].find("scan.sweep.probes"), std::string::npos);
  EXPECT_NE(snapshots[0].find("measure.reach.queries"), std::string::npos);
  EXPECT_NE(snapshots[0].find("scan.probe.latency_ms"), std::string::npos);
}

}  // namespace
}  // namespace encdns::obs
