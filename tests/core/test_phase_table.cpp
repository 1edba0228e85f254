// The phase table and its one runner (DESIGN.md §7): row order, the graph's
// ordering of the cache writers, accessor results that do not depend on
// call order, budget tokens that follow a late study deadline, the
// untallied accessor path, and the resume prologue's ordering.
#include <gtest/gtest.h>
#include <signal.h>
#include <stdlib.h>
#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "core/checkpoint/journal.hpp"
#include "core/study.hpp"
#include "obs/metrics.hpp"
#include "util/fields.hpp"

namespace encdns::core {
namespace {

TEST(PhaseTable, RowsFollowThePhaseIdsAndDependOnlyOnEarlierRows) {
  const auto& table = phase_table();
  std::vector<std::string> journaled;
  for (std::size_t i = 0; i < table.size(); ++i) {
    EXPECT_EQ(static_cast<std::size_t>(table[i].id), i) << table[i].name;
    for (const auto* edges : {&table[i].deps, &table[i].after})
      for (const PhaseId dep : *edges)
        EXPECT_LT(static_cast<std::size_t>(dep), i) << table[i].name;
    if (table[i].journaled()) journaled.emplace_back(table[i].name);
  }
  EXPECT_EQ(journaled, canonical_phases());
  EXPECT_EQ(canonical_phases().size(), table.size() - 1);  // all but certs
}

// DESIGN.md §15: at paper scale only the Cloudflare backend's cache fills,
// during performance, so every other writer of that cache finishes before
// performance starts. reachability_cn is a dependency (a lone accessor runs
// it, as the canonical order does); the §3 writers are ordering-only edges.
TEST(PhaseTable, PerformanceRunsAfterEveryOtherWriterOfTheCacheItFills) {
  using enum PhaseId;
  const PhaseSpec& performance = phase_spec(kPerformance);
  EXPECT_EQ(performance.deps,
            (std::vector<PhaseId>{kReachabilityGlobal, kReachabilityCn}));
  EXPECT_EQ(performance.after,
            (std::vector<PhaseId>{kScanCampaign, kDohDiscovery, kDohScan}));
  for (const PhaseSpec& spec : phase_table()) {
    if (spec.id == kPerformance) continue;
    EXPECT_TRUE(spec.after.empty()) << spec.name;
  }
}

/// Counter deltas of what `force` runs on a fresh quick Study.
std::map<std::string, std::uint64_t> counters_forced_by(
    const std::function<void(Study&)>& force) {
  Study study(StudyConfig::quick());
  obs::PhaseTally tally;
  {
    obs::ScopedTally scope(&tally);
    force(study);
  }
  std::map<std::string, std::uint64_t> counts;
  for (const auto& counter :
       obs::MetricsRegistry::global().delta_snapshot(tally).counters)
    counts[counter.name] = counter.value;
  return counts;
}

// The ordering-only edges bind the graph, not a lone accessor: performance()
// runs both reachability phases first and no §3 phase (the measure
// workload's pinned cache counts depend on it).
TEST(PhaseTable, LonePerformanceRunsBothReachabilityPhasesAndNoScan) {
  auto lone = counters_forced_by([](Study& s) { (void)s.performance(); });
  auto reach = counters_forced_by([](Study& s) {
    (void)s.reachability_global();
    (void)s.reachability_cn();
  });
  EXPECT_GT(reach["measure.reach.sessions"], 0u);
  EXPECT_EQ(lone["measure.reach.sessions"], reach["measure.reach.sessions"]);
  EXPECT_GT(lone["measure.perf.clients"], 0u);
  for (const auto& [name, value] : lone)
    EXPECT_FALSE(name.starts_with("scan.")) << name << " = " << value;
  EXPECT_EQ(lone["scan.engine.tx"], 0u);
}

// A lone accessor runs its phase's table dependencies first: performance and
// reachability_cn read the platform and cache state reachability_global
// leaves behind, so forcing either on a fresh Study used to measure against
// a different world than the canonical run did (encdns_study --id fig9
// printed 722 GLOBAL clients instead of 743).
TEST(PhaseTable, AccessorResultsDoNotDependOnCallOrder) {
  Study canonical(StudyConfig::quick());
  (void)canonical.reachability_global();
  const auto cn = util::encode(canonical.reachability_cn());
  const auto perf = util::encode(canonical.performance());

  Study cn_first(StudyConfig::quick());
  EXPECT_EQ(util::encode(cn_first.reachability_cn()), cn);
  Study perf_first(StudyConfig::quick());
  EXPECT_EQ(util::encode(perf_first.performance()), perf);
}

// A study deadline set after a shared budget token exists must still reach
// the token's later users. Regression: tokens were chained to the deadline
// only when created, so with ENCDNS_DEADLINE_REACH set the token
// reachability_global built ignored the deadline and reachability_cn ran
// to completion while performance was cut.
TEST(PhaseTable, LateStudyDeadlineReachesSharedBudgetTokens) {
  for (const bool reach_budget : {true, false}) {
    if (reach_budget)
      ::setenv("ENCDNS_DEADLINE_REACH", "600", 1);
    else
      ::unsetenv("ENCDNS_DEADLINE_REACH");
    Study study(StudyConfig::quick());
    (void)study.reachability_global();
    study.set_deadline(1e-6);
    const PhaseCoverage cn = study.phase_coverage(PhaseId::kReachabilityCn);
    EXPECT_EQ(cn.completed, 0u) << "budget env set: " << reach_budget;
    EXPECT_EQ(cn.planned, 2000u);
    const PhaseCoverage perf = study.phase_coverage(PhaseId::kPerformance);
    EXPECT_EQ(perf.completed, 0u) << "budget env set: " << reach_budget;
    EXPECT_EQ(perf.planned, 900u);
  }
  ::unsetenv("ENCDNS_DEADLINE_REACH");
}

// Outside the task graph and without a journal an accessor installs no
// PhaseTally of its own (the `measure` hot path): its metrics land in
// whatever attribution the caller has.
TEST(PhaseTable, ForcedAccessorRunsUnderTheCallersAttribution) {
  Study study(StudyConfig::quick());
  obs::PhaseTally tally;
  {
    obs::ScopedTally scope(&tally);
    (void)study.no_reuse();
  }
  const obs::Snapshot delta =
      obs::MetricsRegistry::global().delta_snapshot(tally);
  bool saw_queries = false;
  for (const auto& counter : delta.counters)
    if (counter.name == "measure.no_reuse.queries" && counter.value > 0)
      saw_queries = true;
  EXPECT_TRUE(saw_queries);
}

// A phase mid-flight at the kill re-runs in the resume prologue after every
// row the graph orders it after, not only its dependencies. Journaled lone
// accessors leave a journal the graph would only rarely leave: performance()
// commits both reachability phases and dies inside performance, and no §3
// phase has a record. The resumed prologue must run scan_campaign before
// performance (its first partial is the resumed process's first commit),
// and the resume must still reproduce the uninterrupted report.
TEST(PhaseTable, ResumePrologueRunsOrderingPredecessorsFirst) {
  char tmpl[] = "/tmp/encdns_order_XXXXXX";
  ASSERT_NE(::mkdtemp(tmpl), nullptr);
  const std::string dir = tmpl;
  Study reference(StudyConfig::quick());
  const std::uint64_t fingerprint = reference.config_fingerprint();
  const auto keys = [&] {
    std::vector<std::string> out;
    const Journal journal(dir, fingerprint, /*resume=*/true);
    for (const auto& record : journal.records()) out.emplace_back(record.key);
    return out;
  };
  {
    Study lone(StudyConfig::quick());
    lone.enable_checkpoint(dir, /*resume=*/false);
    (void)lone.performance();
  }
  // A phase record and its skeleton share one commit.
  int commit = 0;
  int first_performance_partial = 0;
  for (const std::string& key : keys()) {
    if (key == "obs:skeleton") continue;
    ++commit;
    if (key == "partial:performance") {
      first_performance_partial = commit;
      break;
    }
  }
  ASSERT_GT(first_performance_partial, 0);
  std::filesystem::remove_all(dir);

  const auto run_until_killed = [&](int kill_after, bool resume) {
    EXPECT_EXIT(
        {
          ::setenv("ENCDNS_CHECKPOINT_KILL_AFTER",
                   std::to_string(kill_after).c_str(), 1);
          Study victim(StudyConfig::quick());
          victim.enable_checkpoint(dir, resume);
          if (resume)
            (void)victim.observability_report();
          else
            (void)victim.performance();
          std::_Exit(0);  // unreachable: the fuse fires first
        },
        ::testing::KilledBySignal(SIGKILL), "");
  };
  run_until_killed(first_performance_partial, /*resume=*/false);
  const auto killed = keys();
  EXPECT_EQ(killed.back(), "partial:performance");
  run_until_killed(1, /*resume=*/true);
  const auto resumed_keys = keys();
  ASSERT_EQ(resumed_keys.size(), killed.size() + 1);
  EXPECT_EQ(resumed_keys.back(), "partial:scan_campaign");

  const std::string expected = reference.observability_report().to_json();
  Study resumed(StudyConfig::quick());
  resumed.enable_checkpoint(dir, /*resume=*/true);
  EXPECT_EQ(resumed.observability_report().to_json(), expected);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace encdns::core
