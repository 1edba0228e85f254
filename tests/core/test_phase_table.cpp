// The phase table and its one runner (DESIGN.md §7): row order, accessor
// results that do not depend on call order, budget tokens that follow a late
// study deadline, and the untallied accessor path.
#include <gtest/gtest.h>
#include <stdlib.h>

#include <string>
#include <vector>

#include "core/study.hpp"
#include "measure/codec.hpp"
#include "obs/metrics.hpp"
#include "util/bytes.hpp"

namespace encdns::core {
namespace {

TEST(PhaseTable, RowsFollowThePhaseIdsAndDependOnlyOnEarlierRows) {
  const auto& table = phase_table();
  std::vector<std::string> journaled;
  for (std::size_t i = 0; i < table.size(); ++i) {
    EXPECT_EQ(static_cast<std::size_t>(table[i].id), i) << table[i].name;
    for (const PhaseId dep : table[i].deps)
      EXPECT_LT(static_cast<std::size_t>(dep), i) << table[i].name;
    if (table[i].journaled()) journaled.emplace_back(table[i].name);
  }
  EXPECT_EQ(journaled, canonical_phases());
  EXPECT_EQ(canonical_phases().size(), table.size() - 1);  // all but certs
}

std::vector<std::uint8_t> reachability_bytes(
    const measure::ReachabilityResults& results) {
  util::ByteWriter w;
  measure::encode_reachability(w, results);
  return w.take();
}

std::vector<std::uint8_t> performance_bytes(
    const measure::PerformanceResults& results) {
  util::ByteWriter w;
  measure::encode_performance(w, results);
  return w.take();
}

// A lone accessor runs its phase's table dependencies first: performance and
// reachability_cn read the platform and cache state reachability_global
// leaves behind, so forcing either on a fresh Study used to measure against
// a different world than the canonical run did (encdns_study --id fig9
// printed 722 GLOBAL clients instead of 743).
TEST(PhaseTable, AccessorResultsDoNotDependOnCallOrder) {
  Study canonical(StudyConfig::quick());
  (void)canonical.reachability_global();
  const auto cn = reachability_bytes(canonical.reachability_cn());
  const auto perf = performance_bytes(canonical.performance());

  Study cn_first(StudyConfig::quick());
  EXPECT_EQ(reachability_bytes(cn_first.reachability_cn()), cn);
  Study perf_first(StudyConfig::quick());
  EXPECT_EQ(performance_bytes(perf_first.performance()), perf);
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

}  // namespace
}  // namespace encdns::core
