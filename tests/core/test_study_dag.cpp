// Study-level task-graph execution (DESIGN.md §15): kill-chaos resume under
// overlapping phases, its twins for journaled accessors forced one at a
// time, and the per-phase deadline-token regressions.
#include <gtest/gtest.h>
#include <signal.h>
#include <stdlib.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <map>
#include <string>

#include "core/checkpoint/checkpoint.hpp"
#include "core/checkpoint/journal.hpp"
#include "core/study.hpp"
#include "util/fields.hpp"

namespace encdns::core {
namespace {

class StudyDagTest : public ::testing::Test {
 protected:
  void SetUp() override {
    char tmpl[] = "/tmp/encdns_dag_XXXXXX";
    ASSERT_NE(::mkdtemp(tmpl), nullptr);
    dir_ = tmpl;
    // Pin a small worker pool so phases genuinely overlap; results must not
    // depend on it (that is the contract under test).
    ::setenv("ENCDNS_THREADS", "3", 1);
  }

  void TearDown() override {
    ::unsetenv("ENCDNS_THREADS");
    ::unsetenv("ENCDNS_DEADLINE_SCAN");
    ::unsetenv("ENCDNS_DEADLINE_DOH_SCAN");
    ::unsetenv("ENCDNS_FAULTS");
    std::filesystem::remove_all(dir_);
  }

  std::string dir_;
};

// The same kill/resume contract for a journal written by accessors forced
// one at a time in canonical order: each commits its phase's delta record
// at once, so the commit order is deterministic and each kill point lands
// in a known phase. The final resume runs the task graph.
class StudySerialTest : public StudyDagTest {
 protected:
  /// Every journaled phase through the accessor path, in canonical order.
  static void force_in_canonical_order(Study& study) {
    (void)study.data_quality_report();
  }
};

// The doh_scan phase budgets under ENCDNS_DEADLINE_DOH_SCAN through its OWN
// token. Regression: it used to share scan_cancel_, so a sweep that
// exhausted the scan budget zeroed out doh-scan coverage through the
// already-tripped token.
TEST_F(StudyDagTest, DohScanDeadlineIsIndependentOfTheScanBudget) {
  // A wall budget this small is exhausted long before the campaign's first
  // block boundary; the doh-scan phase gets a generous budget of its own.
  ::setenv("ENCDNS_DEADLINE_SCAN", "0.0001", 1);
  ::setenv("ENCDNS_DEADLINE_DOH_SCAN", "60", 1);
  Study study(StudyConfig::quick());
  (void)study.scans();
  const PhaseCoverage scan_coverage =
      study.phase_coverage(PhaseId::kScanCampaign);
  EXPECT_TRUE(scan_coverage.degraded())
      << "the scan budget was expected to trip (completed "
      << scan_coverage.completed << "/" << scan_coverage.planned << ")";
  EXPECT_GT(study.doh_scan().addresses_probed, 0u)
      << "doh_scan must run on a fresh token, not the tripped scan token";
}

// Kill the DAG run at an arbitrary journal commit — overlapping phases are
// mid-flight — then resume from the journal and require the report to match
// an uninterrupted run byte for byte.
TEST_F(StudyDagTest, ResumeAfterMidRunKillMatchesUninterruptedReport) {
  // The child re-runs the study with the kill fuse armed; the journal layer
  // raises SIGKILL at the configured commit, so the process dies with
  // committed phases, a partial delta, and live node threads all at once.
  EXPECT_EXIT(
      {
        ::setenv("ENCDNS_CHECKPOINT_KILL_AFTER", "3", 1);
        Study victim(StudyConfig::quick());
        victim.enable_checkpoint(dir_, /*resume=*/false);
        (void)victim.observability_report();
        std::_Exit(0);  // unreachable: the fuse fires first
      },
      ::testing::KilledBySignal(SIGKILL), "");

  Study reference(StudyConfig::quick());
  const std::string expected = reference.observability_report().to_json();

  Study resumed(StudyConfig::quick());
  resumed.enable_checkpoint(dir_, /*resume=*/true);
  EXPECT_EQ(resumed.observability_report().to_json(), expected);
}

// Each cursor record's cache section is encoded against the previous record
// of its phase, and a resumed phase continues that chain. Kill the run, kill
// the first resume right after its first commit — a partial of a phase that
// was mid-flight at the first kill, encoded against the partial the resume
// loaded — and resume again: that phase's chain now spans three processes,
// and the report must still match an uninterrupted run byte for byte.
TEST_F(StudyDagTest, ChainAcrossThreeProcessesMatchesUninterruptedReport) {
  const auto run_until_killed = [this](const char* kill_after, bool resume) {
    EXPECT_EXIT(
        {
          ::setenv("ENCDNS_CHECKPOINT_KILL_AFTER", kill_after, 1);
          Study victim(StudyConfig::quick());
          victim.enable_checkpoint(dir_, resume);
          (void)victim.observability_report();
          std::_Exit(0);  // unreachable: the fuse fires first
        },
        ::testing::KilledBySignal(SIGKILL), "");
  };
  Study reference(StudyConfig::quick());
  const std::uint64_t fingerprint = reference.config_fingerprint();
  const auto record_counts = [&] {
    std::map<std::string, int> counts;
    const Journal journal(dir_, fingerprint, /*resume=*/true);
    for (const auto& record : journal.records()) ++counts[std::string(record.key)];
    return counts;
  };
  // The resume prologue re-runs the phases that were mid-flight before the
  // graph starts, so the first resume's first commit is one of their
  // partials, unless none of them has a block left to save. Which phases
  // are mid-flight depends on thread timing; try kill points until one is.
  std::string spanning;
  for (const char* first_kill : {"5", "3", "8"}) {
    std::filesystem::remove_all(dir_);
    run_until_killed(first_kill, /*resume=*/false);
    const auto first = record_counts();
    run_until_killed("1", /*resume=*/true);
    for (const auto& [key, count] : record_counts()) {
      const auto was = first.find(key);
      if (key.starts_with("partial:") && was != first.end() &&
          count == was->second + 1 &&
          first.find("phase:" + key.substr(8)) == first.end())
        spanning = key.substr(8);
    }
    if (!spanning.empty()) break;
  }
  ASSERT_FALSE(spanning.empty())
      << "no kill point left a phase whose chain spans the first two processes";

  const std::string expected = reference.observability_report().to_json();
  Study resumed(StudyConfig::quick());
  resumed.enable_checkpoint(dir_, /*resume=*/true);
  EXPECT_EQ(resumed.observability_report().to_json(), expected)
      << spanning << "'s chain spans three processes";
}

// The robustness report's resolver layer has one source — the World's tally
// plus what journal records carried in — so a study that forced every phase
// through accessors and one resumed from a late kill, whose committed
// phases load instead of running, report the same upstream faults.
TEST_F(StudyDagTest, ResolverTallyHoldsForAccessorsAndAfterResume) {
  ::setenv("ENCDNS_FAULTS", "canonical", 1);
  Study accessors(StudyConfig::quick());
  (void)accessors.data_quality_report();  // forces every phase
  const fault::LayerTally expected = accessors.robustness_report().resolver;
  EXPECT_GT(expected.injected, 0u);

  EXPECT_EXIT(
      {
        ::setenv("ENCDNS_CHECKPOINT_KILL_AFTER", "16", 1);
        Study victim(StudyConfig::quick());
        victim.enable_checkpoint(dir_, /*resume=*/false);
        (void)victim.observability_report();
        std::_Exit(0);  // unreachable: the fuse fires first
      },
      ::testing::KilledBySignal(SIGKILL), "");
  Study resumed(StudyConfig::quick());
  resumed.enable_checkpoint(dir_, /*resume=*/true);
  const fault::LayerTally after =
      resumed.observability_report().robustness.resolver;
  EXPECT_EQ(after.injected, expected.injected);
  EXPECT_EQ(after.recovered, expected.recovered);
}

// The resume prologue only checks that a partial exists; the phase's own
// accessor decodes it, so a partial with a valid record checksum but a
// corrupt body still fails the resume closed, with the decoder's error.
TEST_F(StudyDagTest, CorruptPartialFailsResumeClosed) {
  Study study(StudyConfig::quick());
  {
    Journal journal(dir_, study.config_fingerprint(), /*resume=*/false);
    journal.append("partial:scan_campaign", {13, 0xEE});  // partial, no cursor
    journal.commit();
  }
  study.enable_checkpoint(dir_, /*resume=*/true);
  try {
    (void)study.observability_report();
    FAIL() << "a corrupt partial must not resume";
  } catch (const JournalError& e) {
    EXPECT_NE(std::string(e.what()).find("corrupt partial-delta record"),
              std::string::npos)
        << e.what();
  }
}

/// Resumes `study` from its journal and returns the JournalError it fails
/// with ("resumed" if it does not fail).
std::string resume_error(Study& study, const std::string& dir) {
  study.enable_checkpoint(dir, /*resume=*/true);
  try {
    (void)study.observability_report();
  } catch (const JournalError& e) {
    return e.what();
  }
  return "resumed";
}

// A phase record whose cursor decodes but whose state is one byte short
// fails the resume as a JournalError naming the record and the decoder's
// error, like any other corrupt record.
TEST_F(StudyDagTest, TruncatedPhaseStateFailsAsJournalError) {
  Study study(StudyConfig::quick());
  {
    StudyCheckpoint checkpoint(dir_, study.config_fingerprint(),
                               /*resume=*/false);
    auto state = util::encode(measure::LocalProbeResults{3, 2});
    state.pop_back();
    checkpoint.commit_phase_delta("local_probe", state, WorldCursor{},
                                  obs::Snapshot{});
  }
  const std::string error = resume_error(study, dir_);
  EXPECT_NE(error.find("corrupt phase:local_probe state (bytes: truncated"),
            std::string::npos)
      << error;
}

// The same for a partial record: its state is decoded inside the phase,
// and the error still surfaces as a JournalError naming the record.
TEST_F(StudyDagTest, TruncatedPartialStateFailsAsJournalError) {
  Study study(StudyConfig::quick());
  {
    StudyCheckpoint checkpoint(dir_, study.config_fingerprint(),
                               /*resume=*/false);
    // A cursor with one empty cache per resolver backend.
    WorldCursor cursor;
    cursor.caches = study.world().export_resolver_caches(&cursor);
    auto hook = checkpoint.phase_delta_hook("scan_campaign", cursor,
                                            [&] { return cursor; });
    scan::CampaignState campaign;
    campaign.scan_serial = 1;
    auto state = util::encode(campaign);
    state.pop_back();
    hook->save(state);
  }
  const std::string error = resume_error(study, dir_);
  EXPECT_NE(
      error.find("corrupt partial:scan_campaign state (bytes: truncated"),
      std::string::npos)
      << error;
}

// Commit 10 falls in reachability_global: the campaign's three partials and
// its phase record, the three single-record phases, then that phase's
// block partials.
TEST_F(StudySerialTest, ResumeAfterMidRunKillMatchesUninterruptedReport) {
  EXPECT_EXIT(
      {
        ::setenv("ENCDNS_CHECKPOINT_KILL_AFTER", "10", 1);
        Study victim(StudyConfig::quick());
        victim.enable_checkpoint(dir_, /*resume=*/false);
        force_in_canonical_order(victim);
        std::_Exit(0);  // unreachable: the fuse fires first
      },
      ::testing::KilledBySignal(SIGKILL), "");

  Study reference(StudyConfig::quick());
  const std::string expected = reference.observability_report().to_json();

  Study resumed(StudyConfig::quick());
  resumed.enable_checkpoint(dir_, /*resume=*/true);
  EXPECT_EQ(resumed.observability_report().to_json(), expected);
}

// The accessor twin of the three-process chain: the first resume, again
// through accessors, loads the four committed phases, continues
// reachability_global from the partial it loaded and dies right after its
// next partial, so that phase's chain of cache sections spans three
// processes.
TEST_F(StudySerialTest, ChainAcrossThreeProcessesMatchesUninterruptedReport) {
  Study reference(StudyConfig::quick());
  const std::uint64_t fingerprint = reference.config_fingerprint();
  const auto partials = [&] {
    const Journal journal(dir_, fingerprint, /*resume=*/true);
    int count = 0;
    for (const auto& record : journal.records())
      count += record.key == "partial:reachability_global" ? 1 : 0;
    return count;
  };
  for (const auto& [kill_after, resume] :
       {std::pair{"10", false}, std::pair{"1", true}}) {
    EXPECT_EXIT(
        {
          ::setenv("ENCDNS_CHECKPOINT_KILL_AFTER", kill_after, 1);
          Study victim(StudyConfig::quick());
          victim.enable_checkpoint(dir_, resume);
          force_in_canonical_order(victim);
          std::_Exit(0);  // unreachable: the fuse fires first
        },
        ::testing::KilledBySignal(SIGKILL), "");
  }
  ASSERT_EQ(partials(), 4) << "the first resume must have died right after "
                              "continuing reachability_global's chain";

  const std::string expected = reference.observability_report().to_json();
  Study resumed(StudyConfig::quick());
  resumed.enable_checkpoint(dir_, /*resume=*/true);
  EXPECT_EQ(resumed.observability_report().to_json(), expected);
}

}  // namespace
}  // namespace encdns::core
