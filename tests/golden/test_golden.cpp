// Golden-file regression harness: every paper table and figure has a
// checked-in JSON snapshot under tests/golden/data/ (one file per experiment
// id, written by `encdns_study --golden-dir` / tools/regen_golden.sh). Each
// test re-runs the experiment against a fresh quick-scale Study with faults
// off and diffs the JSON line by line — the snapshot format keeps one table
// row per line, so a mismatch report points at the exact row and cell that
// drifted. Any intentional change to an experiment's output must come with a
// regenerated snapshot, which makes the diff reviewable in the PR.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/experiments.hpp"
#include "core/study.hpp"

#ifndef ENCDNS_GOLDEN_DIR
#error "ENCDNS_GOLDEN_DIR must point at the checked-in snapshot directory"
#endif

namespace encdns::core {
namespace {

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream stream(text);
  std::string line;
  while (std::getline(stream, line)) lines.push_back(line);
  return lines;
}

class GoldenTest : public ::testing::Test {
 protected:
  // One Study shared by all golden tests. Faults are forced off before
  // construction (World reads ENCDNS_FAULTS in its ctor) to match the
  // environment --golden-dir pins when writing snapshots. The study is then
  // warmed by running every experiment once in registry order — the same
  // sequence --golden-dir uses. The shared proxy platforms' rngs are
  // stateful, so a phase's results depend on the phases that advanced its
  // platform first; an accessor runs those first (DESIGN.md §7), so a test
  // process that jumped straight to, say, fig8 would render the same bytes.
  static Study& study() {
    static Study* instance = [] {
      setenv("ENCDNS_FAULTS", "off", 1);
      StudyConfig config = StudyConfig::quick();
      config.world.seed = 2019;
      auto* fresh = new Study(config);
      for (const auto& experiment : all_experiments())
        (void)experiment.run(*fresh);
      return fresh;
    }();
    return *instance;
  }

  static void check(const std::string& id) {
    const Experiment* experiment = nullptr;
    for (const auto& candidate : all_experiments())
      if (candidate.id == id) experiment = &candidate;
    ASSERT_NE(experiment, nullptr) << "no experiment registered as " << id;
    expect_snapshot(id, experiment->run(study()).to_json());
  }

  // Diffs `got` against the checked-in snapshot of experiment `id`.
  static void expect_snapshot(const std::string& id, const std::string& got) {
    const auto path =
        std::filesystem::path(ENCDNS_GOLDEN_DIR) / (id + ".json");
    std::ifstream in(path);
    ASSERT_TRUE(in.good())
        << "missing snapshot " << path
        << " — run tools/regen_golden.sh and commit the result";
    std::stringstream want;
    want << in.rdbuf();
    if (got == want.str()) return;

    const auto got_lines = split_lines(got);
    const auto want_lines = split_lines(want.str());
    std::ostringstream diff;
    diff << id << ": output diverges from " << path << "\n";
    const std::size_t lines =
        std::max(got_lines.size(), want_lines.size());
    std::size_t shown = 0;
    for (std::size_t i = 0; i < lines && shown < 12; ++i) {
      const std::string* want_line =
          i < want_lines.size() ? &want_lines[i] : nullptr;
      const std::string* got_line =
          i < got_lines.size() ? &got_lines[i] : nullptr;
      if (want_line && got_line && *want_line == *got_line) continue;
      ++shown;
      diff << "  line " << i + 1 << ":\n";
      diff << "    golden: " << (want_line ? *want_line : "<absent>") << "\n";
      diff << "    actual: " << (got_line ? *got_line : "<absent>") << "\n";
    }
    ADD_FAILURE() << diff.str()
                  << "if the change is intentional, regenerate with "
                     "tools/regen_golden.sh";
  }
};

TEST_F(GoldenTest, CorpusCoversEveryExperiment) {
  // 8 tables + 13 figures + the three auxiliary experiments (doh-discovery,
  // doh-scan, local-probe): every registered experiment must have a
  // snapshot, and no stale snapshot may linger after an experiment is
  // renamed or removed.
  std::set<std::string> ids;
  for (const auto& experiment : all_experiments()) {
    ids.insert(experiment.id);
    EXPECT_TRUE(std::filesystem::exists(
        std::filesystem::path(ENCDNS_GOLDEN_DIR) / (experiment.id + ".json")))
        << experiment.id << " has no golden snapshot";
  }
  for (const auto& entry :
       std::filesystem::directory_iterator(ENCDNS_GOLDEN_DIR)) {
    const auto stem = entry.path().stem().string();
    EXPECT_TRUE(ids.contains(stem))
        << "stale snapshot " << entry.path() << " (no such experiment)";
  }
}

// The corpus is thread-count invariant: a fresh study pinned to one worker
// renders every row, in registry order, to the same bytes as the shared
// auto-thread study above.
TEST_F(GoldenTest, SingleThreadStudyMatchesCorpus) {
  setenv("ENCDNS_FAULTS", "off", 1);
  StudyConfig config = StudyConfig::quick();
  config.world.seed = 2019;
  config.thread_count = 1;
  Study single(config);
  for (const auto& experiment : all_experiments()) {
    SCOPED_TRACE(experiment.id);
    expect_snapshot(experiment.id, experiment.run(single).to_json());
  }
}

TEST_F(GoldenTest, Table1) { check("table1"); }
TEST_F(GoldenTest, Table2) { check("table2"); }
TEST_F(GoldenTest, Table3) { check("table3"); }
TEST_F(GoldenTest, Table4) { check("table4"); }
TEST_F(GoldenTest, Table5) { check("table5"); }
TEST_F(GoldenTest, Table6) { check("table6"); }
TEST_F(GoldenTest, Table7) { check("table7"); }
TEST_F(GoldenTest, Table8) { check("table8"); }
TEST_F(GoldenTest, Figure1) { check("fig1"); }
TEST_F(GoldenTest, Figure2) { check("fig2"); }
TEST_F(GoldenTest, Figure3) { check("fig3"); }
TEST_F(GoldenTest, Figure4) { check("fig4"); }
TEST_F(GoldenTest, Figure5) { check("fig5"); }
TEST_F(GoldenTest, Figure6) { check("fig6"); }
TEST_F(GoldenTest, Figure7) { check("fig7"); }
TEST_F(GoldenTest, Figure8) { check("fig8"); }
TEST_F(GoldenTest, Figure9) { check("fig9"); }
TEST_F(GoldenTest, Figure10) { check("fig10"); }
TEST_F(GoldenTest, Figure11) { check("fig11"); }
TEST_F(GoldenTest, Figure12) { check("fig12"); }
TEST_F(GoldenTest, Figure13) { check("fig13"); }
TEST_F(GoldenTest, DohDiscovery) { check("doh-discovery"); }
TEST_F(GoldenTest, DohScan) { check("doh-scan"); }
TEST_F(GoldenTest, LocalProbe) { check("local-probe"); }
TEST_F(GoldenTest, Figure11Trend) { check("fig11-trend"); }

}  // namespace
}  // namespace encdns::core
