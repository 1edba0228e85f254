// Drives the encdns_study binary, the one program that runs experiment rows:
// `--list` names every row in registry order, `--id <row>` prints the row's
// paper reference above its table, and an unknown id is an error.
#include <gtest/gtest.h>
#include <sys/wait.h>

#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "core/experiments.hpp"
#include "core/study.hpp"

#ifndef ENCDNS_STUDY_BIN
#error "ENCDNS_STUDY_BIN must name the encdns_study executable"
#endif

namespace encdns::core {
namespace {

struct CliRun {
  int exit_code = -1;  // -1 when the process did not exit normally
  std::string out;     // stdout only
};

CliRun run_study(const std::string& args) {
  const std::string command =
      std::string(ENCDNS_STUDY_BIN) + " " + args + " 2>/dev/null";
  CliRun run;
  std::FILE* pipe = popen(command.c_str(), "r");
  if (pipe == nullptr) return run;
  char buffer[4096];
  std::size_t n = 0;
  while ((n = std::fread(buffer, 1, sizeof(buffer), pipe)) > 0)
    run.out.append(buffer, n);
  const int status = pclose(pipe);
  if (status != -1 && WIFEXITED(status)) run.exit_code = WEXITSTATUS(status);
  return run;
}

TEST(StudyCli, ListPrintsEveryIdInRegistryOrder) {
  const CliRun run = run_study("--list");
  EXPECT_EQ(run.exit_code, 0);
  std::vector<std::string> listed;
  std::istringstream lines(run.out);
  for (std::string line; std::getline(lines, line);)
    listed.push_back(line.substr(0, line.find(' ')));
  std::vector<std::string> registered;
  for (const auto& candidate : all_experiments())
    registered.push_back(candidate.id);
  EXPECT_EQ(registered.size(), 25u);
  EXPECT_EQ(listed, registered);
}

TEST(StudyCli, IdPrintsPaperReferenceThenTable) {
  const CliRun run = run_study("--id table4");
  EXPECT_EQ(run.exit_code, 0);
  const Experiment* table4 = nullptr;
  for (const auto& candidate : all_experiments())
    if (candidate.id == "table4") table4 = &candidate;
  ASSERT_NE(table4, nullptr);
  ASSERT_FALSE(table4->paper_reference.empty());
  std::string want = "Paper reference (IMC'19):\n";
  for (const auto& line : table4->paper_reference)
    want += "  | " + line + "\n";
  want += "\n";
  // The table the CLI renders on its own fresh quick-scale study.
  Study study(StudyConfig::quick());
  want += table4->run(study).render() + "\n";
  EXPECT_EQ(run.out, want);
}

TEST(StudyCli, UnknownIdExitsOne) {
  const CliRun run = run_study("--id nope");
  EXPECT_EQ(run.exit_code, 1);
  EXPECT_TRUE(run.out.empty()) << run.out;
}

}  // namespace
}  // namespace encdns::core
