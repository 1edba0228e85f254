// The study runner CLI: run any (or every) experiment at quick or full
// scale, print each table below the values the paper reports for it, and
// optionally export CSVs — the reproduction's counterpart of the paper's
// dataset release (https://dnsencryption.info).
//
// Usage:
//   encdns_study --list
//   encdns_study [--id <experiment>] [--full] [--seed N] [--csv-dir DIR]
//   encdns_study --obs [--obs-json FILE]     observability report
//   encdns_study --golden-dir DIR            write golden JSON snapshots
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>

#include "core/checkpoint/journal.hpp"
#include "core/experiments.hpp"
#include "core/report.hpp"
#include "core/study.hpp"
#include "util/env.hpp"

using namespace encdns;

namespace {

void print_usage() {
  std::printf(
      "usage: encdns_study [options]\n"
      "  --list            list experiment ids and exit\n"
      "  --id <exp>        run one experiment (default: all)\n"
      "  --full            paper-scale populations (minutes of CPU)\n"
      "  --seed <n>        world seed (default 2019)\n"
      "  --csv-dir <dir>   also export each table as CSV into <dir>\n"
      "  --report          evaluate every paper claim, print verdicts;\n"
      "                    exit code = number of failed checks\n"
      "  --obs             run the study, print the observability report\n"
      "  --obs-json <f>    write the stable observability JSON to <f>\n"
      "                    ('-' = stdout); implies running the full study\n"
      "  --golden-dir <d>  run every experiment at quick scale with faults\n"
      "                    off and write <id>.json snapshots into <d>\n"
      "                    (the tests/golden corpus format)\n"
      "  --checkpoint-dir <d>  journal phase results into <d> so a killed\n"
      "                    run can be resumed (DESIGN.md 13)\n"
      "  --resume          resume from the journal in --checkpoint-dir;\n"
      "                    committed phases load instead of re-running\n"
      "  --deadline <s>    study-wide wall-clock budget in seconds; phases\n"
      "                    past it are truncated and coverage is reported\n");
}

int run_tables(core::Study& study, const std::string& only_id,
               const std::string& csv_dir, bool report);

}  // namespace

int main(int argc, char** argv) {
  std::string only_id;
  std::string csv_dir;
  std::string obs_json;
  std::string golden_dir;
  std::string checkpoint_dir;
  bool full = false;
  bool report = false;
  bool obs_text = false;
  bool resume = false;
  double deadline = 0.0;
  std::uint64_t seed = 2019;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--list") {
      for (const auto& experiment : core::all_experiments())
        std::printf("%-14s %s\n", experiment.id.c_str(), experiment.title.c_str());
      return 0;
    }
    if (arg == "--full") {
      full = true;
    } else if (arg == "--report") {
      report = true;
    } else if (arg == "--id" && i + 1 < argc) {
      only_id = argv[++i];
    } else if (arg == "--seed" && i + 1 < argc) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--csv-dir" && i + 1 < argc) {
      csv_dir = argv[++i];
    } else if (arg == "--obs") {
      obs_text = true;
    } else if (arg == "--obs-json" && i + 1 < argc) {
      obs_json = argv[++i];
    } else if (arg == "--golden-dir" && i + 1 < argc) {
      golden_dir = argv[++i];
    } else if (arg == "--checkpoint-dir" && i + 1 < argc) {
      checkpoint_dir = argv[++i];
    } else if (arg == "--resume") {
      resume = true;
    } else if (arg == "--deadline" && i + 1 < argc) {
      deadline = std::strtod(argv[++i], nullptr);
      if (deadline <= 0.0) {
        std::fprintf(stderr, "--deadline expects a positive seconds value\n");
        return 1;
      }
    } else {
      print_usage();
      return arg == "--help" || arg == "-h" ? 0 : 1;
    }
  }

  // Golden snapshots pin the canonical quick-scale run: fixed seed, faults
  // forced off regardless of ENCDNS_FAULTS (World reads the env at
  // construction, so this must happen before the Study is built).
  if (!golden_dir.empty()) setenv("ENCDNS_FAULTS", "off", 1);

  core::StudyConfig config = full && golden_dir.empty()
                                 ? core::StudyConfig::full()
                                 : core::StudyConfig::quick();
  config.world.seed = seed;

  try {
    core::Study study(config);
    if (!checkpoint_dir.empty()) study.enable_checkpoint(checkpoint_dir, resume);
    if (deadline > 0.0) study.set_deadline(deadline);

    // A journal records the task graph's phases, so a checkpointed run
    // drives the full study up front and the experiment tables below read
    // cached results. Golden snapshots do the same, so the corpus is what
    // the task graph produces.
    if (!checkpoint_dir.empty() || obs_text || !obs_json.empty() ||
        !golden_dir.empty()) {
      const auto& obs_report = study.observability_report();
      if (obs_text) std::printf("%s\n", obs_report.to_text().c_str());
      if (!obs_json.empty()) {
        if (obs_json == "-") {
          std::printf("%s", obs_report.to_json().c_str());
        } else {
          std::ofstream out(obs_json);
          out << obs_report.to_json();
          std::printf("[wrote %s]\n", obs_json.c_str());
        }
      }
    }

    if (!golden_dir.empty()) {
      std::filesystem::create_directories(golden_dir);
      for (const auto& experiment : core::all_experiments()) {
        const auto path =
            std::filesystem::path(golden_dir) / (experiment.id + ".json");
        std::ofstream out(path);
        out << experiment.run(study).to_json();
        std::printf("[wrote %s]\n", path.c_str());
      }
      return 0;
    }
    if (obs_text || !obs_json.empty()) return 0;

    return run_tables(study, only_id, csv_dir, report);
  } catch (const util::EnvError& e) {
    std::fprintf(stderr, "encdns_study: %s\n", e.what());
    return 2;
  } catch (const core::JournalError& e) {
    std::fprintf(stderr, "encdns_study: %s\n", e.what());
    return 2;
  }
}

namespace {

int run_tables(core::Study& study, const std::string& only_id,
               const std::string& csv_dir, bool report) {
  if (report) {
    const auto checks = core::evaluate_findings(study);
    std::printf("%s\n", core::findings_table(checks).render().c_str());
    const auto failed = core::failed_count(checks);
    std::printf("%zu/%zu checks passed\n", checks.size() - failed, checks.size());
    return static_cast<int>(failed);
  }

  if (!csv_dir.empty()) std::filesystem::create_directories(csv_dir);

  bool found = only_id.empty();
  for (const auto& experiment : core::all_experiments()) {
    if (!only_id.empty() && experiment.id != only_id) continue;
    found = true;
    if (!experiment.paper_reference.empty()) {
      std::printf("Paper reference (IMC'19):\n");
      for (const auto& line : experiment.paper_reference)
        std::printf("  | %s\n", line.c_str());
      std::printf("\n");
    }
    const auto table = experiment.run(study);
    std::printf("%s\n", table.render().c_str());
    if (!csv_dir.empty()) {
      const auto path =
          std::filesystem::path(csv_dir) / (experiment.id + ".csv");
      std::ofstream out(path);
      out << table.to_csv();
      std::printf("[wrote %s]\n\n", path.c_str());
    }
  }
  if (!found) {
    std::fprintf(stderr, "unknown experiment id: %s (try --list)\n",
                 only_id.c_str());
    return 1;
  }
  return 0;
}

}  // namespace
