// One runner per table/figure of the paper. Every runner returns a rendered
// util::Table computed from a Study (static tables take no Study). The
// registry pairs each runner with the values the paper reports, and
// `encdns_study --id <id>` prints the two together.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "core/study.hpp"
#include "util/table.hpp"

namespace encdns::core {

[[nodiscard]] util::Table experiment_table1();
[[nodiscard]] util::Table experiment_figure1();
[[nodiscard]] util::Table experiment_figure2();
[[nodiscard]] util::Table experiment_figure3(Study& study);
[[nodiscard]] util::Table experiment_table2(Study& study);
[[nodiscard]] util::Table experiment_figure4(Study& study);
[[nodiscard]] util::Table experiment_doh_discovery(Study& study);
[[nodiscard]] util::Table experiment_figure5(Study& study);
[[nodiscard]] util::Table experiment_local_probe(Study& study);
[[nodiscard]] util::Table experiment_figure6(Study& study);
[[nodiscard]] util::Table experiment_figure7(Study& study);
[[nodiscard]] util::Table experiment_figure8(Study& study);
[[nodiscard]] util::Table experiment_table3(Study& study);
[[nodiscard]] util::Table experiment_table4(Study& study);
[[nodiscard]] util::Table experiment_table5(Study& study);
[[nodiscard]] util::Table experiment_table6(Study& study);
[[nodiscard]] util::Table experiment_figure9(Study& study);
[[nodiscard]] util::Table experiment_figure10(Study& study);
[[nodiscard]] util::Table experiment_table7(Study& study);
[[nodiscard]] util::Table experiment_figure11(Study& study);
[[nodiscard]] util::Table experiment_figure11_trend(Study& study);
[[nodiscard]] util::Table experiment_figure12(Study& study);
[[nodiscard]] util::Table experiment_figure13(Study& study);
[[nodiscard]] util::Table experiment_table8();

struct Experiment {
  std::string id;     // "table4", "fig9", ...
  std::string title;  // paper caption
  std::function<util::Table(Study&)> run;
  /// What the paper reports for this row, one display line each; printed
  /// above the measured table. Empty for rows with no quoted figures.
  std::vector<std::string> paper_reference = {};
};

/// All experiments in paper order.
[[nodiscard]] const std::vector<Experiment>& all_experiments();

}  // namespace encdns::core
