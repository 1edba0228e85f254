#include "obs/profiler.hpp"

#include <cstdio>
#include <sstream>

namespace encdns::obs {
namespace {

[[nodiscard]] bool is_fault_counter(const std::string& name) {
  return name.find("fault") != std::string::npos;
}

}  // namespace

PhaseRecord PhaseProfiler::from_delta(std::string name, const Snapshot& delta,
                                      double wall_ms) {
  PhaseRecord record;
  record.name = std::move(name);
  record.wall_ms = wall_ms;
  for (const auto& c : delta.counters) {
    if (c.value == 0) continue;
    if (is_fault_counter(c.name)) record.faults += c.value;
    if (c.name == "exec.tasks") record.tasks = c.value;
    if (c.name == "exec.jobs") record.jobs = c.value;
    if (!c.diagnostic) record.counters.push_back({c.name, c.value, false});
  }
  for (const auto& s : delta.spans) record.sim_us += s.sim_us;
  return record;
}

std::string PhaseProfiler::to_json(const std::vector<PhaseRecord>& records) {
  std::string out = "[";
  for (std::size_t i = 0; i < records.size(); ++i) {
    const auto& r = records[i];
    out += i ? ",\n    " : "\n    ";
    out += "{\"name\": \"" + r.name + "\"";
    out += ", \"sim_us\": " + std::to_string(r.sim_us);
    out += ", \"tasks\": " + std::to_string(r.tasks);
    out += ", \"jobs\": " + std::to_string(r.jobs);
    out += ", \"faults\": " + std::to_string(r.faults);
    out += ", \"counters\": {";
    for (std::size_t j = 0; j < r.counters.size(); ++j) {
      if (j) out += ", ";
      out += "\"" + r.counters[j].name +
             "\": " + std::to_string(r.counters[j].value);
    }
    out += "}}";
  }
  out += records.empty() ? "]" : "\n  ]";
  return out;
}

std::string PhaseProfiler::to_text(const std::vector<PhaseRecord>& records) {
  std::ostringstream out;
  out << "== phases ==\n";
  char line[160];
  for (const auto& r : records) {
    std::snprintf(line, sizeof line,
                  "  %-12s sim=%9.1fs wall=%8.1fms tasks=%-6llu jobs=%-4llu "
                  "faults=%llu\n",
                  r.name.c_str(), static_cast<double>(r.sim_us) / 1e6,
                  r.wall_ms, static_cast<unsigned long long>(r.tasks),
                  static_cast<unsigned long long>(r.jobs),
                  static_cast<unsigned long long>(r.faults));
    out << line;
  }
  return out.str();
}

}  // namespace encdns::obs
