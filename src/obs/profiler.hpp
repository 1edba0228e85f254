// PhaseProfiler: one PhaseRecord per report group, built from the group's
// phase-attributed metrics delta (obs::PhaseTally, DESIGN.md §15): the
// group's sim time (sum of span sim-time deltas), its wall time
// (diagnostic), the exec task/job deltas, its fault tally (every counter
// whose name mentions faults), and the full list of non-zero deterministic
// counter deltas. Study::observability_report folds the task graph's node
// deltas into the six paper groups.
//
// Everything except wall_ms is derived from deterministic metrics, so the
// phase list participates in the byte-identical JSON export.
#pragma once

#include <string>
#include <vector>

#include "obs/metrics.hpp"

namespace encdns::obs {

struct PhaseRecord {
  std::string name;
  std::uint64_t sim_us = 0;   // span sim-time credited during the phase
  std::uint64_t tasks = 0;    // exec.tasks delta (shards executed)
  std::uint64_t jobs = 0;     // exec.jobs delta (parallel jobs launched)
  std::uint64_t faults = 0;   // sum of *fault* counter deltas
  double wall_ms = 0.0;       // diagnostic only, never in stable JSON
  std::vector<CounterSample> counters;  // non-zero deterministic deltas
};

class PhaseProfiler {
 public:
  PhaseProfiler() = delete;

  /// Build one record from a phase-attributed delta snapshot: the fault sum
  /// over every counter mentioning faults, exec.tasks/exec.jobs extraction,
  /// non-diagnostic non-zero counters in name order, sim_us as the span sim
  /// sum.
  [[nodiscard]] static PhaseRecord from_delta(std::string name,
                                              const Snapshot& delta,
                                              double wall_ms);

  /// Stable JSON array of the records (no wall time).
  [[nodiscard]] static std::string to_json(
      const std::vector<PhaseRecord>& records);
  /// Human-readable table of the records, wall time included.
  [[nodiscard]] static std::string to_text(
      const std::vector<PhaseRecord>& records);
};

}  // namespace encdns::obs
