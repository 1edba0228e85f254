// Study-level observability: drives the phase table as a dependency graph
// (exec::TaskGraph, DESIGN.md §15) with per-phase PhaseTally deltas, resumes
// it from the journal, and assembles the ObservabilityReport (DESIGN.md §9).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <span>
#include <sstream>
#include <string_view>

#include "core/study.hpp"
#include "exec/graph.hpp"

namespace encdns::core {

namespace {

/// The phase table split into runs of rows that share a report group, in
/// table order: the groups the node deltas fold into.
std::vector<std::span<const PhaseSpec>> report_groups() {
  std::vector<std::span<const PhaseSpec>> groups;
  const std::span<const PhaseSpec> table = phase_table();
  std::size_t first = 0;
  for (std::size_t i = 1; i <= table.size(); ++i) {
    if (i == table.size() ||
        std::string_view(table[i].group) != table[first].group) {
      groups.push_back(table.subspan(first, i - first));
      first = i;
    }
  }
  return groups;
}

}  // namespace

const ObservabilityReport& Study::observability_report() {
  if (obs_report_) return *obs_report_;
  // On a fresh Study the registry starts from zero so the report (and its
  // JSON) is a pure function of the config. If the caller already forced
  // experiments, their metrics must survive — skip the reset and leave those
  // contributions outside any phase.
  const auto cached = [this](const PhaseSpec& spec) {
    return spec.cached && spec.cached(*this);
  };
  if (std::none_of(phase_table().begin(), phase_table().end(), cached))
    obs::MetricsRegistry::global().reset();

  ObservabilityReport report;
  report.phases = run_graph();
  report.metrics = obs::MetricsRegistry::global().snapshot();
  report.robustness = robustness_report();
  report.data_quality = data_quality_report();
  obs_report_ = std::move(report);
  return *obs_report_;
}

// --- task-graph schedule ----------------------------------------------------

void Study::run_phase_node(const PhaseSpec& spec) {
  {
    std::lock_guard<std::mutex> lock(dag_mutex_);
    if (phase_deltas_.find(spec.name) != phase_deltas_.end())
      return;  // loaded from the journal, or run before
  }
  obs::PhaseTally tally;
  const auto start = std::chrono::steady_clock::now();
  {
    obs::ScopedTally scope(&tally);
    execute_phase(spec);
  }
  const double wall_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - start)
          .count();
  obs::Snapshot delta = obs::MetricsRegistry::global().delta_snapshot(tally);
  std::lock_guard<std::mutex> lock(dag_mutex_);
  phase_deltas_[spec.name] = std::move(delta);
  phase_walls_[spec.name] += wall_ms;
}

void Study::commit_phase_node(const PhaseSpec& spec) {
  if (!checkpoint_) return;
  PendingCommit pending;
  obs::Snapshot delta;
  {
    std::lock_guard<std::mutex> lock(dag_mutex_);
    const auto it = pending_commits_.find(spec.name);
    if (it == pending_commits_.end()) return;  // loaded phase
    pending = std::move(it->second);
    pending_commits_.erase(it);
    delta = phase_deltas_.at(spec.name);
  }
  checkpoint_->commit_phase_delta(spec.name, pending.state, pending.cursor,
                                  delta);
}

bool Study::load_phase(const PhaseSpec& spec) {
  {
    std::lock_guard<std::mutex> lock(dag_mutex_);
    if (phase_deltas_.find(spec.name) != phase_deltas_.end()) return true;
  }
  auto loaded = checkpoint_->load_phase_delta(spec.name);
  if (!loaded) return false;
  try {
    spec.decode(*this, loaded->state);
  } catch (const util::CodecError& e) {
    throw JournalError(std::string("checkpoint: corrupt phase:") + spec.name +
                       " state (" + e.what() + ")");
  }
  restore_owned_platform(spec.platform, loaded->cursor);
  pending_caches_.push_back(std::move(loaded->caches));
  // Additive replay — records are position-independent, so phases that
  // committed out of canonical order at the kill still land exactly.
  obs::MetricsRegistry::global().apply_delta(loaded->metrics);
  carry_resolver_tally(loaded->metrics);
  std::lock_guard<std::mutex> lock(dag_mutex_);
  phase_deltas_[spec.name] = std::move(loaded->metrics);
  return true;
}

void Study::run_node_in_order(const PhaseSpec& spec) {
  for (const PhaseId dep : spec.deps) run_node_in_order(phase_spec(dep));
  for (const PhaseId before : spec.after) run_node_in_order(phase_spec(before));
  run_phase_node(spec);
}

void Study::resume_prologue() {
  // Re-register the killed run's metric names first: phases loaded below
  // never execute the code that registers their zero-valued metrics, and
  // delta records skip zeros, so without the skeleton those names would be
  // missing from the resumed snapshot.
  if (auto skeleton = checkpoint_->load_skeleton())
    obs::MetricsRegistry::global().register_skeleton(*skeleton);
  bool every_phase_loaded = true;
  for (const PhaseSpec& spec : phase_table()) {
    if (!spec.journaled() || load_phase(spec)) continue;
    every_phase_loaded = false;
    if (checkpoint_->has_partial(spec.name)) {
      // Mid-flight at the kill: finish it here, serially, before the graph
      // starts — its cache restore must not interleave with live phases.
      // It reads the caches its predecessors stored, so theirs are merged
      // first, and every row the graph orders it after runs before it, as
      // in the uninterrupted graph. run_phase_node decodes the partial (a
      // corrupt one fails closed there) and the hook resumes from it; the
      // graph's merge slot journals the full record like any other phase.
      restore_pending_caches();
      run_node_in_order(spec);
    }
  }
  // Only phase bodies read resolver caches (the certs node reads the scan
  // snapshots), so when every phase loaded the loaded sections never need
  // merging.
  if (every_phase_loaded)
    pending_caches_.clear();
  else
    restore_pending_caches();
}

std::vector<obs::PhaseRecord> Study::run_graph() {
  if (checkpoint_) resume_prologue();

  // One pool for every phase: ready nodes from different phases interleave
  // their shards in its queue (DESIGN.md §15).
  exec::WorkerPool pool(config_.thread_count);
  shared_pool_ = &pool;

  // Declaration order is canonical (merge/commit order); the edges are the
  // table's dependencies and ordering-only predecessors.
  exec::TaskGraph graph;
  std::vector<exec::TaskGraph::NodeId> nodes;
  for (const PhaseSpec& spec : phase_table()) {
    std::vector<exec::TaskGraph::NodeId> deps;
    for (const auto* edges : {&spec.deps, &spec.after})
      for (const PhaseId dep : *edges)
        deps.push_back(nodes[static_cast<std::size_t>(dep)]);
    std::function<void()> merge;
    if (spec.journaled()) merge = [this, &spec] { commit_phase_node(spec); };
    nodes.push_back(graph.add(
        spec.name, [this, &spec] { run_phase_node(spec); }, std::move(merge),
        std::move(deps)));
  }
  try {
    graph.run();
  } catch (...) {
    shared_pool_ = nullptr;
    throw;
  }
  shared_pool_ = nullptr;

  // Fold the node deltas into one phase record per report group, in table
  // order.
  std::vector<obs::PhaseRecord> phases;
  for (const auto group : report_groups()) {
    obs::Snapshot merged;
    double wall_ms = 0.0;
    for (const PhaseSpec& spec : group) {
      const auto it = phase_deltas_.find(spec.name);
      if (it != phase_deltas_.end()) obs::merge_delta(merged, it->second);
      const auto wit = phase_walls_.find(spec.name);
      if (wit != phase_walls_.end()) wall_ms += wit->second;
    }
    phases.push_back(
        obs::PhaseProfiler::from_delta(group.front().group, merged, wall_ms));
  }
  return phases;
}

namespace {

std::string tally_json(const fault::LayerTally& tally) {
  return "{\"injected\": " + std::to_string(tally.injected) +
         ", \"recovered\": " + std::to_string(tally.recovered) +
         ", \"surfaced\": " + std::to_string(tally.surfaced) + "}";
}

}  // namespace

std::string ObservabilityReport::to_json() const {
  // Splice the phase array and robustness object into the snapshot's JSON
  // (drop the snapshot's closing "}\n" first). Integers only throughout.
  std::string out = metrics.to_json(/*include_diagnostic=*/false);
  while (!out.empty() && (out.back() == '\n' || out.back() == '}'))
    out.pop_back();
  out += ",\n  \"phases\": ";
  out += obs::PhaseProfiler::to_json(phases);
  out += ",\n  \"robustness\": {";
  out += "\"client\": " + tally_json(robustness.client);
  out += ", \"scanner\": " + tally_json(robustness.scanner);
  out += ", \"proxy\": " + tally_json(robustness.proxy);
  out += ", \"resolver\": " + tally_json(robustness.resolver);
  out += "}";
  out += ",\n  \"data_quality\": [";
  for (std::size_t i = 0; i < data_quality.size(); ++i) {
    const auto& coverage = data_quality[i];
    if (i != 0) out += ", ";
    out += "{\"phase\": \"" + coverage.phase +
           "\", \"planned\": " + std::to_string(coverage.planned) +
           ", \"completed\": " + std::to_string(coverage.completed) + "}";
  }
  out += "]\n}\n";
  return out;
}

std::string ObservabilityReport::to_text() const {
  std::ostringstream out;
  out << "ENCDNS OBSERVABILITY REPORT\n";
  out << obs::PhaseProfiler::to_text(phases);
  out << metrics.to_text();
  out << "== robustness ==\n" << robustness.to_string();
  out << "== data quality ==\n";
  for (const auto& coverage : data_quality) {
    out << "  " << coverage.phase << ": " << coverage.completed << "/"
        << coverage.planned;
    if (coverage.degraded()) {
      char buffer[32];
      std::snprintf(buffer, sizeof(buffer), " (%.1f%% coverage)",
                    coverage.fraction() * 100.0);
      out << buffer;
    }
    out << "\n";
  }
  return out.str();
}

}  // namespace encdns::core
