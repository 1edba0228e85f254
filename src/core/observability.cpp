// Study-level observability: drives the paper phases — serially under one
// PhaseProfiler, or as a dependency graph (exec::TaskGraph, DESIGN.md §15)
// with per-phase PhaseTally deltas — and assembles the ObservabilityReport
// (DESIGN.md §9). Both schedules produce byte-identical reports.
#include <chrono>
#include <cstdio>
#include <sstream>

#include "core/study.hpp"
#include "exec/graph.hpp"
#include "obs/span.hpp"
#include "tls/verify.hpp"

namespace encdns::core {

void Study::run_certs_analysis() {
  // Certificate analysis of the final scan snapshot (§3.2, Table 2 input):
  // serial pass, so plain counter adds are already deterministic.
  OBS_SPAN("certs.analyze");
  auto& registry = obs::MetricsRegistry::global();
  const auto& snapshots = scans();
  if (snapshots.empty()) return;
  for (const auto& resolver : snapshots.back().resolvers) {
    registry.counter("certs.analyzed").add(1);
    if (resolver.cert_status == tls::CertStatus::kValid)
      registry.counter("certs.valid").add(1);
    else
      registry.counter("certs.invalid").add(1);
    if (resolver.cert_status == tls::CertStatus::kSelfSigned)
      registry.counter("certs.self_signed").add(1);
    if (resolver.cert_status == tls::CertStatus::kExpired)
      registry.counter("certs.expired").add(1);
  }
}

const ObservabilityReport& Study::observability_report() {
  if (obs_report_) return *obs_report_;
  if (dag_enabled()) return observability_report_dag();

  // On a fresh Study the registry starts from zero so the report (and its
  // JSON) is a pure function of the config. If the caller already forced
  // experiments, their metrics must survive — skip the reset and leave those
  // contributions outside any phase.
  const bool fresh = !scans_ && !doh_discovery_ && !doh_scan_ &&
                     !local_probe_ && !reach_global_ && !reach_cn_ &&
                     !performance_ && !no_reuse_ && !netflow_ &&
                     !netflow_trend_ && !passive_dns_;
  if (fresh) obs::MetricsRegistry::global().reset();

  obs::PhaseProfiler profiler;

  profiler.begin("scan");
  (void)scans();
  (void)doh_discovery();
  (void)doh_scan();
  (void)local_probe();
  profiler.end();

  profiler.begin("certs");
  run_certs_analysis();
  profiler.end();

  profiler.begin("reachability");
  (void)reachability_global();
  (void)reachability_cn();
  profiler.end();

  profiler.begin("performance");
  (void)performance();
  (void)no_reuse();
  profiler.end();

  profiler.begin("netflow");
  (void)netflow();
  (void)netflow_trend();
  profiler.end();

  profiler.begin("passive_dns");
  (void)passive_dns();
  profiler.end();

  ObservabilityReport report;
  report.metrics = obs::MetricsRegistry::global().snapshot();
  report.phases = profiler.records();
  report.robustness = robustness_report();
  report.data_quality = data_quality_report();
  obs_report_ = std::move(report);
  return *obs_report_;
}

// --- task-graph schedule ----------------------------------------------------

void Study::force_phase(const std::string& phase) {
  if (phase == "scan_campaign") {
    (void)scans();
  } else if (phase == "doh_discovery") {
    (void)doh_discovery();
  } else if (phase == "doh_scan") {
    (void)doh_scan();
  } else if (phase == "local_probe") {
    (void)local_probe();
  } else if (phase == "certs") {
    run_certs_analysis();
  } else if (phase == "reachability_global") {
    (void)reachability_global();
  } else if (phase == "reachability_cn") {
    (void)reachability_cn();
  } else if (phase == "performance") {
    (void)performance();
  } else if (phase == "no_reuse") {
    (void)no_reuse();
  } else if (phase == "netflow") {
    (void)netflow();
  } else if (phase == "netflow_trend") {
    (void)netflow_trend();
  } else if (phase == "passive_dns") {
    (void)passive_dns();
  } else {
    throw std::logic_error("unknown study phase \"" + phase + "\"");
  }
}

void Study::run_phase_node(const std::string& phase) {
  {
    std::lock_guard<std::mutex> lock(dag_mutex_);
    if (phase_deltas_.find(phase) != phase_deltas_.end())
      return;  // loaded from the journal in the resume prologue
  }
  obs::PhaseTally tally;
  const auto start = std::chrono::steady_clock::now();
  {
    obs::ScopedTally scope(&tally);
    force_phase(phase);
  }
  const double wall_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - start)
          .count();
  obs::Snapshot delta = obs::MetricsRegistry::global().delta_snapshot(tally);
  std::lock_guard<std::mutex> lock(dag_mutex_);
  phase_deltas_[phase] = std::move(delta);
  phase_walls_[phase] += wall_ms;
}

void Study::commit_phase_node(const std::string& phase) {
  if (!checkpoint_) return;
  PendingCommit pending;
  obs::Snapshot delta;
  {
    std::lock_guard<std::mutex> lock(dag_mutex_);
    const auto it = pending_commits_.find(phase);
    if (it == pending_commits_.end()) return;  // loaded phase, or "certs"
    pending = std::move(it->second);
    pending_commits_.erase(it);
    delta = phase_deltas_.at(phase);
  }
  checkpoint_->commit_phase_delta(phase, pending.state, pending.cursor, delta);
}

void Study::dag_resume_prologue() {
  // Re-register the killed run's metric names first: phases loaded below
  // never execute the code that registers their zero-valued metrics, and
  // delta records skip zeros, so without the skeleton those names would be
  // missing from the resumed snapshot.
  if (auto skeleton = checkpoint_->load_skeleton())
    obs::MetricsRegistry::global().register_skeleton(*skeleton);
  bool every_phase_loaded = true;
  for (const auto& phase : canonical_phases()) {
    if (auto loaded = checkpoint_->load_phase_delta(phase)) {
      decode_phase_state(phase, loaded->state);
      restore_owned_platform(phase, loaded->cursor);
      pending_caches_.push_back(std::move(loaded->caches));
      // Additive replay — records are position-independent, so phases that
      // committed out of canonical order at the kill still land exactly.
      obs::MetricsRegistry::global().apply_delta(loaded->metrics);
      std::lock_guard<std::mutex> lock(dag_mutex_);
      phase_deltas_[phase] = std::move(loaded->metrics);
    } else {
      every_phase_loaded = false;
      if (checkpoint_->has_partial(phase)) {
        // Mid-flight at the kill: finish it here, serially, before the
        // graph starts — its cache restore must not interleave with live
        // phases. It reads the caches its predecessors stored, so theirs
        // are merged first. The accessor decodes the partial (a corrupt one
        // fails closed there) and the delta hook resumes from it; the
        // graph's merge slot journals the full record like any other phase.
        restore_pending_caches();
        run_phase_node(phase);
      }
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

const ObservabilityReport& Study::observability_report_dag() {
  const bool fresh = !scans_ && !doh_discovery_ && !doh_scan_ &&
                     !local_probe_ && !reach_global_ && !reach_cn_ &&
                     !performance_ && !no_reuse_ && !netflow_ &&
                     !netflow_trend_ && !passive_dns_;
  if (fresh) obs::MetricsRegistry::global().reset();

  graph_mode_ = true;
  if (checkpoint_) dag_resume_prologue();

  // One pool for every phase: ready nodes from different phases interleave
  // their shards in its queue (DESIGN.md §15).
  exec::WorkerPool pool(config_.thread_count);
  shared_pool_ = &pool;

  exec::TaskGraph graph;
  const auto body = [this](const char* phase) {
    return [this, phase] { run_phase_node(phase); };
  };
  const auto merge = [this](const char* phase) {
    return [this, phase] { commit_phase_node(phase); };
  };
  // Declaration order is canonical (merge/commit order); the edges are the
  // true data dependencies: certs reads the final scan snapshot, and each
  // proxy platform's recruitment cursor chains its users (global: the
  // reachability run then performance; cn: its own run, which also shares
  // the reachability sim-budget token and the reachability sim-date cache
  // entries with the global run).
  const auto scan_id = graph.add("scan_campaign", body("scan_campaign"),
                                 merge("scan_campaign"));
  (void)graph.add("doh_discovery", body("doh_discovery"),
                  merge("doh_discovery"));
  (void)graph.add("doh_scan", body("doh_scan"), merge("doh_scan"));
  (void)graph.add("local_probe", body("local_probe"), merge("local_probe"));
  (void)graph.add("certs", body("certs"), nullptr, {scan_id});
  const auto reach_id = graph.add("reachability_global",
                                  body("reachability_global"),
                                  merge("reachability_global"));
  (void)graph.add("reachability_cn", body("reachability_cn"),
                  merge("reachability_cn"), {reach_id});
  (void)graph.add("performance", body("performance"), merge("performance"),
                  {reach_id});
  (void)graph.add("no_reuse", body("no_reuse"), merge("no_reuse"));
  (void)graph.add("netflow", body("netflow"), merge("netflow"));
  (void)graph.add("netflow_trend", body("netflow_trend"),
                  merge("netflow_trend"));
  (void)graph.add("passive_dns", body("passive_dns"), merge("passive_dns"));
  try {
    graph.run();
  } catch (...) {
    shared_pool_ = nullptr;
    graph_mode_ = false;
    throw;
  }
  shared_pool_ = nullptr;
  graph_mode_ = false;

  ObservabilityReport report;
  report.metrics = obs::MetricsRegistry::global().snapshot();

  // Fold the node deltas into the serial schedule's six phase records, in
  // its order — the report is byte-identical either way.
  struct Group {
    const char* name;
    std::vector<const char*> members;
  };
  const Group groups[] = {
      {"scan", {"scan_campaign", "doh_discovery", "doh_scan", "local_probe"}},
      {"certs", {"certs"}},
      {"reachability", {"reachability_global", "reachability_cn"}},
      {"performance", {"performance", "no_reuse"}},
      {"netflow", {"netflow", "netflow_trend"}},
      {"passive_dns", {"passive_dns"}},
  };
  for (const auto& group : groups) {
    obs::Snapshot merged;
    double wall_ms = 0.0;
    for (const char* member : group.members) {
      const auto it = phase_deltas_.find(member);
      if (it != phase_deltas_.end()) obs::merge_delta(merged, it->second);
      const auto wit = phase_walls_.find(member);
      if (wit != phase_walls_.end()) wall_ms += wit->second;
    }
    report.phases.push_back(
        obs::PhaseProfiler::from_delta(group.name, merged, wall_ms));
  }

  report.robustness = robustness_report();
  report.data_quality = data_quality_report();
  obs_report_ = std::move(report);
  return *obs_report_;
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
