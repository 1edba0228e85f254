// The top-level facade: one World, every experiment of the paper, computed
// lazily and cached. This is the primary public entry point of the library.
#pragma once

#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "core/checkpoint/checkpoint.hpp"
#include "core/phases.hpp"
#include "exec/cancel.hpp"
#include "fault/retry.hpp"
#include "measure/local_probe.hpp"
#include "obs/profiler.hpp"
#include "measure/performance.hpp"
#include "measure/reachability.hpp"
#include "proxy/proxy.hpp"
#include "scan/doh_prober.hpp"
#include "scan/doh_scan.hpp"
#include "scan/scanner.hpp"
#include "traffic/netflow_study.hpp"
#include "traffic/passive_dns.hpp"
#include "traffic/trend_study.hpp"
#include "world/world.hpp"

namespace encdns::core {

/// Everything the obs layer saw while the study ran: the full metrics
/// snapshot, the six-phase profile (scan → certs → reachability →
/// performance → netflow → passive_dns), the fault-layer roll-up, and the
/// per-phase data-quality (coverage) accounting.
/// to_json() emits only deterministic fields — it is bit-identical across
/// thread counts for a fixed config (the acceptance surface); to_text()
/// adds the diagnostic metrics and wall-clock timings.
struct ObservabilityReport {
  obs::Snapshot metrics;
  std::vector<obs::PhaseRecord> phases;
  fault::RobustnessReport robustness;
  std::vector<PhaseCoverage> data_quality;

  [[nodiscard]] std::string to_json() const;
  [[nodiscard]] std::string to_text() const;
};

struct StudyConfig {
  world::WorldConfig world;
  scan::CampaignConfig campaign;
  measure::ReachabilityConfig reachability_global;
  measure::ReachabilityConfig reachability_cn;
  measure::PerformanceConfig performance;
  measure::NoReuseConfig no_reuse;
  measure::LocalProbeConfig local_probe;
  traffic::NetflowStudyConfig netflow;
  traffic::TrendStudyConfig trend;
  traffic::PassiveDnsStudyConfig passive_dns;

  /// Worker threads for every parallel experiment; 0 = auto (ENCDNS_THREADS
  /// env or hardware_concurrency). Propagated into each sub-config whose own
  /// thread_count is 0. Results are identical for every value.
  unsigned thread_count = 0;

  /// Full-scale run approximating the paper's dataset sizes. Minutes of CPU.
  [[nodiscard]] static StudyConfig full();
  /// Reduced scale for tests and quick demos. Seconds of CPU.
  [[nodiscard]] static StudyConfig quick();
};

class Study {
 public:
  explicit Study(StudyConfig config = StudyConfig::quick());

  [[nodiscard]] const StudyConfig& config() const noexcept { return config_; }
  [[nodiscard]] const world::World& world() const noexcept { return *world_; }

  /// §3: the longitudinal DoT scan campaign (cached after first call).
  [[nodiscard]] const std::vector<scan::ScanSnapshot>& scans();

  /// §3: DoH discovery over the URL dataset.
  [[nodiscard]] const scan::DohDiscovery& doh_discovery();

  /// §3: E-DoH-style IP-directed DoH discovery — a stateless-engine sweep of
  /// TCP/443 plus certificate-peek-directed RFC 8484 probes (DESIGN.md §14).
  [[nodiscard]] const scan::DohScanResult& doh_scan();

  /// §3.1: the local-resolver DoT probe.
  [[nodiscard]] const measure::LocalProbeResults& local_probe();

  /// §4.2: reachability from the global / censored platforms.
  [[nodiscard]] const measure::ReachabilityResults& reachability_global();
  [[nodiscard]] const measure::ReachabilityResults& reachability_cn();

  /// §4.3: performance with reused connections / without reuse.
  [[nodiscard]] const measure::PerformanceResults& performance();
  [[nodiscard]] const std::vector<measure::NoReuseRow>& no_reuse();

  /// §5.2 / §5.3: traffic studies.
  [[nodiscard]] const traffic::NetflowStudyResults& netflow();
  [[nodiscard]] const traffic::PassiveDnsStudyResults& passive_dns();

  /// The multi-year adoption trend engine (DESIGN.md §16): one fused pass
  /// per day at 100×+ the §5.2 corpus with HLL distinct-client sketches. Scaled by ENCDNS_NETFLOW_SCALE; sketch precision via
  /// ENCDNS_HLL_PRECISION.
  [[nodiscard]] const traffic::TrendStudyResults& netflow_trend();

  /// Fault accounting across the fault-injected experiments: per-layer
  /// injected / recovered / surfaced tallies from the global reachability
  /// run, the performance run, the scan campaign and DoH discovery. Forces
  /// those experiments (cached as usual). All-zero when the world's fault
  /// profile is disabled.
  [[nodiscard]] fault::RobustnessReport robustness_report();

  /// Run (and cache) the full study and return the observability report.
  /// When no experiment has been forced yet the global MetricsRegistry is
  /// reset first, so a fresh Study yields a complete, deterministic report;
  /// experiments forced earlier keep their cached results, and their
  /// metrics stay attributed to no phase unless a journal had them run
  /// under a tally of their own.
  ///
  /// The phases run as a dependency graph (exec::TaskGraph, DESIGN.md §15):
  /// independent phases overlap on one shared worker pool, per-phase
  /// metrics come from obs::PhaseTally deltas, and the journal holds their
  /// delta records. The graph orders every phase that writes the cache
  /// performance fills before it, so the report is byte-identical for any
  /// thread count at quick and at paper scale, and across kill and resume.
  [[nodiscard]] const ObservabilityReport& observability_report();

  /// Attach a write-ahead phase journal under `dir` (DESIGN.md §13). With
  /// `resume` false the directory must not hold a live journal; with `resume`
  /// true a compatible journal is replayed: committed phases load instead of
  /// running, and a mid-flight phase continues after its last committed
  /// block. Must be called before any experiment is forced.
  void enable_checkpoint(const std::string& dir, bool resume);

  /// Study-wide wall-clock deadline (seconds from now). Phases started after
  /// it expires are cut at their first block boundary; coverage fractions
  /// record what was lost. Wall deadlines are inherently nondeterministic —
  /// they degrade coverage, they do not promise byte-identical output.
  void set_deadline(double seconds);

  /// Fingerprint over every determinism-relevant config knob (and the
  /// ENCDNS_FAULTS / ENCDNS_CACHE_* environment), excluding thread counts
  /// and checkpoint/deadline settings. A journal written under one
  /// fingerprint refuses to resume under another.
  [[nodiscard]] std::uint64_t config_fingerprint() const;

  /// Planned-vs-completed accounting for one journaled phase (forces it).
  [[nodiscard]] PhaseCoverage phase_coverage(PhaseId phase);

  /// Coverage for every canonical phase, in canonical order (forces all).
  [[nodiscard]] std::vector<PhaseCoverage> data_quality_report();

 private:
  // The table binds each row to its result member below.
  friend const std::vector<PhaseSpec>& phase_table();

  /// The accessor path (DESIGN.md §7): return if the phase is cached; run
  /// the row's dependencies first; then, without a journal, run the phase
  /// under the caller's attribution, and with one, load its committed
  /// record or run it as a graph node would and commit it at once.
  void run_phase(const PhaseSpec& spec);
  /// run_phase, then the cached result.
  template <typename R>
  const R& forced(PhaseId phase, const std::optional<R>& result) {
    run_phase(phase_spec(phase));
    return *result;
  }
  /// Run the phase under its budget token and checkpoint hook and stash its
  /// journal commit. No-op if it is cached.
  void execute_phase(const PhaseSpec& spec);
  // --- task graph (DESIGN.md §15) -----------------------------------------
  /// Run the phases as a task graph; the report's phase records.
  [[nodiscard]] std::vector<obs::PhaseRecord> run_graph();
  /// Serial resume pass before the graph starts: committed records load
  /// (load_phase), and phases that were mid-flight at the kill re-run to
  /// completion here, after every row the graph orders them after —
  /// serially, so their cache restores cannot interleave with live phases.
  void resume_prologue();
  /// Load the phase's committed record, unless the phase already ran or
  /// loaded: results, owned platform and additive metrics; its cache
  /// section waits in pending_caches_. Whether the phase is now done. A
  /// state that fails to decode throws JournalError naming the record.
  bool load_phase(const PhaseSpec& spec);
  /// Run the phase as a node after every row the graph orders it after
  /// (resume prologue), each as its own node.
  void run_node_in_order(const PhaseSpec& spec);
  /// Node body: run the phase under a fresh PhaseTally and record its
  /// metrics delta and wall time. No-op if the phase already has a delta
  /// (loaded from the journal, or run before).
  void run_phase_node(const PhaseSpec& spec);
  /// Node merge: journal the phase's pending commit. Runs on the driver
  /// thread, in canonical declaration order.
  void commit_phase_node(const PhaseSpec& spec);
  /// The proxy platform `platform` names (null for kNone).
  [[nodiscard]] proxy::ProxyNetwork* owned(OwnedPlatform platform) const;
  /// Cursor capture limited to the platform a phase itself advances and its
  /// own cache entries, and the matching platform restore: under overlap
  /// the other platform belongs to a concurrently running node and must not
  /// be touched.
  [[nodiscard]] WorldCursor capture_owned_cursor(OwnedPlatform platform) const;
  void restore_owned_platform(OwnedPlatform platform,
                              const WorldCursor& cursor);
  /// Merge the cache sections of the phases loaded from the journal, in
  /// canonical order. Deferred until a phase that can read them is about to
  /// run: when every phase loads, nothing reads them and they stay unmerged.
  void restore_pending_caches();
  /// The checkpoint hook for a phase's block loop. A partial left by a
  /// killed run is decoded once, here: the owned platform rewinds to its
  /// cursor and its cache entries merge before the phase starts, and the
  /// hook hands the phase its state.
  [[nodiscard]] std::unique_ptr<exec::CheckpointHook> checkpoint_hook(
      const PhaseSpec& spec);
  /// Count what a journal record carried into the resolver layer of
  /// robustness_report(): upstream faults and stale answers of work the
  /// live World never saw.
  void carry_resolver_tally(const obs::Snapshot& delta);
  /// Stash a phase's serialized results + post-phase owned cursor for its
  /// commit (graph merges commit in canonical order).
  void stash_commit(const PhaseSpec& spec, std::vector<std::uint8_t> state);
  /// The cancel token for `budget`, built on first use from its env
  /// variable ("<seconds>" wall or "sim:<ms>" deterministic) and chained to
  /// the study-wide deadline at every hand-out. Null when the phase has no
  /// budget, or neither its variable nor a study deadline is set.
  [[nodiscard]] exec::CancelToken* budget_token(const PhaseBudget& budget);

  StudyConfig config_;
  std::unique_ptr<world::World> world_;
  std::unique_ptr<proxy::ProxyNetwork> global_platform_;
  std::unique_ptr<proxy::ProxyNetwork> cn_platform_;

  std::unique_ptr<StudyCheckpoint> checkpoint_;
  /// Resolver upstream faults (injected) and stale answers (recovered)
  /// carried in by journal records: work of a killed process.
  fault::LayerTally carried_resolver_;

  // Task-graph run state. shared_pool_ routes the phases' fan-out through
  // the one pool the graph owns; dag_mutex_ guards the maps, which node
  // threads fill concurrently.
  exec::WorkerPool* shared_pool_ = nullptr;
  std::mutex dag_mutex_;
  /// Cancel tokens by budget env variable, plus the study-wide deadline
  /// under kStudyDeadline (set_deadline). Node-based, so handed-out tokens
  /// stay put.
  std::map<std::string, exec::CancelToken, std::less<>> budget_tokens_;
  static constexpr const char* kStudyDeadline = "study";
  std::map<std::string, obs::Snapshot> phase_deltas_;
  std::map<std::string, double> phase_walls_;
  struct PendingCommit {
    std::vector<std::uint8_t> state;
    WorldCursor cursor;
  };
  std::map<std::string, PendingCommit> pending_commits_;
  std::vector<CacheSection> pending_caches_;  // see restore_pending_caches()

  std::optional<std::vector<scan::ScanSnapshot>> scans_;
  std::optional<scan::DohDiscovery> doh_discovery_;
  std::optional<scan::DohScanResult> doh_scan_;
  std::optional<measure::LocalProbeResults> local_probe_;
  std::optional<measure::ReachabilityResults> reach_global_;
  std::optional<measure::ReachabilityResults> reach_cn_;
  std::optional<measure::PerformanceResults> performance_;
  std::optional<std::vector<measure::NoReuseRow>> no_reuse_;
  std::optional<traffic::NetflowStudyResults> netflow_;
  std::optional<traffic::TrendStudyResults> netflow_trend_;
  std::optional<traffic::PassiveDnsStudyResults> passive_dns_;
  std::optional<ObservabilityReport> obs_report_;
};

}  // namespace encdns::core
