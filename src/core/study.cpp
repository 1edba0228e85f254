#include "core/study.hpp"

#include <cmath>
#include <cstdlib>

#include "util/bytes.hpp"
#include "util/env.hpp"

namespace encdns::core {

StudyConfig StudyConfig::full() {
  StudyConfig config;
  config.reachability_global.client_count = 29622;
  config.reachability_cn.client_count = 20000;  // Zhima, CN-only
  config.reachability_cn.seed = 19;
  config.performance.client_count = 8257;
  config.local_probe.probe_count = 6655;
  return config;
}

StudyConfig StudyConfig::quick() {
  StudyConfig config;
  config.campaign.scan_count = 4;
  config.campaign.interval_days = 30;  // Feb 1 .. May 1 with fewer sweeps
  config.reachability_global.client_count = 2500;
  config.reachability_cn.client_count = 2000;
  config.reachability_cn.seed = 19;
  config.performance.client_count = 900;
  config.no_reuse.queries = 120;
  config.local_probe.probe_count = 1500;
  config.netflow.backbone.tail_blocks = 2200;
  config.netflow.backbone.medium_blocks = 120;
  config.trend.scale = 0.02;  // the trend engine's validation scale
  return config;
}

Study::Study(StudyConfig config) : config_(std::move(config)) {
  // Propagate the top-level thread knob into every experiment that has not
  // been given its own.
  if (config_.campaign.thread_count == 0)
    config_.campaign.thread_count = config_.thread_count;
  if (config_.reachability_global.thread_count == 0)
    config_.reachability_global.thread_count = config_.thread_count;
  if (config_.reachability_cn.thread_count == 0)
    config_.reachability_cn.thread_count = config_.thread_count;
  if (config_.performance.thread_count == 0)
    config_.performance.thread_count = config_.thread_count;
  if (config_.netflow.thread_count == 0)
    config_.netflow.thread_count = config_.thread_count;
  if (config_.trend.thread_count == 0)
    config_.trend.thread_count = config_.thread_count;

  world_ = std::make_unique<world::World>(config_.world);

  proxy::ProxyConfig global;
  global.name = "ProxyRack";
  global.kind = proxy::PlatformKind::kGlobal;
  global_platform_ = std::make_unique<proxy::ProxyNetwork>(
      *world_, global, config_.world.seed ^ 0x91ACULL);

  proxy::ProxyConfig censored;
  censored.name = "Zhima";
  censored.kind = proxy::PlatformKind::kCensoredCn;
  cn_platform_ = std::make_unique<proxy::ProxyNetwork>(
      *world_, censored, config_.world.seed ^ 0x2813ULL);
}

void Study::enable_checkpoint(const std::string& dir, bool resume) {
  checkpoint_ =
      std::make_unique<StudyCheckpoint>(dir, config_fingerprint(), resume);
}

void Study::set_deadline(double seconds) {
  std::lock_guard<std::mutex> lock(dag_mutex_);
  budget_tokens_.try_emplace(kStudyDeadline).first->second.set_wall_budget(
      seconds);
}

std::uint64_t Study::config_fingerprint() const {
  // Serialize every knob that shapes the deterministic output surface; hash
  // the byte stream. Thread counts and checkpoint/deadline settings are
  // deliberately absent — a journal written at 8 threads must resume at 1.
  util::ByteWriter w;
  w.u64(config_.world.seed);
  const auto& c = config_.campaign;
  w.i64(c.start.to_days());
  w.i64(c.scan_count);
  w.i64(c.interval_days);
  w.u64(c.seed);
  w.u32(static_cast<std::uint32_t>(c.origin_countries.size()));
  for (const auto& country : c.origin_countries) w.str(country);
  w.i64(c.sweep_retries);
  w.i64(c.probe_attempts);
  w.i64(c.breaker_threshold);
  const auto add_reach = [&w](const measure::ReachabilityConfig& r) {
    w.u64(r.client_count);
    w.i64(r.max_attempts);
    w.f64(r.timeout.value);
    w.i64(r.date.to_days());
    w.u64(r.seed);
    w.i64(r.max_failovers);
  };
  add_reach(config_.reachability_global);
  add_reach(config_.reachability_cn);
  const auto& p = config_.performance;
  w.u64(p.client_count);
  w.i64(p.queries_per_protocol);
  w.i64(p.date.to_days());
  w.u64(p.seed);
  w.str(p.target_name);
  w.i64(p.query_attempts);
  w.i64(p.max_failovers);
  const auto& nr = config_.no_reuse;
  w.u32(static_cast<std::uint32_t>(nr.vantage_countries.size()));
  for (const auto& country : nr.vantage_countries) w.str(country);
  w.i64(nr.queries);
  w.i64(nr.date.to_days());
  w.u64(nr.seed);
  const auto& lp = config_.local_probe;
  w.u64(lp.probe_count);
  w.i64(lp.date.to_days());
  w.u64(lp.seed);
  const auto& nf = config_.netflow;
  w.f64(nf.sampling_rate);
  w.u64(nf.seed);
  w.i64(nf.backbone.start.to_days());
  w.i64(nf.backbone.end.to_days());
  w.u64(nf.backbone.seed);
  w.u64(nf.backbone.heavy_blocks);
  w.u64(nf.backbone.mid_blocks);
  w.u64(nf.backbone.medium_blocks);
  w.u64(nf.backbone.tail_blocks);
  w.f64(nf.backbone.scanner_probes_per_day);
  w.f64(nf.backbone.do53_to_dot_ratio);
  const auto& tr = config_.trend;
  w.i64(tr.start.to_days());
  w.i64(tr.end.to_days());
  w.u64(tr.seed);
  w.f64(tr.scale);
  w.i64(tr.hll_precision);
  w.boolean(tr.validate_exact);
  w.u32(static_cast<std::uint32_t>(tr.providers.size()));
  for (const auto& provider : tr.providers) {
    w.str(provider.name);
    w.u32(provider.resolver.value());
    w.u16(provider.dst_port);
    w.i64(provider.launch.to_days());
    w.f64(provider.base_daily_flows);
    w.f64(provider.monthly_growth);
    w.u32(provider.client_space);
    w.f64(provider.flows_per_client_day);
    w.f64(provider.client_churn_per_day);
    w.u32(provider.address_base);
  }
  w.u32(static_cast<std::uint32_t>(tr.events.size()));
  for (const auto& event : tr.events) {
    w.u8(static_cast<std::uint8_t>(event.kind));
    w.str(event.provider);
    w.i64(event.from.to_days());
    w.i64(event.to.to_days());
    w.f64(event.multiplier);
    w.str(event.label);
  }
  const auto& pd = config_.passive_dns;
  w.i64(pd.start.to_days());
  w.i64(pd.end.to_days());
  w.u64(pd.seed);
  w.f64(pd.aggregate_coverage_factor);
  // The fault and cache environment overrides change World behavior at
  // construction, so their raw strings are part of the fingerprint.
  for (const char* name : {"ENCDNS_FAULTS", "ENCDNS_CACHE_ENTRIES",
                           "ENCDNS_CACHE_NEG_TTL", "ENCDNS_CACHE_SERVE_STALE",
                           "ENCDNS_NETFLOW_SCALE", "ENCDNS_HLL_PRECISION"}) {
    const auto value = util::env_string(name);
    w.boolean(value.has_value());
    w.str(value.value_or(""));
  }
  return util::fnv1a_bytes(w.data().data(), w.size(), util::kFnv1aBasis);
}

exec::CancelToken* Study::budget_token(const PhaseBudget& budget) {
  if (budget.env == nullptr) return nullptr;
  std::lock_guard<std::mutex> lock(dag_mutex_);
  const auto study = budget_tokens_.find(kStudyDeadline);
  const exec::CancelToken* deadline =
      study == budget_tokens_.end() ? nullptr : &study->second;
  auto token = budget_tokens_.find(budget.env);
  if (token == budget_tokens_.end()) {
    const bool borrow =
        budget.fallback != nullptr && !util::env_string(budget.env);
    const char* env = borrow ? budget.fallback : budget.env;
    const auto value = util::env_string(env);
    if (!value && deadline == nullptr) return nullptr;
    token = budget_tokens_.try_emplace(budget.env).first;
    if (value) {
      const bool is_sim = value->rfind("sim:", 0) == 0;
      const std::string number = is_sim ? value->substr(4) : *value;
      char* end = nullptr;
      const double parsed =
          number.empty() ? 0.0 : std::strtod(number.c_str(), &end);
      if (number.empty() || end == nullptr || *end != '\0' ||
          !std::isfinite(parsed) || parsed <= 0.0) {
        throw util::EnvError(
            std::string(env) + "=\"" + *value +
            "\": expected a positive wall budget in seconds or a "
            "deterministic \"sim:<milliseconds>\" budget");
      }
      if (is_sim)
        token->second.set_sim_budget(sim::Millis{parsed});
      else
        token->second.set_wall_budget(parsed);
    }
  }
  // Chained at every hand-out, not only at creation: a study deadline set
  // after a shared token exists must still reach the token's later users.
  if (deadline != nullptr) token->second.set_parent(deadline);
  return &token->second;
}

proxy::ProxyNetwork* Study::owned(OwnedPlatform platform) const {
  switch (platform) {
    case OwnedPlatform::kGlobal:
      return global_platform_.get();
    case OwnedPlatform::kCn:
      return cn_platform_.get();
    case OwnedPlatform::kNone:
      break;
  }
  return nullptr;
}

WorldCursor Study::capture_owned_cursor(OwnedPlatform platform) const {
  WorldCursor cursor;
  if (const proxy::ProxyNetwork* network = owned(platform))
    cursor.platform = network->cursor();
  // Only the entries this phase stored (attributed by its PhaseTally — the
  // phase runs under the node's ScopedTally): a full-contents capture under
  // overlap would carry concurrent phases' half-done stores, and replaying
  // those on resume hands a re-running phase cache hits its reference run
  // never saw.
  cursor.caches = world_->export_resolver_caches(obs::current_tally());
  return cursor;
}

void Study::restore_owned_platform(OwnedPlatform platform,
                                   const WorldCursor& cursor) {
  if (proxy::ProxyNetwork* network = owned(platform))
    network->restore_cursor(cursor.platform);
}

void Study::restore_pending_caches() {
  // Merge, don't replace: a record carries only its phase's own stores,
  // and everything already in cache (bootstrap seeds, other loaded phases'
  // entries) must survive. Merging adds no metrics, so deferring it is
  // invisible to every phase that does not run.
  for (const CacheSection& caches : pending_caches_)
    world_->merge_resolver_caches(export_section(caches));
  pending_caches_.clear();
}

void Study::stash_commit(const PhaseSpec& spec,
                         std::vector<std::uint8_t> state) {
  PendingCommit pending;
  pending.state = std::move(state);
  pending.cursor = capture_owned_cursor(spec.platform);
  std::lock_guard<std::mutex> lock(dag_mutex_);
  pending_commits_[spec.name] = std::move(pending);
}

void Study::carry_resolver_tally(const obs::Snapshot& delta) {
  std::lock_guard<std::mutex> lock(dag_mutex_);
  for (const auto& counter : delta.counters) {
    if (counter.name == "resolver.upstream.fault")
      carried_resolver_.injected += counter.value;
    else if (counter.name == "resolver.upstream.stale_served")
      carried_resolver_.recovered += counter.value;
  }
}

std::unique_ptr<exec::CheckpointHook> Study::checkpoint_hook(
    const PhaseSpec& spec) {
  // The newest partial is decoded once, here: its owned platform rewinds
  // and its cache entries merge before the phase's prologue runs, and the
  // hook's load() hands the phase its state and metrics. Only the platform
  // cursor of `pre` is kept.
  WorldCursor pre;
  auto resumed = checkpoint_->load_partial_delta(spec.name);
  if (resumed) {
    restore_owned_platform(spec.platform, resumed->cursor);
    world_->merge_resolver_caches(export_section(resumed->caches));
    carry_resolver_tally(resumed->metrics);
    pre.platform = resumed->cursor.platform;
    resumed->caches = {};
  } else {
    pre = capture_owned_cursor(spec.platform);
  }
  return checkpoint_->phase_delta_hook(
      spec.name, pre,
      [this, &spec] { return capture_owned_cursor(spec.platform); },
      std::move(resumed));
}

void Study::run_phase(const PhaseSpec& spec) {
  if (spec.cached && spec.cached(*this)) return;
  // A phase reads its dependencies' results and the platform and cache
  // state they leave behind, so a lone accessor runs them first.
  for (const PhaseId dep : spec.deps) run_phase(phase_spec(dep));
  if (checkpoint_ == nullptr || !spec.journaled()) {
    execute_phase(spec);
    return;
  }
  // Journaled, an accessor writes what a graph node writes: the phase runs
  // under its own tally and its record commits at once.
  if (load_phase(spec)) return;
  restore_pending_caches();
  run_phase_node(spec);
  commit_phase_node(spec);
}

void Study::execute_phase(const PhaseSpec& spec) {
  if (spec.cached && spec.cached(*this)) return;
  const bool journaled = checkpoint_ != nullptr && spec.journaled();
  PhaseContext context{.pool = shared_pool_,
                       .cancel = budget_token(spec.budget),
                       .platform = owned(spec.platform)};
  std::unique_ptr<exec::CheckpointHook> hook;
  if (journaled && spec.partials) {
    hook = checkpoint_hook(spec);
    context.checkpoint = hook.get();
  }
  spec.run(*this, context);
  if (journaled) stash_commit(spec, spec.encode(*this));
}

const std::vector<scan::ScanSnapshot>& Study::scans() {
  return forced(PhaseId::kScanCampaign, scans_);
}

const scan::DohDiscovery& Study::doh_discovery() {
  return forced(PhaseId::kDohDiscovery, doh_discovery_);
}

const scan::DohScanResult& Study::doh_scan() {
  return forced(PhaseId::kDohScan, doh_scan_);
}

const measure::LocalProbeResults& Study::local_probe() {
  return forced(PhaseId::kLocalProbe, local_probe_);
}

const measure::ReachabilityResults& Study::reachability_global() {
  return forced(PhaseId::kReachabilityGlobal, reach_global_);
}

const measure::ReachabilityResults& Study::reachability_cn() {
  return forced(PhaseId::kReachabilityCn, reach_cn_);
}

const measure::PerformanceResults& Study::performance() {
  return forced(PhaseId::kPerformance, performance_);
}

const std::vector<measure::NoReuseRow>& Study::no_reuse() {
  return forced(PhaseId::kNoReuse, no_reuse_);
}

const traffic::NetflowStudyResults& Study::netflow() {
  return forced(PhaseId::kNetflow, netflow_);
}

const traffic::TrendStudyResults& Study::netflow_trend() {
  return forced(PhaseId::kNetflowTrend, netflow_trend_);
}

const traffic::PassiveDnsStudyResults& Study::passive_dns() {
  return forced(PhaseId::kPassiveDns, passive_dns_);
}

fault::RobustnessReport Study::robustness_report() {
  fault::RobustnessReport report;
  const auto& reach = reachability_global();
  const auto& perf = performance();
  report.client += reach.client_faults;
  report.client += perf.client_faults;
  report.proxy += reach.proxy_faults;
  report.proxy += perf.proxy_faults;
  for (const auto& snapshot : scans()) report.scanner += snapshot.faults;
  report.scanner += doh_discovery().faults;
  report.scanner += doh_scan().faults;
  // Resolver layer: upstream recursion faults drawn inside the backends,
  // recovered when an RFC 8767 stale answer covered for the failure. The
  // World's tally counts this process's work; after a resume, the records
  // the journal loaded carry the killed process's.
  const auto live = world_->resolver_cache_tally();
  std::lock_guard<std::mutex> lock(dag_mutex_);
  report.resolver.injected = live.upstream_faults + carried_resolver_.injected;
  report.resolver.recovered = live.stale_served + carried_resolver_.recovered;
  report.resolver.surfaced = report.resolver.injected - report.resolver.recovered;
  return report;
}

PhaseCoverage Study::phase_coverage(PhaseId phase) {
  const PhaseSpec& spec = phase_spec(phase);
  PhaseCoverage coverage;
  if (spec.coverage) {
    run_phase(spec);
    coverage = spec.coverage(*this);
  }
  coverage.phase = spec.name;
  return coverage;
}

std::vector<PhaseCoverage> Study::data_quality_report() {
  std::vector<PhaseCoverage> report;
  for (const PhaseSpec& spec : phase_table())
    if (spec.coverage) report.push_back(phase_coverage(spec.id));
  return report;
}

}  // namespace encdns::core
