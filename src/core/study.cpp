#include "core/study.hpp"

#include <cmath>
#include <cstdlib>

#include "measure/codec.hpp"
#include "scan/codec.hpp"
#include "traffic/codec.hpp"
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
  if (!study_cancel_) study_cancel_.emplace();
  study_cancel_->set_wall_budget(seconds);
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
  w.u64(tr.batch_rows);
  w.u64(tr.sample_rows);
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
  // ENCDNS_DAG rides along too: serial and task-graph journals use different
  // record families, so a journal written under one schedule must refuse to
  // resume under the other.
  for (const char* name : {"ENCDNS_FAULTS", "ENCDNS_CACHE_ENTRIES",
                           "ENCDNS_CACHE_NEG_TTL", "ENCDNS_CACHE_SERVE_STALE",
                           "ENCDNS_DAG", "ENCDNS_NETFLOW_SCALE",
                           "ENCDNS_HLL_PRECISION"}) {
    const auto value = util::env_string(name);
    w.boolean(value.has_value());
    w.str(value.value_or(""));
  }
  return util::fnv1a_bytes(w.data().data(), w.size(), util::kFnv1aBasis);
}

bool Study::dag_enabled() {
  const auto value = util::env_string("ENCDNS_DAG");
  if (!value || *value == "1" || *value == "on" || *value == "true")
    return true;
  if (*value == "0" || *value == "off" || *value == "false") return false;
  throw util::EnvError("ENCDNS_DAG=\"" + *value +
                       "\": expected 1/on/true (task graph) or 0/off/false "
                       "(serial fallback)");
}

exec::CancelToken* Study::phase_cancel(const char* env_name,
                                       std::optional<exec::CancelToken>& slot) {
  if (slot) return &*slot;
  const auto value = util::env_string(env_name);
  if (!value && !study_cancel_) return nullptr;
  slot.emplace();
  if (study_cancel_) slot->set_parent(&*study_cancel_);
  if (value) {
    const bool is_sim = value->rfind("sim:", 0) == 0;
    const std::string number = is_sim ? value->substr(4) : *value;
    char* end = nullptr;
    const double parsed =
        number.empty() ? 0.0 : std::strtod(number.c_str(), &end);
    if (number.empty() || end == nullptr || *end != '\0' ||
        !std::isfinite(parsed) || parsed <= 0.0) {
      throw util::EnvError(std::string(env_name) + "=\"" + *value +
                           "\": expected a positive wall budget in seconds "
                           "or a deterministic \"sim:<milliseconds>\" budget");
    }
    if (is_sim)
      slot->set_sim_budget(sim::Millis{parsed});
    else
      slot->set_wall_budget(parsed);
  }
  return &*slot;
}

WorldCursor Study::capture_cursor() const {
  return WorldCursor{global_platform_->cursor(), cn_platform_->cursor(),
                     cumulative_cache_tally(),
                     world_->export_resolver_caches()};
}

world::World::ResolverCacheTally Study::cumulative_cache_tally() const {
  const auto live = world_->resolver_cache_tally();
  world::World::ResolverCacheTally total;
  total.hits = tally_baseline_.hits + live.hits;
  total.misses = tally_baseline_.misses + live.misses;
  total.stale_served = tally_baseline_.stale_served + live.stale_served;
  total.upstream_faults = tally_baseline_.upstream_faults + live.upstream_faults;
  total.evictions = tally_baseline_.evictions + live.evictions;
  total.entries = tally_baseline_.entries + live.entries;
  return total;
}

void Study::restore_cursor(const WorldCursor& cursor) {
  global_platform_->restore_cursor(cursor.global_platform);
  cn_platform_->restore_cursor(cursor.cn_platform);
  // Cache contents first (they change the live `entries` reading), then
  // rebase the cache-tally baseline so the cumulative tally equals the
  // stored cursor right now and tracks the live increments from here on.
  world_->restore_resolver_caches(cursor.caches);
  const auto live = world_->resolver_cache_tally();
  const auto rebase = [](std::uint64_t stored, std::uint64_t current) {
    return stored >= current ? stored - current : 0;
  };
  tally_baseline_.hits = rebase(cursor.cache_tally.hits, live.hits);
  tally_baseline_.misses = rebase(cursor.cache_tally.misses, live.misses);
  tally_baseline_.stale_served =
      rebase(cursor.cache_tally.stale_served, live.stale_served);
  tally_baseline_.upstream_faults =
      rebase(cursor.cache_tally.upstream_faults, live.upstream_faults);
  tally_baseline_.evictions =
      rebase(cursor.cache_tally.evictions, live.evictions);
  tally_baseline_.entries = rebase(cursor.cache_tally.entries, live.entries);
}

namespace {

/// Which proxy platform a phase advances (acquire_batch prologue). The graph
/// edges serialize each platform's users, so the owner's cursor is stable at
/// capture time while the *other* platform may be mid-advance on another
/// node thread — owned-cursor capture must not read it.
enum class OwnedPlatform { kNone, kGlobal, kCn };

[[nodiscard]] OwnedPlatform owned_platform(const std::string& phase) {
  if (phase == "reachability_global" || phase == "performance")
    return OwnedPlatform::kGlobal;
  if (phase == "reachability_cn") return OwnedPlatform::kCn;
  return OwnedPlatform::kNone;
}

}  // namespace

WorldCursor Study::capture_owned_cursor(const std::string& phase) const {
  WorldCursor cursor;
  switch (owned_platform(phase)) {
    case OwnedPlatform::kGlobal:
      cursor.global_platform = global_platform_->cursor();
      break;
    case OwnedPlatform::kCn:
      cursor.cn_platform = cn_platform_->cursor();
      break;
    case OwnedPlatform::kNone:
      break;
  }
  cursor.cache_tally = cumulative_cache_tally();
  // Only the entries this phase stored (attributed by its PhaseTally — the
  // accessors call this under the node's ScopedTally): a full-contents
  // capture under overlap would carry concurrent phases' half-done stores,
  // and replaying those on resume hands a re-running phase cache hits its
  // reference run never saw.
  cursor.caches = world_->export_resolver_caches(obs::current_tally());
  return cursor;
}

void Study::restore_owned_platform(const std::string& phase,
                                   const WorldCursor& cursor) {
  switch (owned_platform(phase)) {
    case OwnedPlatform::kGlobal:
      global_platform_->restore_cursor(cursor.global_platform);
      break;
    case OwnedPlatform::kCn:
      cn_platform_->restore_cursor(cursor.cn_platform);
      break;
    case OwnedPlatform::kNone:
      break;
  }
}

void Study::restore_pending_caches() {
  // No tally rebase here: graph-mode robustness reads the resolver.upstream
  // counters, which travel in the delta records instead of the cursor.
  // Merge, don't replace: a record carries only its phase's own stores,
  // and everything already in cache (bootstrap seeds, other loaded phases'
  // entries) must survive. Merging adds no metrics, so deferring it is
  // invisible to every phase that does not run.
  for (const CacheSection& caches : pending_caches_)
    world_->merge_resolver_caches(export_section(caches));
  pending_caches_.clear();
}

void Study::stash_commit(const std::string& phase,
                         std::vector<std::uint8_t> state) {
  PendingCommit pending;
  pending.state = std::move(state);
  pending.cursor = capture_owned_cursor(phase);
  std::lock_guard<std::mutex> lock(dag_mutex_);
  pending_commits_[phase] = std::move(pending);
}

std::unique_ptr<exec::CheckpointHook> Study::checkpoint_hook(
    const std::string& phase) {
  // The newest partial is decoded once, here: its cursor rewinds the world
  // before the phase's prologue runs, and the hook's load() hands the phase
  // its state and metrics. Only the platform cursors of `pre` are kept.
  WorldCursor pre;
  if (graph_mode_) {
    auto resumed = checkpoint_->load_partial_delta(phase);
    if (resumed) {
      restore_owned_platform(phase, resumed->cursor);
      world_->merge_resolver_caches(export_section(resumed->caches));
      pre.global_platform = resumed->cursor.global_platform;
      pre.cn_platform = resumed->cursor.cn_platform;
      resumed->caches = {};
    } else {
      pre = capture_owned_cursor(phase);
    }
    return checkpoint_->phase_delta_hook(
        phase, pre, [this, phase] { return capture_owned_cursor(phase); },
        std::move(resumed));
  }
  auto resumed = checkpoint_->load_partial(phase);
  if (resumed) {
    restore_cursor(resumed->cursor);
    pre.global_platform = resumed->cursor.global_platform;
    pre.cn_platform = resumed->cursor.cn_platform;
    resumed->cursor = {};
  } else {
    pre.global_platform = global_platform_->cursor();
    pre.cn_platform = cn_platform_->cursor();
  }
  return checkpoint_->phase_hook(
      phase, pre, [this] { return capture_cursor(); }, std::move(resumed));
}

void Study::decode_phase_state(const std::string& phase,
                               const std::vector<std::uint8_t>& state) {
  util::ByteReader r(state);
  if (phase == "scan_campaign") {
    scans_ = scan::decode_snapshots(r);
  } else if (phase == "doh_discovery") {
    doh_discovery_ = scan::decode_doh_discovery(r);
  } else if (phase == "doh_scan") {
    doh_scan_ = scan::decode_doh_scan(r);
  } else if (phase == "local_probe") {
    local_probe_ = measure::decode_local_probe(r);
  } else if (phase == "reachability_global") {
    reach_global_ = measure::decode_reachability(r);
  } else if (phase == "reachability_cn") {
    reach_cn_ = measure::decode_reachability(r);
  } else if (phase == "performance") {
    performance_ = measure::decode_performance(r);
  } else if (phase == "no_reuse") {
    no_reuse_ = measure::decode_no_reuse(r);
  } else if (phase == "netflow") {
    netflow_ = traffic::decode_netflow_results(r);
  } else if (phase == "netflow_trend") {
    netflow_trend_ = traffic::decode_trend_results(r);
  } else if (phase == "passive_dns") {
    passive_dns_ = traffic::decode_passive_dns(r);
  } else {
    throw util::CodecError("unknown checkpoint phase \"" + phase + "\"");
  }
  r.expect_done();
}

const std::vector<scan::ScanSnapshot>& Study::scans() {
  if (scans_) return *scans_;
  if (checkpoint_ && !graph_mode_) {
    if (auto loaded = checkpoint_->load_phase("scan_campaign")) {
      util::ByteReader r(loaded->state);
      scans_ = scan::decode_snapshots(r);
      r.expect_done();
      restore_cursor(loaded->cursor);
      return *scans_;
    }
  }
  scan::CampaignConfig cfg = config_.campaign;
  cfg.pool = shared_pool_;
  cfg.cancel = phase_cancel("ENCDNS_DEADLINE_SCAN", scan_cancel_);
  std::unique_ptr<exec::CheckpointHook> hook;
  if (checkpoint_) {
    hook = checkpoint_hook("scan_campaign");
    cfg.checkpoint = hook.get();
  }
  scan::Scanner scanner(*world_, cfg);
  scans_ = scanner.run_campaign();
  if (checkpoint_) {
    util::ByteWriter w;
    scan::encode_snapshots(w, *scans_);
    if (graph_mode_)
      stash_commit("scan_campaign", w.take());
    else
      checkpoint_->commit_phase("scan_campaign", w.take(), capture_cursor());
  }
  return *scans_;
}

const scan::DohDiscovery& Study::doh_discovery() {
  if (doh_discovery_) return *doh_discovery_;
  if (checkpoint_ && !graph_mode_) {
    if (auto loaded = checkpoint_->load_phase("doh_discovery")) {
      util::ByteReader r(loaded->state);
      doh_discovery_ = scan::decode_doh_discovery(r);
      r.expect_done();
      restore_cursor(loaded->cursor);
      return *doh_discovery_;
    }
  }
  scan::DohProber prober(*world_, world_->make_clean_vantage("US"),
                         config_.campaign.seed ^ 0xD0DULL);
  doh_discovery_ =
      prober.discover(world_->url_dataset(), config_.campaign.start.plus_days(30));
  if (checkpoint_) {
    util::ByteWriter w;
    scan::encode_doh_discovery(w, *doh_discovery_);
    if (graph_mode_)
      stash_commit("doh_discovery", w.take());
    else
      checkpoint_->commit_phase("doh_discovery", w.take(), capture_cursor());
  }
  return *doh_discovery_;
}

const scan::DohScanResult& Study::doh_scan() {
  if (doh_scan_) return *doh_scan_;
  if (checkpoint_ && !graph_mode_) {
    if (auto loaded = checkpoint_->load_phase("doh_scan")) {
      util::ByteReader r(loaded->state);
      doh_scan_ = scan::decode_doh_scan(r);
      r.expect_done();
      restore_cursor(loaded->cursor);
      return *doh_scan_;
    }
  }
  scan::DohScanConfig cfg;
  cfg.seed = config_.campaign.seed ^ 0xED0ULL;
  cfg.thread_count = config_.thread_count;
  cfg.scan_window = config_.campaign.scan_window;
  cfg.scan_rate = config_.campaign.scan_rate;
  cfg.pool = shared_pool_;
  // This phase budgets under ENCDNS_DEADLINE_DOH_SCAN, falling back to the
  // ENCDNS_DEADLINE_SCAN *value* when unset — but always through its own
  // token. Sharing scan_cancel_ here used to hand this phase a token the
  // campaign sweep had already tripped, silently zeroing its coverage.
  const char* budget_env = util::env_string("ENCDNS_DEADLINE_DOH_SCAN")
                               ? "ENCDNS_DEADLINE_DOH_SCAN"
                               : "ENCDNS_DEADLINE_SCAN";
  cfg.cancel = phase_cancel(budget_env, doh_scan_cancel_);
  doh_scan_ =
      scan::run_doh_scan(*world_, cfg, config_.campaign.start.plus_days(60));
  if (checkpoint_) {
    util::ByteWriter w;
    scan::encode_doh_scan(w, *doh_scan_);
    if (graph_mode_)
      stash_commit("doh_scan", w.take());
    else
      checkpoint_->commit_phase("doh_scan", w.take(), capture_cursor());
  }
  return *doh_scan_;
}

const measure::LocalProbeResults& Study::local_probe() {
  if (local_probe_) return *local_probe_;
  if (checkpoint_ && !graph_mode_) {
    if (auto loaded = checkpoint_->load_phase("local_probe")) {
      util::ByteReader r(loaded->state);
      local_probe_ = measure::decode_local_probe(r);
      r.expect_done();
      restore_cursor(loaded->cursor);
      return *local_probe_;
    }
  }
  local_probe_ = measure::run_local_resolver_probe(*world_, config_.local_probe);
  if (checkpoint_) {
    util::ByteWriter w;
    measure::encode_local_probe(w, *local_probe_);
    if (graph_mode_)
      stash_commit("local_probe", w.take());
    else
      checkpoint_->commit_phase("local_probe", w.take(), capture_cursor());
  }
  return *local_probe_;
}

const measure::ReachabilityResults& Study::reachability_global() {
  if (reach_global_) return *reach_global_;
  if (checkpoint_ && !graph_mode_) {
    if (auto loaded = checkpoint_->load_phase("reachability_global")) {
      util::ByteReader r(loaded->state);
      reach_global_ = measure::decode_reachability(r);
      r.expect_done();
      restore_cursor(loaded->cursor);
      return *reach_global_;
    }
  }
  measure::ReachabilityConfig cfg = config_.reachability_global;
  cfg.pool = shared_pool_;
  cfg.cancel = phase_cancel("ENCDNS_DEADLINE_REACH", reach_cancel_);
  std::unique_ptr<exec::CheckpointHook> hook;
  if (checkpoint_) {
    hook = checkpoint_hook("reachability_global");
    cfg.checkpoint = hook.get();
  }
  measure::ReachabilityTest test(*world_, *global_platform_, cfg);
  reach_global_ = test.run();
  if (checkpoint_) {
    util::ByteWriter w;
    measure::encode_reachability(w, *reach_global_);
    if (graph_mode_)
      stash_commit("reachability_global", w.take());
    else
      checkpoint_->commit_phase("reachability_global", w.take(),
                                capture_cursor());
  }
  return *reach_global_;
}

const measure::ReachabilityResults& Study::reachability_cn() {
  if (reach_cn_) return *reach_cn_;
  if (checkpoint_ && !graph_mode_) {
    if (auto loaded = checkpoint_->load_phase("reachability_cn")) {
      util::ByteReader r(loaded->state);
      reach_cn_ = measure::decode_reachability(r);
      r.expect_done();
      restore_cursor(loaded->cursor);
      return *reach_cn_;
    }
  }
  measure::ReachabilityConfig cfg = config_.reachability_cn;
  // Both reachability runs share one token: ENCDNS_DEADLINE_REACH is a
  // combined budget for the global and censored platforms together. (The
  // graph serializes the two — reachability_cn depends on
  // reachability_global — so the shared slot is never raced.)
  cfg.pool = shared_pool_;
  cfg.cancel = phase_cancel("ENCDNS_DEADLINE_REACH", reach_cancel_);
  std::unique_ptr<exec::CheckpointHook> hook;
  if (checkpoint_) {
    hook = checkpoint_hook("reachability_cn");
    cfg.checkpoint = hook.get();
  }
  measure::ReachabilityTest test(*world_, *cn_platform_, cfg);
  reach_cn_ = test.run();
  if (checkpoint_) {
    util::ByteWriter w;
    measure::encode_reachability(w, *reach_cn_);
    if (graph_mode_)
      stash_commit("reachability_cn", w.take());
    else
      checkpoint_->commit_phase("reachability_cn", w.take(), capture_cursor());
  }
  return *reach_cn_;
}

const measure::PerformanceResults& Study::performance() {
  if (performance_) return *performance_;
  if (checkpoint_ && !graph_mode_) {
    if (auto loaded = checkpoint_->load_phase("performance")) {
      util::ByteReader r(loaded->state);
      performance_ = measure::decode_performance(r);
      r.expect_done();
      restore_cursor(loaded->cursor);
      return *performance_;
    }
  }
  measure::PerformanceConfig cfg = config_.performance;
  cfg.pool = shared_pool_;
  cfg.cancel = phase_cancel("ENCDNS_DEADLINE_PERF", perf_cancel_);
  std::unique_ptr<exec::CheckpointHook> hook;
  if (checkpoint_) {
    hook = checkpoint_hook("performance");
    cfg.checkpoint = hook.get();
  }
  measure::PerformanceTest test(*world_, *global_platform_, cfg);
  performance_ = test.run();
  if (checkpoint_) {
    util::ByteWriter w;
    measure::encode_performance(w, *performance_);
    if (graph_mode_)
      stash_commit("performance", w.take());
    else
      checkpoint_->commit_phase("performance", w.take(), capture_cursor());
  }
  return *performance_;
}

const std::vector<measure::NoReuseRow>& Study::no_reuse() {
  if (no_reuse_) return *no_reuse_;
  if (checkpoint_ && !graph_mode_) {
    if (auto loaded = checkpoint_->load_phase("no_reuse")) {
      util::ByteReader r(loaded->state);
      no_reuse_ = measure::decode_no_reuse(r);
      r.expect_done();
      restore_cursor(loaded->cursor);
      return *no_reuse_;
    }
  }
  no_reuse_ = measure::run_no_reuse_test(*world_, config_.no_reuse);
  if (checkpoint_) {
    util::ByteWriter w;
    measure::encode_no_reuse(w, *no_reuse_);
    if (graph_mode_)
      stash_commit("no_reuse", w.take());
    else
      checkpoint_->commit_phase("no_reuse", w.take(), capture_cursor());
  }
  return *no_reuse_;
}

const traffic::NetflowStudyResults& Study::netflow() {
  if (netflow_) return *netflow_;
  if (checkpoint_ && !graph_mode_) {
    if (auto loaded = checkpoint_->load_phase("netflow")) {
      util::ByteReader r(loaded->state);
      netflow_ = traffic::decode_netflow_results(r);
      r.expect_done();
      restore_cursor(loaded->cursor);
      return *netflow_;
    }
  }
  traffic::NetflowStudyConfig cfg = config_.netflow;
  cfg.pool = shared_pool_;
  cfg.cancel = phase_cancel("ENCDNS_DEADLINE_NETFLOW", netflow_cancel_);
  std::unique_ptr<exec::CheckpointHook> hook;
  if (checkpoint_) {
    hook = checkpoint_hook("netflow");
    cfg.checkpoint = hook.get();
  }
  traffic::NetflowStudy study(cfg, traffic::big_resolver_address_list());
  netflow_ = study.run();
  if (checkpoint_) {
    util::ByteWriter w;
    traffic::encode_netflow_results(w, *netflow_);
    if (graph_mode_)
      stash_commit("netflow", w.take());
    else
      checkpoint_->commit_phase("netflow", w.take(), capture_cursor());
  }
  return *netflow_;
}

const traffic::TrendStudyResults& Study::netflow_trend() {
  if (netflow_trend_) return *netflow_trend_;
  if (checkpoint_ && !graph_mode_) {
    if (auto loaded = checkpoint_->load_phase("netflow_trend")) {
      util::ByteReader r(loaded->state);
      netflow_trend_ = traffic::decode_trend_results(r);
      r.expect_done();
      restore_cursor(loaded->cursor);
      return *netflow_trend_;
    }
  }
  traffic::TrendStudyConfig cfg = config_.trend;
  cfg.pool = shared_pool_;
  // ENCDNS_NETFLOW_SCALE multiplies the configured scale (quick() runs at
  // 0.02; the soak and bench tiers push it back up) and
  // ENCDNS_HLL_PRECISION overrides the sketch width. Both change the
  // deterministic output, so both strings sit in the config fingerprint.
  if (const auto scale = util::env_double("ENCDNS_NETFLOW_SCALE")) {
    if (!(*scale > 0.0)) {
      throw util::EnvError("ENCDNS_NETFLOW_SCALE=\"" +
                           *util::env_string("ENCDNS_NETFLOW_SCALE") +
                           "\": expected a multiplier > 0");
    }
    cfg.scale *= *scale;
  }
  if (const auto precision = util::env_int("ENCDNS_HLL_PRECISION")) {
    if (*precision < traffic::Hll::kMinPrecision ||
        *precision > traffic::Hll::kMaxPrecision) {
      throw util::EnvError("ENCDNS_HLL_PRECISION=\"" +
                           *util::env_string("ENCDNS_HLL_PRECISION") +
                           "\": expected a precision in [4, 16]");
    }
    cfg.hll_precision = static_cast<int>(*precision);
  }
  // Own budget slot, falling back to the ENCDNS_DEADLINE_NETFLOW *value*
  // through a fresh token (the doh-scan pattern): this phase must not
  // inherit a token the netflow phase already tripped.
  const char* budget_env = util::env_string("ENCDNS_DEADLINE_NETFLOW_TREND")
                               ? "ENCDNS_DEADLINE_NETFLOW_TREND"
                               : "ENCDNS_DEADLINE_NETFLOW";
  cfg.cancel = phase_cancel(budget_env, netflow_trend_cancel_);
  std::unique_ptr<exec::CheckpointHook> hook;
  if (checkpoint_) {
    hook = checkpoint_hook("netflow_trend");
    cfg.checkpoint = hook.get();
  }
  traffic::TrendStudy study(cfg);
  netflow_trend_ = study.run();
  if (checkpoint_) {
    util::ByteWriter w;
    traffic::encode_trend_results(w, *netflow_trend_);
    if (graph_mode_)
      stash_commit("netflow_trend", w.take());
    else
      checkpoint_->commit_phase("netflow_trend", w.take(), capture_cursor());
  }
  return *netflow_trend_;
}

const traffic::PassiveDnsStudyResults& Study::passive_dns() {
  if (passive_dns_) return *passive_dns_;
  if (checkpoint_ && !graph_mode_) {
    if (auto loaded = checkpoint_->load_phase("passive_dns")) {
      util::ByteReader r(loaded->state);
      passive_dns_ = traffic::decode_passive_dns(r);
      r.expect_done();
      restore_cursor(loaded->cursor);
      return *passive_dns_;
    }
  }
  passive_dns_ = traffic::run_passive_dns_study(config_.passive_dns);
  if (checkpoint_) {
    util::ByteWriter w;
    traffic::encode_passive_dns(w, *passive_dns_);
    if (graph_mode_)
      stash_commit("passive_dns", w.take());
    else
      checkpoint_->commit_phase("passive_dns", w.take(), capture_cursor());
  }
  return *passive_dns_;
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
  // recovered when an RFC 8767 stale answer covered for the failure. After a
  // task-graph run the resolver.upstream counters are the source of truth —
  // they are 1:1 with the World tally on a live run and, unlike it, survive
  // a delta-based resume (the deltas replay them; the World starts cold).
  // The serial path keeps the cumulative tally, whose baseline the absolute
  // cursor restore rebases.
  bool delta_based;
  {
    std::lock_guard<std::mutex> lock(dag_mutex_);
    delta_based = !phase_deltas_.empty();
  }
  if (delta_based) {
    // counter_value, not counter(): these names are registered by the fault
    // path only, and a get-or-create read here would leak zero-valued
    // registrations into the next study's report in this process.
    const auto& registry = obs::MetricsRegistry::global();
    report.resolver.injected = registry.counter_value("resolver.upstream.fault");
    report.resolver.recovered =
        registry.counter_value("resolver.upstream.stale_served");
    report.resolver.surfaced =
        report.resolver.injected - report.resolver.recovered;
  } else {
    const auto cache_tally = cumulative_cache_tally();
    report.resolver.injected = cache_tally.upstream_faults;
    report.resolver.recovered = cache_tally.stale_served;
    report.resolver.surfaced =
        cache_tally.upstream_faults - cache_tally.stale_served;
  }
  return report;
}

PhaseCoverage Study::phase_coverage(const std::string& phase) {
  PhaseCoverage coverage;
  coverage.phase = phase;
  if (phase == "scan_campaign") {
    coverage.planned = static_cast<std::uint64_t>(config_.campaign.scan_count);
    coverage.completed = scans().size();
  } else if (phase == "doh_discovery") {
    (void)doh_discovery();
    coverage.planned = 1;
    coverage.completed = 1;
  } else if (phase == "doh_scan") {
    (void)doh_scan();
    coverage.planned = 1;
    coverage.completed = 1;
  } else if (phase == "local_probe") {
    coverage.planned = config_.local_probe.probe_count;
    coverage.completed = local_probe().probes;
  } else if (phase == "reachability_global") {
    const auto& r = reachability_global();
    coverage.planned = r.clients_planned;
    coverage.completed = r.clients;
  } else if (phase == "reachability_cn") {
    const auto& r = reachability_cn();
    coverage.planned = r.clients_planned;
    coverage.completed = r.clients;
  } else if (phase == "performance") {
    const auto& p = performance();
    coverage.planned = p.clients_planned;
    coverage.completed = p.clients_processed;
  } else if (phase == "no_reuse") {
    coverage.planned = config_.no_reuse.vantage_countries.size();
    coverage.completed = no_reuse().size();
  } else if (phase == "netflow") {
    const auto& n = netflow();
    coverage.planned = n.days_planned;
    coverage.completed = n.days_processed;
  } else if (phase == "netflow_trend") {
    const auto& t = netflow_trend();
    coverage.planned = t.days_planned;
    coverage.completed = t.days_processed;
  } else if (phase == "passive_dns") {
    (void)passive_dns();
    coverage.planned = 1;
    coverage.completed = 1;
  }
  return coverage;
}

std::vector<PhaseCoverage> Study::data_quality_report() {
  std::vector<PhaseCoverage> report;
  for (const auto& phase : canonical_phases())
    report.push_back(phase_coverage(phase));
  return report;
}

}  // namespace encdns::core
