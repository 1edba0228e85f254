#include "core/checkpoint/checkpoint.hpp"

#include <utility>

#include "dns/message.hpp"

namespace encdns::core {
namespace {

constexpr std::uint8_t kKindPhase = 1;
constexpr std::uint8_t kKindPartial = 2;
// Delta family (task-graph mode, DESIGN.md §15): same layout for both —
// kind, owned-platform cursor, the phase's own metrics delta, state blob.
constexpr std::uint8_t kKindPhaseDelta = 3;
constexpr std::uint8_t kKindPartialDelta = 4;
// Registry name skeleton refreshed at every delta commit: names, diagnostic
// flags and bucket bounds of everything registered so far. Values are a
// mid-run mixture across overlapping phases and are ignored on load — the
// record exists so a resume can re-register the zero-valued metrics a
// loaded phase's code would have created (delta records skip zeros).
constexpr std::uint8_t kKindSkeleton = 5;
constexpr const char* kSkeletonKey = "obs:skeleton";

void encode_proxy_cursor(util::ByteWriter& w, const proxy::ProxyCursor& c) {
  for (const std::uint64_t word : c.rng.words) w.u64(word);
  w.f64(c.rng.cached_normal);
  w.boolean(c.rng.has_cached_normal);
  w.u64(c.next_id);
}

[[nodiscard]] proxy::ProxyCursor decode_proxy_cursor(util::ByteReader& r) {
  proxy::ProxyCursor c;
  for (auto& word : c.rng.words) word = r.u64();
  c.rng.cached_normal = r.f64();
  c.rng.has_cached_normal = r.boolean();
  c.next_id = r.u64();
  return c;
}

[[nodiscard]] std::string phase_key(const std::string& phase) {
  return "phase:" + phase;
}
[[nodiscard]] std::string partial_key(const std::string& phase) {
  return "partial:" + phase;
}

}  // namespace

const std::vector<std::string>& canonical_phases() {
  static const std::vector<std::string> phases{
      "scan_campaign",       "doh_discovery", "doh_scan",
      "local_probe",         "reachability_global", "reachability_cn",
      "performance",         "no_reuse",      "netflow",
      "netflow_trend",       "passive_dns"};
  return phases;
}

void encode_cursor(util::ByteWriter& w, const WorldCursor& cursor) {
  encode_proxy_cursor(w, cursor.global_platform);
  encode_proxy_cursor(w, cursor.cn_platform);
  w.u64(cursor.cache_tally.hits);
  w.u64(cursor.cache_tally.misses);
  w.u64(cursor.cache_tally.stale_served);
  w.u64(cursor.cache_tally.upstream_faults);
  w.u64(cursor.cache_tally.evictions);
  w.u64(cursor.cache_tally.entries);
  // Cached answers travel as the wire bytes their cache slots hold
  // (cache::encode_answer(): an RFC 1035 message with the rcode in the
  // header and the records in the answer section), copied through as is.
  w.u32(static_cast<std::uint32_t>(cursor.caches.size()));
  for (const auto& backend_cache : cursor.caches) {
    w.u32(static_cast<std::uint32_t>(backend_cache.size()));
    for (const auto& entry : backend_cache) {
      w.str(entry.key);
      w.i64(entry.expiry_s);
      w.blob(entry.wire);
    }
  }
}

WorldCursor decode_cursor(util::ByteReader& r) {
  WorldCursor cursor;
  cursor.global_platform = decode_proxy_cursor(r);
  cursor.cn_platform = decode_proxy_cursor(r);
  cursor.cache_tally.hits = r.u64();
  cursor.cache_tally.misses = r.u64();
  cursor.cache_tally.stale_served = r.u64();
  cursor.cache_tally.upstream_faults = r.u64();
  cursor.cache_tally.evictions = r.u64();
  cursor.cache_tally.entries = r.u64();
  const std::uint32_t n_backends = r.count(4);
  cursor.caches.reserve(n_backends);
  // Restore copies these bytes straight into cache slots, so every blob
  // must pass the DNS decoder here, where a malformed one still fails the
  // journal closed.
  std::vector<dns::ResourceRecord> scratch;
  for (std::uint32_t b = 0; b < n_backends; ++b) {
    std::vector<cache::ExportedEntry> backend_cache;
    const std::uint32_t n_entries = r.count(16);
    backend_cache.reserve(n_entries);
    for (std::uint32_t i = 0; i < n_entries; ++i) {
      cache::ExportedEntry entry;
      entry.key = r.str();
      entry.expiry_s = r.i64();
      entry.wire = r.blob();
      dns::RCode rcode = dns::RCode::kNoError;
      if (!cache::decode_answer_into(entry.wire, rcode, scratch))
        throw util::CodecError("cache entry: malformed wire message");
      backend_cache.push_back(std::move(entry));
    }
    cursor.caches.push_back(std::move(backend_cache));
  }
  return cursor;
}

void encode_metrics(util::ByteWriter& w, const obs::Snapshot& snap) {
  w.u32(static_cast<std::uint32_t>(snap.counters.size()));
  for (const auto& c : snap.counters) {
    w.str(c.name);
    w.u64(c.value);
    w.boolean(c.diagnostic);
  }
  w.u32(static_cast<std::uint32_t>(snap.gauges.size()));
  for (const auto& g : snap.gauges) {
    w.str(g.name);
    w.i64(g.value);
    w.boolean(g.diagnostic);
  }
  w.u32(static_cast<std::uint32_t>(snap.histograms.size()));
  for (const auto& h : snap.histograms) {
    w.str(h.name);
    w.u32(static_cast<std::uint32_t>(h.bounds_ms.size()));
    for (const double edge : h.bounds_ms) w.f64(edge);
    w.u32(static_cast<std::uint32_t>(h.buckets.size()));
    for (const std::uint64_t bucket : h.buckets) w.u64(bucket);
    w.u64(h.count);
    w.u64(h.sum_us);
    w.i64(h.min_us);
    w.i64(h.max_us);
    w.boolean(h.diagnostic);
  }
  w.u32(static_cast<std::uint32_t>(snap.spans.size()));
  for (const auto& s : snap.spans) {
    w.str(s.name);
    w.u64(s.count);
    w.u64(s.sim_us);
    w.u64(s.wall_ns);
  }
}

obs::Snapshot decode_metrics(util::ByteReader& r) {
  obs::Snapshot snap;
  const std::uint32_t n_counters = r.count(6);
  snap.counters.reserve(n_counters);
  for (std::uint32_t i = 0; i < n_counters; ++i) {
    obs::CounterSample c;
    c.name = r.str();
    c.value = r.u64();
    c.diagnostic = r.boolean();
    snap.counters.push_back(std::move(c));
  }
  const std::uint32_t n_gauges = r.count(6);
  snap.gauges.reserve(n_gauges);
  for (std::uint32_t i = 0; i < n_gauges; ++i) {
    obs::GaugeSample g;
    g.name = r.str();
    g.value = r.i64();
    g.diagnostic = r.boolean();
    snap.gauges.push_back(std::move(g));
  }
  const std::uint32_t n_histograms = r.count(8);
  snap.histograms.reserve(n_histograms);
  for (std::uint32_t i = 0; i < n_histograms; ++i) {
    obs::HistogramSample h;
    h.name = r.str();
    const std::uint32_t n_bounds = r.count(8);
    h.bounds_ms.reserve(n_bounds);
    for (std::uint32_t b = 0; b < n_bounds; ++b) h.bounds_ms.push_back(r.f64());
    const std::uint32_t n_buckets = r.count(8);
    h.buckets.reserve(n_buckets);
    for (std::uint32_t b = 0; b < n_buckets; ++b) h.buckets.push_back(r.u64());
    h.count = r.u64();
    h.sum_us = r.u64();
    h.min_us = r.i64();
    h.max_us = r.i64();
    h.diagnostic = r.boolean();
    snap.histograms.push_back(std::move(h));
  }
  const std::uint32_t n_spans = r.count(8);
  snap.spans.reserve(n_spans);
  for (std::uint32_t i = 0; i < n_spans; ++i) {
    obs::SpanSample s;
    s.name = r.str();
    s.count = r.u64();
    s.sim_us = r.u64();
    s.wall_ns = r.u64();
    snap.spans.push_back(std::move(s));
  }
  return snap;
}

// ---------------------------------------------------------------------------

class PhaseHookImpl : public exec::CheckpointHook {
 public:
  PhaseHookImpl(StudyCheckpoint* owner, std::string phase, WorldCursor pre,
                std::function<WorldCursor()> capture)
      : owner_(owner),
        phase_(std::move(phase)),
        pre_(std::move(pre)),
        capture_(std::move(capture)) {}

  std::optional<std::vector<std::uint8_t>> load() override {
    std::lock_guard<std::mutex> guard(owner_->mutex_);
    const Journal::Record* record =
        owner_->journal_.find_last(partial_key(phase_));
    if (record == nullptr) return std::nullopt;
    try {
      util::ByteReader r(record->body);
      if (r.u8() != kKindPartial)
        throw util::CodecError("partial record has wrong kind tag");
      (void)decode_cursor(r);  // already applied before the phase started
      const obs::Snapshot snap = decode_metrics(r);
      std::vector<std::uint8_t> state = r.blob();
      r.expect_done();
      obs::MetricsRegistry::global().restore(snap);
      return state;
    } catch (const util::CodecError& e) {
      throw JournalError(std::string("checkpoint: corrupt partial record (") +
                         e.what() + ")");
    }
  }

  void save(const std::vector<std::uint8_t>& state) override {
    // Hybrid cursor: recruitment rewinds to the phase start (the prologue
    // re-runs on resume), but cache contents and tally are captured NOW —
    // the blocks committed so far never re-run, so their cache stores must
    // be part of what the resumed process restores.
    WorldCursor at_save = capture_();
    at_save.global_platform = pre_.global_platform;
    at_save.cn_platform = pre_.cn_platform;
    util::ByteWriter w;
    w.u8(kKindPartial);
    encode_cursor(w, at_save);
    encode_metrics(w, obs::MetricsRegistry::global().snapshot());
    w.blob(state);
    std::lock_guard<std::mutex> guard(owner_->mutex_);
    owner_->journal_.append(partial_key(phase_), w.take());
    owner_->journal_.commit();
  }

 private:
  StudyCheckpoint* owner_;
  std::string phase_;
  WorldCursor pre_;
  std::function<WorldCursor()> capture_;
};

// ---------------------------------------------------------------------------

/// Delta-family twin of PhaseHookImpl (task-graph mode). The metrics half of
/// a record is the phase's own delta instead of the global registry: load()
/// re-applies it additively and save() snapshots the calling thread's
/// PhaseTally, so overlapping phases never see each other's numbers.
class PhaseDeltaHookImpl : public exec::CheckpointHook {
 public:
  PhaseDeltaHookImpl(StudyCheckpoint* owner, std::string phase, WorldCursor pre,
                     std::function<WorldCursor()> capture)
      : owner_(owner),
        phase_(std::move(phase)),
        pre_(std::move(pre)),
        capture_(std::move(capture)) {}

  std::optional<std::vector<std::uint8_t>> load() override {
    auto loaded = owner_->load_partial_delta(phase_);
    if (!loaded) return std::nullopt;
    auto& registry = obs::MetricsRegistry::global();
    // The phase re-executed its prologue (e.g. the platform batch
    // re-acquisition) before asking for the checkpoint — work the saved
    // delta already accounts for. Serial mode wipes the duplicate with its
    // absolute restore; the additive protocol retracts exactly what this
    // phase recorded so far and restarts its tally from the delta.
    if (obs::PhaseTally* tally = obs::current_tally()) {
      registry.retract_delta(registry.delta_snapshot(*tally));
      tally->clear();
    }
    // Additive restore: lands in the global registry *and* in the calling
    // thread's current tally, so the resumed phase's final delta covers the
    // killed run's committed blocks too.
    registry.apply_delta(loaded->delta);
    return std::move(loaded->state);
  }

  void save(const std::vector<std::uint8_t>& state) override {
    // Same hybrid cursor rule as the serial hook: platform position rewinds
    // to the phase start, cache contents ride along from NOW.
    WorldCursor at_save = capture_();
    at_save.global_platform = pre_.global_platform;
    at_save.cn_platform = pre_.cn_platform;
    obs::Snapshot delta;
    if (const obs::PhaseTally* tally = obs::current_tally())
      delta = obs::MetricsRegistry::global().delta_snapshot(*tally);
    util::ByteWriter w;
    w.u8(kKindPartialDelta);
    encode_cursor(w, at_save);
    encode_metrics(w, delta);
    w.blob(state);
    std::lock_guard<std::mutex> guard(owner_->mutex_);
    owner_->journal_.append(partial_key(phase_), w.take());
    owner_->journal_.commit();
  }

 private:
  StudyCheckpoint* owner_;
  std::string phase_;
  WorldCursor pre_;
  std::function<WorldCursor()> capture_;
};

// ---------------------------------------------------------------------------

StudyCheckpoint::StudyCheckpoint(std::string dir, std::uint64_t fingerprint,
                                 bool resume)
    : journal_(std::move(dir), fingerprint, resume) {
  for (const auto& record : journal_.records())
    if (record.key.starts_with("phase:"))
      committed_.emplace(record.key.substr(6));
}

std::optional<StudyCheckpoint::LoadedPhase> StudyCheckpoint::load_phase(
    const std::string& phase) {
  std::lock_guard<std::mutex> guard(mutex_);
  const Journal::Record* record = journal_.find_last(phase_key(phase));
  if (record == nullptr) return std::nullopt;
  try {
    util::ByteReader r(record->body);
    if (r.u8() != kKindPhase)
      throw util::CodecError("phase record has wrong kind tag");
    const bool ordered = r.boolean();
    LoadedPhase loaded;
    loaded.cursor = decode_cursor(r);
    const obs::Snapshot snap = decode_metrics(r);
    loaded.state = r.blob();
    r.expect_done();
    if (ordered) obs::MetricsRegistry::global().restore(snap);
    return loaded;
  } catch (const util::CodecError& e) {
    throw JournalError(std::string("checkpoint: corrupt phase record (") +
                       e.what() + ")");
  }
}

std::optional<WorldCursor> StudyCheckpoint::partial_pre_cursor(
    const std::string& phase) const {
  std::lock_guard<std::mutex> guard(mutex_);
  const Journal::Record* record = journal_.find_last(partial_key(phase));
  if (record == nullptr) return std::nullopt;
  try {
    util::ByteReader r(record->body);
    if (r.u8() != kKindPartial)
      throw util::CodecError("partial record has wrong kind tag");
    return decode_cursor(r);
  } catch (const util::CodecError& e) {
    throw JournalError(std::string("checkpoint: corrupt partial record (") +
                       e.what() + ")");
  }
}

void StudyCheckpoint::commit_phase(const std::string& phase,
                                   const std::vector<std::uint8_t>& state,
                                   const WorldCursor& cursor) {
  std::lock_guard<std::mutex> guard(mutex_);
  bool ordered = true;
  for (const auto& predecessor : canonical_phases()) {
    if (predecessor == phase) break;
    if (committed_.find(predecessor) == committed_.end()) {
      ordered = false;
      break;
    }
  }
  util::ByteWriter w;
  w.u8(kKindPhase);
  w.boolean(ordered);
  encode_cursor(w, cursor);
  encode_metrics(w, obs::MetricsRegistry::global().snapshot());
  w.blob(state);
  journal_.append(phase_key(phase), w.take());
  journal_.commit();
  committed_.insert(phase);
}

std::unique_ptr<exec::CheckpointHook> StudyCheckpoint::phase_hook(
    const std::string& phase, const WorldCursor& pre_cursor,
    std::function<WorldCursor()> capture) {
  return std::make_unique<PhaseHookImpl>(this, phase, pre_cursor,
                                         std::move(capture));
}

// --- task-graph (delta) protocol -------------------------------------------

namespace {

[[nodiscard]] StudyCheckpoint::LoadedDelta decode_delta_record(
    const Journal::Record& record, std::uint8_t expected_kind,
    const char* what) {
  try {
    util::ByteReader r(record.body);
    if (r.u8() != expected_kind)
      throw util::CodecError(std::string(what) + " record has wrong kind tag");
    StudyCheckpoint::LoadedDelta loaded;
    loaded.cursor = decode_cursor(r);
    loaded.delta = decode_metrics(r);
    loaded.state = r.blob();
    r.expect_done();
    return loaded;
  } catch (const util::CodecError& e) {
    throw JournalError(std::string("checkpoint: corrupt ") + what +
                       " record (" + e.what() + ")");
  }
}

}  // namespace

std::optional<StudyCheckpoint::LoadedDelta> StudyCheckpoint::load_phase_delta(
    const std::string& phase) {
  std::lock_guard<std::mutex> guard(mutex_);
  const Journal::Record* record = journal_.find_last(phase_key(phase));
  if (record == nullptr) return std::nullopt;
  return decode_delta_record(*record, kKindPhaseDelta, "phase-delta");
}

bool StudyCheckpoint::has_partial(const std::string& phase) const {
  std::lock_guard<std::mutex> guard(mutex_);
  return journal_.find_last(partial_key(phase)) != nullptr;
}

std::optional<StudyCheckpoint::LoadedDelta> StudyCheckpoint::load_partial_delta(
    const std::string& phase) {
  std::lock_guard<std::mutex> guard(mutex_);
  const Journal::Record* record = journal_.find_last(partial_key(phase));
  if (record == nullptr) return std::nullopt;
  return decode_delta_record(*record, kKindPartialDelta, "partial-delta");
}

void StudyCheckpoint::commit_phase_delta(const std::string& phase,
                                         const std::vector<std::uint8_t>& state,
                                         const WorldCursor& cursor,
                                         const obs::Snapshot& delta) {
  util::ByteWriter w;
  w.u8(kKindPhaseDelta);
  encode_cursor(w, cursor);
  encode_metrics(w, delta);
  w.blob(state);
  // Refresh the name skeleton in the same commit so any journal that holds
  // a committed delta record also names every metric registered by then.
  util::ByteWriter skeleton;
  skeleton.u8(kKindSkeleton);
  encode_metrics(skeleton, obs::MetricsRegistry::global().snapshot());
  std::lock_guard<std::mutex> guard(mutex_);
  journal_.append(phase_key(phase), w.take());
  journal_.append(kSkeletonKey, skeleton.take());
  journal_.commit();
  committed_.insert(phase);
}

std::optional<obs::Snapshot> StudyCheckpoint::load_skeleton() {
  std::lock_guard<std::mutex> guard(mutex_);
  const Journal::Record* record = journal_.find_last(kSkeletonKey);
  if (record == nullptr) return std::nullopt;
  try {
    util::ByteReader r(record->body);
    if (r.u8() != kKindSkeleton)
      throw util::CodecError("skeleton record has wrong kind tag");
    obs::Snapshot snap = decode_metrics(r);
    r.expect_done();
    return snap;
  } catch (const util::CodecError& e) {
    throw JournalError(std::string("checkpoint: corrupt skeleton record (") +
                       e.what() + ")");
  }
}

std::unique_ptr<exec::CheckpointHook> StudyCheckpoint::phase_delta_hook(
    const std::string& phase, const WorldCursor& pre_cursor,
    std::function<WorldCursor()> capture) {
  return std::make_unique<PhaseDeltaHookImpl>(this, phase, pre_cursor,
                                              std::move(capture));
}

}  // namespace encdns::core
