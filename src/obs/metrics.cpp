#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <unordered_map>

namespace encdns::obs {
namespace {

std::atomic<bool> g_enabled{true};

/// llround is the one float->int step; it happens per-observation (not as a
/// running sum) so it is order-independent.
[[nodiscard]] std::int64_t to_us(double value_ms) noexcept {
  return static_cast<std::int64_t>(std::llround(value_ms * 1000.0));
}

/// Compact %.6g rendering for bucket edges — stable across platforms for
/// the small human-chosen edge values we use.
[[nodiscard]] std::string format_edge(double edge) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.6g", edge);
  return buf;
}

void append_json_string(std::string& out, std::string_view s) {
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      default: out += c; break;
    }
  }
  out += '"';
}

}  // namespace

bool enabled() noexcept { return g_enabled.load(std::memory_order_relaxed); }
void set_enabled(bool on) noexcept {
  g_enabled.store(on, std::memory_order_relaxed);
}

namespace detail {
std::size_t thread_shard() noexcept {
  static thread_local const std::size_t shard =
      std::hash<std::thread::id>{}(std::this_thread::get_id()) % kCounterShards;
  return shard;
}

constinit thread_local PhaseTally* t_tally = nullptr;
}  // namespace detail

// ---------------------------------------------------------------------------
// PhaseTally

struct PhaseTally::Shard {
  std::mutex mutex;
  std::unordered_map<const Counter*, std::uint64_t> counters;
  std::unordered_map<const Histogram*, HistAcc> histograms;
  std::unordered_map<const SpanStat*, SpanAcc> spans;
};

PhaseTally::PhaseTally()
    : shards_(std::make_unique<Shard[]>(detail::kCounterShards)) {}

PhaseTally::~PhaseTally() = default;

void PhaseTally::record_counter(const Counter* counter, std::uint64_t n) {
  Shard& shard = shards_[detail::thread_shard()];
  std::lock_guard lock(shard.mutex);
  shard.counters[counter] += n;
}

void PhaseTally::record_histogram(const Histogram* histogram, std::int64_t us,
                                  std::size_t bucket) {
  Shard& shard = shards_[detail::thread_shard()];
  std::lock_guard lock(shard.mutex);
  HistAcc& acc = shard.histograms[histogram];
  ++acc.count;
  acc.sum_us += static_cast<std::uint64_t>(us < 0 ? 0 : us);
  acc.min_us = std::min(acc.min_us, us);
  acc.max_us = std::max(acc.max_us, us);
  if (acc.buckets.size() <= bucket) acc.buckets.resize(bucket + 1, 0);
  ++acc.buckets[bucket];
}

void PhaseTally::record_histogram_delta(const Histogram* histogram,
                                        const HistogramSample& sample) {
  if (sample.count == 0) return;
  Shard& shard = shards_[detail::thread_shard()];
  std::lock_guard lock(shard.mutex);
  HistAcc& acc = shard.histograms[histogram];
  acc.count += sample.count;
  acc.sum_us += sample.sum_us;
  acc.min_us = std::min(acc.min_us, sample.min_us);
  acc.max_us = std::max(acc.max_us, sample.max_us);
  if (acc.buckets.size() < sample.buckets.size())
    acc.buckets.resize(sample.buckets.size(), 0);
  for (std::size_t i = 0; i < sample.buckets.size(); ++i)
    acc.buckets[i] += sample.buckets[i];
}

void PhaseTally::clear() {
  for (std::size_t s = 0; s < detail::kCounterShards; ++s) {
    Shard& shard = shards_[s];
    std::lock_guard lock(shard.mutex);
    shard.counters.clear();
    shard.histograms.clear();
    shard.spans.clear();
  }
}

void PhaseTally::record_span(const SpanStat* stat, std::uint64_t count,
                             std::uint64_t sim_us, std::uint64_t wall_ns) {
  if (count == 0 && sim_us == 0 && wall_ns == 0) return;
  Shard& shard = shards_[detail::thread_shard()];
  std::lock_guard lock(shard.mutex);
  SpanAcc& acc = shard.spans[stat];
  acc.count += count;
  acc.sim_us += sim_us;
  acc.wall_ns += wall_ns;
}

// ---------------------------------------------------------------------------
// Histogram

Histogram::Histogram(std::vector<double> bounds_ms, bool diagnostic)
    : bounds_ms_(std::move(bounds_ms)), diagnostic_(diagnostic) {
  bounds_us_.reserve(bounds_ms_.size());
  for (const double edge : bounds_ms_) bounds_us_.push_back(to_us(edge));
  buckets_ = std::make_unique<std::atomic<std::uint64_t>[]>(
      bounds_ms_.size() + 1);
  for (std::size_t i = 0; i <= bounds_ms_.size(); ++i)
    buckets_[i].store(0, std::memory_order_relaxed);
}

void Histogram::observe(double value_ms) noexcept {
  if (!enabled()) return;
  const std::int64_t us = to_us(value_ms);
  const auto it =
      std::lower_bound(bounds_us_.begin(), bounds_us_.end(), us);
  const auto index = static_cast<std::size_t>(it - bounds_us_.begin());
  buckets_[index].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_us_.fetch_add(static_cast<std::uint64_t>(us < 0 ? 0 : us),
                    std::memory_order_relaxed);
  std::int64_t seen = min_us_.load(std::memory_order_relaxed);
  while (us < seen &&
         !min_us_.compare_exchange_weak(seen, us, std::memory_order_relaxed)) {
  }
  seen = max_us_.load(std::memory_order_relaxed);
  while (us > seen &&
         !max_us_.compare_exchange_weak(seen, us, std::memory_order_relaxed)) {
  }
  if (detail::t_tally != nullptr)
    detail::t_tally->record_histogram(this, us, index);
}

void Histogram::accumulate(const HistogramSample& sample) {
  if (sample.count == 0) return;
  if (sample.buckets.size() != bounds_ms_.size() + 1)
    throw std::runtime_error("obs: histogram accumulate bucket-count mismatch");
  for (std::size_t i = 0; i <= bounds_ms_.size(); ++i)
    buckets_[i].fetch_add(sample.buckets[i], std::memory_order_relaxed);
  count_.fetch_add(sample.count, std::memory_order_relaxed);
  sum_us_.fetch_add(sample.sum_us, std::memory_order_relaxed);
  std::int64_t seen = min_us_.load(std::memory_order_relaxed);
  while (sample.min_us < seen &&
         !min_us_.compare_exchange_weak(seen, sample.min_us,
                                        std::memory_order_relaxed)) {
  }
  seen = max_us_.load(std::memory_order_relaxed);
  while (sample.max_us > seen &&
         !max_us_.compare_exchange_weak(seen, sample.max_us,
                                        std::memory_order_relaxed)) {
  }
  if (detail::t_tally != nullptr)
    detail::t_tally->record_histogram_delta(this, sample);
}

void Histogram::retract(const HistogramSample& sample) {
  if (sample.count == 0) return;
  if (sample.buckets.size() != bounds_ms_.size() + 1)
    throw std::runtime_error("obs: histogram retract bucket-count mismatch");
  for (std::size_t i = 0; i <= bounds_ms_.size(); ++i)
    buckets_[i].fetch_sub(sample.buckets[i], std::memory_order_relaxed);
  count_.fetch_sub(sample.count, std::memory_order_relaxed);
  sum_us_.fetch_sub(sample.sum_us, std::memory_order_relaxed);
  // min/max folds stay — see the header contract.
}

std::int64_t Histogram::min_us() const noexcept {
  return count() == 0 ? 0 : min_us_.load(std::memory_order_relaxed);
}

std::int64_t Histogram::max_us() const noexcept {
  return count() == 0 ? 0 : max_us_.load(std::memory_order_relaxed);
}

void Histogram::reset() noexcept {
  for (std::size_t i = 0; i <= bounds_ms_.size(); ++i)
    buckets_[i].store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_us_.store(0, std::memory_order_relaxed);
  min_us_.store(INT64_MAX, std::memory_order_relaxed);
  max_us_.store(INT64_MIN, std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// Registry

MetricsRegistry& MetricsRegistry::global() {
  static MetricsRegistry instance;
  return instance;
}

Counter& MetricsRegistry::counter(std::string_view name, bool diagnostic) {
  std::lock_guard lock(mutex_);
  const auto it = counters_.find(name);
  if (it != counters_.end()) return *it->second;
  return *counters_.emplace(std::string(name),
                            std::make_unique<Counter>(diagnostic))
              .first->second;
}

Gauge& MetricsRegistry::gauge(std::string_view name, bool diagnostic) {
  std::lock_guard lock(mutex_);
  const auto it = gauges_.find(name);
  if (it != gauges_.end()) return *it->second;
  return *gauges_.emplace(std::string(name),
                          std::make_unique<Gauge>(diagnostic))
              .first->second;
}

Histogram& MetricsRegistry::histogram(std::string_view name,
                                      std::vector<double> bounds_ms,
                                      bool diagnostic) {
  std::lock_guard lock(mutex_);
  const auto it = histograms_.find(name);
  if (it != histograms_.end()) return *it->second;
  return *histograms_
              .emplace(std::string(name),
                       std::make_unique<Histogram>(std::move(bounds_ms),
                                                   diagnostic))
              .first->second;
}

SpanStat& MetricsRegistry::span(std::string_view name) {
  std::lock_guard lock(mutex_);
  const auto it = spans_.find(name);
  if (it != spans_.end()) return *it->second;
  return *spans_.emplace(std::string(name), std::make_unique<SpanStat>())
              .first->second;
}

void MetricsRegistry::reset() {
  std::lock_guard lock(mutex_);
  for (auto& [name, counter] : counters_) counter->reset();
  for (auto& [name, gauge] : gauges_) gauge->reset();
  for (auto& [name, histogram] : histograms_) histogram->reset();
  for (auto& [name, span] : spans_) span->reset();
}

Snapshot MetricsRegistry::snapshot() const {
  std::lock_guard lock(mutex_);
  Snapshot snap;
  // std::map iteration is already canonical name order.
  for (const auto& [name, counter] : counters_)
    snap.counters.push_back({name, counter->value(), counter->diagnostic()});
  for (const auto& [name, gauge] : gauges_)
    snap.gauges.push_back({name, gauge->value(), gauge->diagnostic()});
  for (const auto& [name, histogram] : histograms_) {
    HistogramSample sample;
    sample.name = name;
    sample.bounds_ms = histogram->bounds_ms();
    sample.buckets.reserve(sample.bounds_ms.size() + 1);
    for (std::size_t i = 0; i <= sample.bounds_ms.size(); ++i)
      sample.buckets.push_back(histogram->bucket(i));
    sample.count = histogram->count();
    sample.sum_us = histogram->sum_us();
    sample.min_us = histogram->min_us();
    sample.max_us = histogram->max_us();
    sample.diagnostic = histogram->diagnostic();
    snap.histograms.push_back(std::move(sample));
  }
  for (const auto& [name, span] : spans_)
    snap.spans.push_back({name, span->count.load(std::memory_order_relaxed),
                          span->sim_us.load(std::memory_order_relaxed),
                          span->wall_ns.load(std::memory_order_relaxed)});
  return snap;
}

Snapshot MetricsRegistry::delta_snapshot(const PhaseTally& tally) const {
  std::lock_guard lock(mutex_);
  // The registry maps give canonical name order; the tally shards are merged
  // per metric, which keeps the result independent of which thread recorded
  // what. Shard mutexes are taken per lookup — callers guarantee recording
  // threads are quiescent, so this is belt-and-braces, not synchronisation.
  Snapshot snap;
  for (const auto& [name, counter] : counters_) {
    std::uint64_t total = 0;
    for (std::size_t s = 0; s < detail::kCounterShards; ++s) {
      PhaseTally::Shard& shard = tally.shards_[s];
      std::lock_guard shard_lock(shard.mutex);
      const auto it = shard.counters.find(counter.get());
      if (it != shard.counters.end()) total += it->second;
    }
    if (total != 0)
      snap.counters.push_back({name, total, counter->diagnostic()});
  }
  for (const auto& [name, histogram] : histograms_) {
    PhaseTally::HistAcc merged;
    for (std::size_t s = 0; s < detail::kCounterShards; ++s) {
      PhaseTally::Shard& shard = tally.shards_[s];
      std::lock_guard shard_lock(shard.mutex);
      const auto it = shard.histograms.find(histogram.get());
      if (it == shard.histograms.end()) continue;
      const PhaseTally::HistAcc& acc = it->second;
      merged.count += acc.count;
      merged.sum_us += acc.sum_us;
      merged.min_us = std::min(merged.min_us, acc.min_us);
      merged.max_us = std::max(merged.max_us, acc.max_us);
      if (merged.buckets.size() < acc.buckets.size())
        merged.buckets.resize(acc.buckets.size(), 0);
      for (std::size_t i = 0; i < acc.buckets.size(); ++i)
        merged.buckets[i] += acc.buckets[i];
    }
    if (merged.count == 0) continue;
    HistogramSample sample;
    sample.name = name;
    sample.bounds_ms = histogram->bounds_ms();
    merged.buckets.resize(sample.bounds_ms.size() + 1, 0);
    sample.buckets = std::move(merged.buckets);
    sample.count = merged.count;
    sample.sum_us = merged.sum_us;
    sample.min_us = merged.min_us;
    sample.max_us = merged.max_us;
    sample.diagnostic = histogram->diagnostic();
    snap.histograms.push_back(std::move(sample));
  }
  for (const auto& [name, span] : spans_) {
    PhaseTally::SpanAcc merged;
    for (std::size_t s = 0; s < detail::kCounterShards; ++s) {
      PhaseTally::Shard& shard = tally.shards_[s];
      std::lock_guard shard_lock(shard.mutex);
      const auto it = shard.spans.find(span.get());
      if (it == shard.spans.end()) continue;
      merged.count += it->second.count;
      merged.sim_us += it->second.sim_us;
      merged.wall_ns += it->second.wall_ns;
    }
    if (merged.count == 0 && merged.sim_us == 0 && merged.wall_ns == 0)
      continue;
    snap.spans.push_back({name, merged.count, merged.sim_us, merged.wall_ns});
  }
  return snap;
}

void MetricsRegistry::apply_delta(const Snapshot& delta) {
  for (const auto& c : delta.counters)
    counter(c.name, c.diagnostic).accumulate(c.value);
  for (const auto& h : delta.histograms)
    histogram(h.name, h.bounds_ms, h.diagnostic).accumulate(h);
  for (const auto& s : delta.spans) {
    SpanStat& stat = span(s.name);
    stat.count.fetch_add(s.count, std::memory_order_relaxed);
    stat.sim_us.fetch_add(s.sim_us, std::memory_order_relaxed);
    stat.wall_ns.fetch_add(s.wall_ns, std::memory_order_relaxed);
    if (detail::t_tally != nullptr)
      detail::t_tally->record_span(&stat, s.count, s.sim_us, s.wall_ns);
  }
  // Gauges carry point-in-time values, not deltas; nothing to apply.
}

void MetricsRegistry::retract_delta(const Snapshot& delta) {
  for (const auto& c : delta.counters)
    counter(c.name, c.diagnostic).retract(c.value);
  for (const auto& h : delta.histograms)
    histogram(h.name, h.bounds_ms, h.diagnostic).retract(h);
  for (const auto& s : delta.spans) {
    SpanStat& stat = span(s.name);
    stat.count.fetch_sub(s.count, std::memory_order_relaxed);
    stat.sim_us.fetch_sub(s.sim_us, std::memory_order_relaxed);
    stat.wall_ns.fetch_sub(s.wall_ns, std::memory_order_relaxed);
  }
}

void MetricsRegistry::register_skeleton(const Snapshot& snap) {
  // Get-or-create only — sample values are deliberately ignored (a skeleton
  // record's values are a mid-run mixture across overlapping phases).
  for (const auto& c : snap.counters) (void)counter(c.name, c.diagnostic);
  for (const auto& g : snap.gauges) (void)gauge(g.name, g.diagnostic);
  for (const auto& h : snap.histograms)
    (void)histogram(h.name, h.bounds_ms, h.diagnostic);
  for (const auto& s : snap.spans) (void)span(s.name);
}

void merge_delta(Snapshot& into, const Snapshot& from) {
  // Both inputs are name-sorted (delta_snapshot order); classic two-pointer
  // merges keep the result sorted without re-sorting.
  std::vector<CounterSample> counters;
  counters.reserve(into.counters.size() + from.counters.size());
  {
    std::size_t i = 0, j = 0;
    while (i < into.counters.size() || j < from.counters.size()) {
      if (j >= from.counters.size() ||
          (i < into.counters.size() &&
           into.counters[i].name < from.counters[j].name)) {
        counters.push_back(std::move(into.counters[i++]));
      } else if (i >= into.counters.size() ||
                 from.counters[j].name < into.counters[i].name) {
        counters.push_back(from.counters[j++]);
      } else {
        CounterSample merged = std::move(into.counters[i++]);
        merged.value += from.counters[j++].value;
        counters.push_back(std::move(merged));
      }
    }
  }
  into.counters = std::move(counters);

  std::vector<HistogramSample> histograms;
  histograms.reserve(into.histograms.size() + from.histograms.size());
  {
    std::size_t i = 0, j = 0;
    while (i < into.histograms.size() || j < from.histograms.size()) {
      if (j >= from.histograms.size() ||
          (i < into.histograms.size() &&
           into.histograms[i].name < from.histograms[j].name)) {
        histograms.push_back(std::move(into.histograms[i++]));
      } else if (i >= into.histograms.size() ||
                 from.histograms[j].name < into.histograms[i].name) {
        histograms.push_back(from.histograms[j++]);
      } else {
        HistogramSample merged = std::move(into.histograms[i++]);
        const HistogramSample& other = from.histograms[j++];
        if (merged.buckets.size() < other.buckets.size())
          merged.buckets.resize(other.buckets.size(), 0);
        for (std::size_t b = 0; b < other.buckets.size(); ++b)
          merged.buckets[b] += other.buckets[b];
        // Empty samples never appear in deltas, so min/max are real values.
        merged.min_us = std::min(merged.min_us, other.min_us);
        merged.max_us = std::max(merged.max_us, other.max_us);
        merged.count += other.count;
        merged.sum_us += other.sum_us;
        histograms.push_back(std::move(merged));
      }
    }
  }
  into.histograms = std::move(histograms);

  std::vector<SpanSample> spans;
  spans.reserve(into.spans.size() + from.spans.size());
  {
    std::size_t i = 0, j = 0;
    while (i < into.spans.size() || j < from.spans.size()) {
      if (j >= from.spans.size() ||
          (i < into.spans.size() && into.spans[i].name < from.spans[j].name)) {
        spans.push_back(std::move(into.spans[i++]));
      } else if (i >= into.spans.size() ||
                 from.spans[j].name < into.spans[i].name) {
        spans.push_back(from.spans[j++]);
      } else {
        SpanSample merged = std::move(into.spans[i++]);
        const SpanSample& other = from.spans[j++];
        merged.count += other.count;
        merged.sim_us += other.sim_us;
        merged.wall_ns += other.wall_ns;
        spans.push_back(std::move(merged));
      }
    }
  }
  into.spans = std::move(spans);
}

// ---------------------------------------------------------------------------
// Exporters

std::string Snapshot::to_json(bool include_diagnostic) const {
  std::string out;
  out.reserve(4096);
  out += "{\n  \"schema\": \"encdns.obs.v1\",\n  \"counters\": {";
  bool first = true;
  for (const auto& c : counters) {
    if (c.diagnostic && !include_diagnostic) continue;
    out += first ? "\n" : ",\n";
    first = false;
    out += "    ";
    append_json_string(out, c.name);
    out += ": " + std::to_string(c.value);
  }
  out += first ? "},\n" : "\n  },\n";
  out += "  \"gauges\": {";
  first = true;
  for (const auto& g : gauges) {
    if (g.diagnostic && !include_diagnostic) continue;
    out += first ? "\n" : ",\n";
    first = false;
    out += "    ";
    append_json_string(out, g.name);
    out += ": " + std::to_string(g.value);
  }
  out += first ? "},\n" : "\n  },\n";
  out += "  \"histograms\": {";
  first = true;
  for (const auto& h : histograms) {
    if (h.diagnostic && !include_diagnostic) continue;
    out += first ? "\n" : ",\n";
    first = false;
    out += "    ";
    append_json_string(out, h.name);
    out += ": {\"count\": " + std::to_string(h.count);
    out += ", \"sum_us\": " + std::to_string(h.sum_us);
    out += ", \"min_us\": " + std::to_string(h.min_us);
    out += ", \"max_us\": " + std::to_string(h.max_us);
    out += ", \"buckets\": [";
    for (std::size_t i = 0; i < h.buckets.size(); ++i) {
      if (i) out += ", ";
      out += "{\"le\": \"";
      out += i < h.bounds_ms.size() ? format_edge(h.bounds_ms[i]) : "+inf";
      out += "\", \"count\": " + std::to_string(h.buckets[i]) + "}";
    }
    out += "]}";
  }
  out += first ? "},\n" : "\n  },\n";
  out += "  \"spans\": [";
  first = true;
  for (const auto& s : spans) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    {\"name\": ";
    append_json_string(out, s.name);
    out += ", \"count\": " + std::to_string(s.count);
    out += ", \"sim_us\": " + std::to_string(s.sim_us);
    if (include_diagnostic)
      out += ", \"wall_ns\": " + std::to_string(s.wall_ns);
    out += "}";
  }
  out += first ? "]\n}\n" : "\n  ]\n}\n";
  return out;
}

std::string Snapshot::to_text() const {
  std::ostringstream out;
  out << "== metrics ==\n";
  for (const auto& c : counters)
    out << "  " << c.name << " = " << c.value
        << (c.diagnostic ? "  (diagnostic)" : "") << "\n";
  for (const auto& g : gauges)
    out << "  " << g.name << " = " << g.value
        << (g.diagnostic ? "  (diagnostic)" : "") << "\n";
  out << "== histograms ==\n";
  for (const auto& h : histograms) {
    out << "  " << h.name << ": count=" << h.count << " sum=" << h.sum_us
        << "us min=" << h.min_us << "us max=" << h.max_us << "us"
        << (h.diagnostic ? "  (diagnostic)" : "") << "\n";
    for (std::size_t i = 0; i < h.buckets.size(); ++i) {
      if (h.buckets[i] == 0) continue;
      out << "    le "
          << (i < h.bounds_ms.size() ? format_edge(h.bounds_ms[i]) + "ms"
                                     : std::string("+inf"))
          << ": " << h.buckets[i] << "\n";
    }
  }
  out << "== spans (sim time) ==\n";
  for (const auto& s : spans) {
    // Indent by dotted depth so the sorted list reads as the trace tree.
    const auto depth =
        static_cast<std::size_t>(std::count(s.name.begin(), s.name.end(), '.'));
    out << "  " << std::string(2 * depth, ' ') << s.name << ": n=" << s.count
        << " sim=" << s.sim_us / 1000 << "ms wall=" << s.wall_ns / 1000000
        << "ms\n";
  }
  return out.str();
}

const std::vector<double>& latency_buckets_ms() {
  static const std::vector<double> buckets{1,   2,   5,    10,   20,  50,
                                           100, 200, 500,  1000, 2000, 5000};
  return buckets;
}

}  // namespace encdns::obs
