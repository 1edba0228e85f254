// Deterministic observability: named counters, gauges and fixed-bucket
// histograms behind one process-wide MetricsRegistry.
//
// The determinism contract mirrors the exec/fault layers: every metric a
// worker thread touches is commutative (unsigned adds, integer min/max,
// bucket increments), so the merged totals are bit-identical for any thread
// count. Counters are sharded across cache-line-padded atomics and summed
// in canonical shard order at snapshot time; histograms store their sum as
// scaled integer microseconds so no order-dependent floating-point addition
// ever happens on a hot path.
//
// Metrics that *are* inherently thread-dependent (steal counts, queue
// peaks, wall-clock timings) are registered with `diagnostic = true`: they
// appear in the human-readable text report but are excluded from the
// stable JSON export, which is the surface the thread-count-invariance
// acceptance test locks down byte-for-byte.
//
// Naming convention (DESIGN.md §9): dotted lower_snake path
// `<module>.<unit>.<what>`, e.g. "scan.sweep.probes", "exec.tasks",
// "measure.reach.rtt_ms". Histogram names end in their unit.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace encdns::obs {

/// Global instrumentation switch. When false every record path is a single
/// relaxed load + branch, which is what the bench_micro_obs <2% overhead
/// guard measures. Defaults to enabled.
[[nodiscard]] bool enabled() noexcept;
void set_enabled(bool on) noexcept;

class Counter;
class Histogram;
struct HistogramSample;
struct SpanStat;

/// Per-phase delta accumulator for the task-graph executor (DESIGN.md §15).
///
/// When study phases overlap, the global registry only ever holds the *sum*
/// of everything in flight — the per-phase breakdown the PhaseProfiler and
/// the checkpoint delta records need has to be attributed at the record
/// site. A PhaseTally is installed thread-locally (ScopedTally) around a
/// phase's code; every Counter::add / Histogram::observe / SpanScope flush
/// that happens under it is mirrored into the tally, keyed by metric
/// pointer (stable for the process lifetime). Tallies are mutex-sharded by
/// the same fixed thread-shard index the counters use, so worker threads
/// from one phase rarely contend and threads never share an entry stream —
/// the per-shard maps are merged in canonical name order at snapshot time,
/// which keeps the deltas bit-identical at any thread count.
///
/// Gauges are deliberately not tallied: a point-in-time max is not
/// delta-decomposable, and every current gauge is diagnostic-only.
class PhaseTally {
 public:
  PhaseTally();
  ~PhaseTally();
  PhaseTally(const PhaseTally&) = delete;
  PhaseTally& operator=(const PhaseTally&) = delete;

  void record_counter(const Counter* counter, std::uint64_t n);
  void record_histogram(const Histogram* histogram, std::int64_t us,
                        std::size_t bucket);
  /// Fold a whole pre-aggregated histogram delta in (checkpoint replay).
  void record_histogram_delta(const Histogram* histogram,
                              const HistogramSample& sample);
  void record_span(const SpanStat* stat, std::uint64_t count,
                   std::uint64_t sim_us, std::uint64_t wall_ns);

  /// Drop everything recorded so far (checkpoint delta retraction: a phase
  /// that re-executed its prologue before loading a partial restarts its
  /// attribution from the saved delta).
  void clear();

 private:
  friend class MetricsRegistry;
  struct HistAcc {
    std::uint64_t count = 0;
    std::uint64_t sum_us = 0;
    std::int64_t min_us = INT64_MAX;
    std::int64_t max_us = INT64_MIN;
    std::vector<std::uint64_t> buckets;  // grown lazily to the touched index
  };
  struct SpanAcc {
    std::uint64_t count = 0;
    std::uint64_t sim_us = 0;
    std::uint64_t wall_ns = 0;
  };
  struct Shard;
  std::unique_ptr<Shard[]> shards_;
};

namespace detail {
/// Stable small shard index for the calling thread. The count is fixed (not
/// the worker count) so shard *assignment* never affects totals — addition
/// is commutative — only contention.
inline constexpr std::size_t kCounterShards = 16;
[[nodiscard]] std::size_t thread_shard() noexcept;

/// The phase tally (if any) attributed to the calling thread. Workers
/// executing a pool job inherit the submitting phase's tally for the span
/// of each shard (exec::WorkerPool installs it via ScopedTally). constinit
/// tells every including unit that the variable has no dynamic initializer,
/// so accesses skip GCC's TLS wrapper function; through the wrapper, a
/// -fsanitize=undefined build reported ScopedTally's store as a store to a
/// null pointer.
extern constinit thread_local PhaseTally* t_tally;
}  // namespace detail

/// The tally currently attributed to this thread, or nullptr.
[[nodiscard]] inline PhaseTally* current_tally() noexcept {
  return detail::t_tally;
}

/// RAII: attribute this thread's metric activity to `tally` (may be null to
/// suspend attribution); restores the previous attribution on destruction.
class ScopedTally {
 public:
  explicit ScopedTally(PhaseTally* tally) noexcept
      : prev_(detail::t_tally) {
    detail::t_tally = tally;
  }
  ~ScopedTally() { detail::t_tally = prev_; }
  ScopedTally(const ScopedTally&) = delete;
  ScopedTally& operator=(const ScopedTally&) = delete;

 private:
  PhaseTally* prev_;
};

/// Monotonic counter, sharded to keep parallel-phase increments off a
/// single contended cache line. Values are merged in canonical shard order.
class Counter {
 public:
  explicit Counter(bool diagnostic) noexcept : diagnostic_(diagnostic) {}
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void add(std::uint64_t n = 1) noexcept {
    if (!enabled()) return;
    shards_[detail::thread_shard()].value.fetch_add(n,
                                                    std::memory_order_relaxed);
    if (n != 0 && detail::t_tally != nullptr)
      detail::t_tally->record_counter(this, n);
  }

  /// As add(), but bypasses the enabled() gate: the checkpoint-resume path
  /// (MetricsRegistry::apply_delta) must land its increments even if a
  /// caller disabled instrumentation, and it must stay atomic because other
  /// phases may be incrementing concurrently.
  void accumulate(std::uint64_t n) noexcept {
    shards_[detail::thread_shard()].value.fetch_add(n,
                                                    std::memory_order_relaxed);
    if (n != 0 && detail::t_tally != nullptr)
      detail::t_tally->record_counter(this, n);
  }

  [[nodiscard]] std::uint64_t value() const noexcept {
    std::uint64_t total = 0;
    for (const auto& shard : shards_)
      total += shard.value.load(std::memory_order_relaxed);
    return total;
  }

  /// Subtract a previously recorded amount (MetricsRegistry::retract_delta).
  /// A single shard may wrap, but value() sums modulo 2^64, so the merged
  /// total stays exact. Never mirrored into a tally.
  void retract(std::uint64_t n) noexcept {
    shards_[detail::thread_shard()].value.fetch_sub(n,
                                                    std::memory_order_relaxed);
  }

  void reset() noexcept {
    for (auto& shard : shards_) shard.value.store(0, std::memory_order_relaxed);
  }

  [[nodiscard]] bool diagnostic() const noexcept { return diagnostic_; }

 private:
  struct alignas(64) Shard {
    std::atomic<std::uint64_t> value{0};
  };
  Shard shards_[detail::kCounterShards];
  bool diagnostic_;
};

/// Point-in-time signed value. set()/add() are intended for serial sections;
/// set_max() is safe from workers (integer max is commutative) and is what
/// the exec queue-occupancy peak uses.
class Gauge {
 public:
  explicit Gauge(bool diagnostic) noexcept : diagnostic_(diagnostic) {}
  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

  void set(std::int64_t v) noexcept {
    if (!enabled()) return;
    value_.store(v, std::memory_order_relaxed);
  }
  void add(std::int64_t v) noexcept {
    if (!enabled()) return;
    value_.fetch_add(v, std::memory_order_relaxed);
  }
  void set_max(std::int64_t v) noexcept {
    if (!enabled()) return;
    std::int64_t seen = value_.load(std::memory_order_relaxed);
    while (v > seen &&
           !value_.compare_exchange_weak(seen, v, std::memory_order_relaxed)) {
    }
  }

  [[nodiscard]] std::int64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { value_.store(0, std::memory_order_relaxed); }
  [[nodiscard]] bool diagnostic() const noexcept { return diagnostic_; }

 private:
  std::atomic<std::int64_t> value_{0};
  bool diagnostic_;
};

struct HistogramSample;

/// Fixed-bucket latency histogram. Bounds are upper edges in milliseconds,
/// fixed at registration; observations are scaled to integer microseconds
/// before any accumulation so count, sum, min, max and bucket tallies are
/// all commutative integers — bit-identical totals for any thread count.
class Histogram {
 public:
  Histogram(std::vector<double> bounds_ms, bool diagnostic);
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  void observe(double value_ms) noexcept;

  [[nodiscard]] const std::vector<double>& bounds_ms() const noexcept {
    return bounds_ms_;
  }
  [[nodiscard]] std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t sum_us() const noexcept {
    return sum_us_.load(std::memory_order_relaxed);
  }
  /// 0 when empty.
  [[nodiscard]] std::int64_t min_us() const noexcept;
  [[nodiscard]] std::int64_t max_us() const noexcept;
  [[nodiscard]] std::uint64_t bucket(std::size_t i) const noexcept {
    return buckets_[i].load(std::memory_order_relaxed);
  }
  void reset() noexcept;
  /// Fold a delta sample in on top of the current contents (checkpoint
  /// replay under the task graph): bucket/count/sum adds plus commutative
  /// min/max folds, all atomic — safe while other phases observe
  /// concurrently, and mirrored into the current thread's PhaseTally.
  void accumulate(const HistogramSample& sample);
  /// Undo a previously accumulated delta: bucket/count/sum subtractions.
  /// min/max folds are NOT reversible and are left in place — retraction is
  /// only used on phase-prologue segments, which record no histograms.
  void retract(const HistogramSample& sample);
  [[nodiscard]] bool diagnostic() const noexcept { return diagnostic_; }

 private:
  std::vector<double> bounds_ms_;       // ascending upper edges
  std::vector<std::int64_t> bounds_us_; // same edges, scaled once
  std::unique_ptr<std::atomic<std::uint64_t>[]> buckets_;  // bounds + overflow
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_us_{0};
  std::atomic<std::int64_t> min_us_{INT64_MAX};
  std::atomic<std::int64_t> max_us_{INT64_MIN};
  bool diagnostic_;
};

/// Aggregated call-site statistics for one span name (see span.hpp). All
/// fields commutative; wall_ns is diagnostic-only by construction.
struct SpanStat {
  std::atomic<std::uint64_t> count{0};
  std::atomic<std::uint64_t> sim_us{0};
  std::atomic<std::uint64_t> wall_ns{0};

  void reset() noexcept {
    count.store(0, std::memory_order_relaxed);
    sim_us.store(0, std::memory_order_relaxed);
    wall_ns.store(0, std::memory_order_relaxed);
  }
};

// ---------------------------------------------------------------------------
// Snapshot: an owning, name-sorted copy of every registered metric.

// Checkpoint records carry a phase's metrics delta as a Snapshot, in its
// field lists' layout (util/fields.hpp).
struct CounterSample {
  std::string name;
  std::uint64_t value = 0;
  bool diagnostic = false;

  static void fields(auto& self, auto&& visit) {
    visit(self.name, self.value, self.diagnostic);
  }
};

struct GaugeSample {
  std::string name;
  std::int64_t value = 0;
  bool diagnostic = false;

  static void fields(auto& self, auto&& visit) {
    visit(self.name, self.value, self.diagnostic);
  }
};

struct HistogramSample {
  std::string name;
  std::vector<double> bounds_ms;
  std::vector<std::uint64_t> buckets;  // bounds_ms.size() + 1 (overflow last)
  std::uint64_t count = 0;
  std::uint64_t sum_us = 0;
  std::int64_t min_us = 0;
  std::int64_t max_us = 0;
  bool diagnostic = false;

  static void fields(auto& self, auto&& visit) {
    visit(self.name, self.bounds_ms, self.buckets, self.count, self.sum_us,
          self.min_us, self.max_us, self.diagnostic);
  }
};

struct SpanSample {
  std::string name;
  std::uint64_t count = 0;
  std::uint64_t sim_us = 0;
  std::uint64_t wall_ns = 0;  // diagnostic: excluded from JSON

  static void fields(auto& self, auto&& visit) {
    visit(self.name, self.count, self.sim_us, self.wall_ns);
  }
};

struct Snapshot {
  std::vector<CounterSample> counters;
  std::vector<GaugeSample> gauges;
  std::vector<HistogramSample> histograms;
  std::vector<SpanSample> spans;

  static void fields(auto& self, auto&& visit) {
    visit(self.counters, self.gauges, self.histograms, self.spans);
  }

  /// Stable JSON (schema "encdns.obs.v1"): integers only, name-sorted,
  /// diagnostic metrics and wall-clock fields excluded unless asked for.
  /// This string is the byte-identical surface of the invariance test.
  [[nodiscard]] std::string to_json(bool include_diagnostic = false) const;

  /// Human-readable report: everything, including diagnostics and wall
  /// time, with the span list indented into its dotted-name tree.
  [[nodiscard]] std::string to_text() const;
};

/// Process-wide registry. Registration takes a mutex (cold path, done once
/// per call site through function-local statics); recording touches only
/// the returned metric's atomics. Metrics are never deallocated while the
/// process lives, so cached references stay valid across reset().
class MetricsRegistry {
 public:
  [[nodiscard]] static MetricsRegistry& global();

  /// Get-or-create. The diagnostic flag and histogram bounds are fixed by
  /// the first registration of a name.
  [[nodiscard]] Counter& counter(std::string_view name,
                                 bool diagnostic = false);
  [[nodiscard]] Gauge& gauge(std::string_view name, bool diagnostic = false);
  [[nodiscard]] Histogram& histogram(std::string_view name,
                                     std::vector<double> bounds_ms,
                                     bool diagnostic = false);
  [[nodiscard]] SpanStat& span(std::string_view name);

  /// Zero every value, keeping registrations (and outstanding references).
  void reset();

  [[nodiscard]] Snapshot snapshot() const;

  /// Name-sorted snapshot of everything attributed to `tally`: the per-phase
  /// view of the registry under the task graph. Zero-valued entries are
  /// skipped; histogram bucket vectors are padded to the registered bucket
  /// count; gauges are never included (not delta-decomposable). Call only
  /// when threads recording into `tally` are quiescent.
  [[nodiscard]] Snapshot delta_snapshot(const PhaseTally& tally) const;

  /// Add a delta snapshot on top of the current registry state (checkpoint
  /// resume, DESIGN.md §15). Additive and atomic per metric, so it is safe
  /// while other phases run;
  /// the increments are also mirrored into the calling thread's PhaseTally,
  /// which is how a resumed node's partial records keep accumulating.
  void apply_delta(const Snapshot& delta);

  /// Register every metric named in `snap` (with its diagnostic flag and
  /// bucket bounds) without touching any value. Checkpoint resume: delta
  /// records skip zero-valued metrics, so a phase loaded
  /// from the journal would otherwise leave the names its code registers
  /// but never increments missing from the final snapshot.
  void register_skeleton(const Snapshot& snap);

  /// Subtract a delta previously recorded into the registry. Used by the
  /// checkpoint hook: a resumed phase re-executes its prologue (e.g. the
  /// platform batch re-acquisition) before load(), re-recording work its
  /// saved delta already contains, which this retracts. Exact for
  /// counters, histogram buckets/count/sum and spans; histogram min/max
  /// folds are irreversible and left alone (prologues record none).
  void retract_delta(const Snapshot& delta);

 private:
  MetricsRegistry() = default;

  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
  std::map<std::string, std::unique_ptr<SpanStat>, std::less<>> spans_;
};

/// Merge `from` into `into` (both name-sorted snapshots of deltas):
/// counters/spans add, histograms add element-wise with min/max folds,
/// gauges ignored. Used to assemble the report's phase groups from
/// per-node deltas without touching the registry.
void merge_delta(Snapshot& into, const Snapshot& from);

/// Default RTT bucket edges (ms) shared by every latency histogram so the
/// families line up in reports.
[[nodiscard]] const std::vector<double>& latency_buckets_ms();

}  // namespace encdns::obs
