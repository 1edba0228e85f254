// Deterministic parallel execution for the measurement pipelines.
//
// The paper's platform is intrinsically parallel (ZMap sweeps from several
// origins, §4 fans out over ~123k proxy vantages), but parallelism must not
// change results: speedup with bit-identical output is the contract. The
// scheme is determinism by construction:
//   * work is split into a FIXED number of shards — a property of the
//     workload, never of the thread count;
//   * each shard derives its own util::Rng from util::mix64(seed ^ shard),
//     so no random stream is shared across shards;
//   * shards produce independent partial results that the caller merges in
//     canonical shard order.
// Threads only schedule shards; they never shape results. A run with
// threads=1 and threads=N therefore produce identical bytes.
#pragma once

#include <cstddef>
#include <functional>
#include <optional>
#include <utility>
#include <vector>

#include "exec/cancel.hpp"
#include "util/rng.hpp"

namespace encdns::exec {

/// Effective worker count: `requested` when > 0, else the ENCDNS_THREADS
/// environment variable when set, else hardware_concurrency() (minimum 1).
/// A malformed or non-positive ENCDNS_THREADS throws util::EnvError.
[[nodiscard]] unsigned resolve_thread_count(unsigned requested = 0);

/// True when an auto-configured run (`resolve_thread_count(0)`) gets more
/// than one worker — i.e. parallel wall-clock comparisons mean something.
/// On a single-core machine (or under ENCDNS_THREADS=1) a "parallel" run is
/// the serial run with extra bookkeeping, so speedup figures and wall-clock
/// floors derived from one are noise; benches consult this to skip their
/// timing guards instead.
[[nodiscard]] bool parallelism_available();

/// Contiguous index range [first, last) owned by shard `shard` of `shards`
/// over `total` items. Ranges partition [0, total) and differ in size by at
/// most one.
[[nodiscard]] std::pair<std::size_t, std::size_t> shard_range(
    std::size_t total, std::size_t shards, std::size_t shard) noexcept;

/// The canonical per-shard generator: Rng(mix64(seed ^ shard)). Using this
/// everywhere keeps the derivation rule in one place.
[[nodiscard]] inline util::Rng shard_rng(std::uint64_t seed,
                                         std::uint64_t shard) noexcept {
  return util::Rng(util::mix64(seed ^ shard));
}

/// A fixed-size pool of persistent worker threads. Multiple jobs may be in
/// flight at once (the task-graph executor submits from several node threads
/// — DESIGN.md §15); jobs queue FIFO and workers drain them front-first,
/// while each submitting thread participates only in its own job, so a pool
/// of size 1 (or a single-shard job) degenerates to a plain inline loop.
/// Workers inherit the submitting thread's obs::PhaseTally for each shard
/// they run, keeping per-phase metric attribution exact under overlap.
class WorkerPool {
 public:
  /// `threads` as for resolve_thread_count (0 = auto).
  explicit WorkerPool(unsigned threads = 0);
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  [[nodiscard]] unsigned thread_count() const noexcept { return thread_count_; }

  /// Invoke fn(shard) for every shard in [0, n_shards), distributed over the
  /// pool. fn must confine writes to shard-local state. The first exception
  /// thrown by any shard is rethrown here after the job drains; remaining
  /// shards are skipped.
  void parallel_for_shards(std::size_t n_shards,
                           const std::function<void(std::size_t)>& fn);

  /// Cancellable variant: `cancel` (may be null) is checked at shard pickup,
  /// under the job mutex, so once it trips no further shard starts — the
  /// shards that did execute form a prefix [0, k) of the canonical order
  /// (claims are handed out in increasing index order and cancellation is
  /// monotonic). Returns k, the executed-prefix length. In-flight shards are
  /// never interrupted: cancellation lands only on shard boundaries, which
  /// is what keeps a deterministically-triggered abort bit-identical at any
  /// thread count.
  std::size_t parallel_for_shards(std::size_t n_shards,
                                  const std::function<void(std::size_t)>& fn,
                                  const CancelToken* cancel);

 private:
  struct Impl;
  struct Job;
  unsigned thread_count_;
  Impl* impl_ = nullptr;  // null when thread_count_ <= 1 (inline mode)
};

/// The pool one call runs on: the shared pool when one is given (the task
/// graph's, DESIGN.md §15), else a local pool of `thread_count` workers,
/// started on first use so a caller that never fans out starts no threads.
class PoolLease {
 public:
  PoolLease(WorkerPool* shared, unsigned thread_count) noexcept
      : shared_(shared), thread_count_(thread_count) {}
  PoolLease(const PoolLease&) = delete;
  PoolLease& operator=(const PoolLease&) = delete;

  [[nodiscard]] WorkerPool& get() {
    if (shared_ != nullptr) return *shared_;
    if (!local_) local_.emplace(thread_count_);
    return *local_;
  }

 private:
  WorkerPool* shared_;
  unsigned thread_count_;
  std::optional<WorkerPool> local_;
};

/// Map fn over items, one task per item, preserving item order in the result.
/// fn is called as fn(item, index) and its result type must be
/// default-constructible. Deterministic provided fn(item, index) is a pure
/// function of its arguments (derive any randomness via shard_rng(seed, index)).
template <typename T, typename Fn>
auto parallel_map(WorkerPool& pool, const std::vector<T>& items, Fn&& fn)
    -> std::vector<decltype(fn(items.front(), std::size_t{}))> {
  using R = decltype(fn(items.front(), std::size_t{}));
  std::vector<R> results(items.size());
  pool.parallel_for_shards(items.size(), [&](std::size_t i) {
    results[i] = fn(items[i], i);
  });
  return results;
}

/// As above, but each task owns (and may mutate) its item.
template <typename T, typename Fn>
auto parallel_map(WorkerPool& pool, std::vector<T>& items, Fn&& fn)
    -> std::vector<decltype(fn(items.front(), std::size_t{}))> {
  using R = decltype(fn(items.front(), std::size_t{}));
  std::vector<R> results(items.size());
  pool.parallel_for_shards(items.size(), [&](std::size_t i) {
    results[i] = fn(items[i], i);
  });
  return results;
}

}  // namespace encdns::exec
