// One blocked pass over a phase's work units (DESIGN.md §7, §13): the loop
// every cancellable, checkpointed phase runs. Units are taken in canonical
// order in fixed-size blocks — a property of the workload, never of the
// thread count — and block boundaries are the only places where
//   * cancellation lands: a block cut by the token keeps only its executed
//     prefix, and no further block starts;
//   * simulated time is accounted: the fold's sim time is spent on the token
//     on the calling thread, so a sim budget cuts the same blocks at any
//     thread count;
//   * the accumulator is saved through the checkpoint hook — never after the
//     last block and never after a cancel, so every saved state resumes into
//     more work.
// A resumed pass decodes its accumulator once, before the first block, and
// continues after the units that state covers.
#pragma once

#include <cstddef>
#include <functional>

#include "exec/cancel.hpp"
#include "exec/checkpoint_hook.hpp"
#include "exec/executor.hpp"
#include "sim/duration.hpp"
#include "util/bytes.hpp"

namespace encdns::exec {

struct BlockedPass;

/// Runs the pass; returns the units executed, resumed ones included.
std::size_t run_blocked_pass(const BlockedPass& pass);

/// One block of a pass, as its body sees it.
class Block {
 public:
  std::size_t first;  // the block's first unit
  std::size_t count;  // units in the block

  /// fn(i) for each i in [0, count) on the pass's pool, cut at a shard
  /// boundary when the pass's token trips; returns the executed prefix.
  std::size_t run_shards(const std::function<void(std::size_t)>& fn) const {
    return pool_->get().parallel_for_shards(count, fn, cancel_);
  }

 private:
  friend std::size_t run_blocked_pass(const BlockedPass& pass);
  Block(std::size_t first, std::size_t count, PoolLease& pool,
        const CancelToken* cancel) noexcept
      : first(first), count(count), pool_(&pool), cancel_(cancel) {}

  PoolLease* pool_;
  const CancelToken* cancel_;
};

/// A pass over `units` units, `block` at a time, plus the phase's four steps.
struct BlockedPass {
  std::size_t units = 0;
  std::size_t block = 1;  // the last block may be short
  WorkerPool* pool = nullptr;  // shared pool; null = a local one
  unsigned thread_count = 0;   // the local pool's size (0 = auto)
  CancelToken* cancel = nullptr;
  CheckpointHook* checkpoint = nullptr;

  /// Runs the block's units (usually through Block::run_shards) and returns
  /// how many executed: the whole block, or a prefix when the token tripped.
  std::function<std::size_t(const Block&)> run;
  /// Folds the executed prefix into the phase's accumulator, in canonical
  /// order on the calling thread; returns the sim time it accounts.
  std::function<sim::Millis(const Block&, std::size_t executed)> fold;
  /// Writes the accumulator after `done` units.
  std::function<void(util::ByteWriter&, std::size_t done)> encode;
  /// Reads a saved accumulator; returns the units it covers.
  std::function<std::size_t(util::ByteReader&)> decode;
};

}  // namespace encdns::exec
