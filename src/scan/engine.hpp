// The stateless sweep engine (DESIGN.md §14), after masscan: a blocked
// transmit kernel walks the cyclic permutation a block of indices at a time
// emitting probes whose whole identity lives in a 64-bit cookie, and a
// receive loop classifies responses by validating the echoed cookie — no
// per-target heap state in between. The two loops are joined by a bounded
// in-flight window (exec::CreditWindow): transmission stalls when the window
// is full until the receive side drains a response and frees a credit.
//
// Determinism: work is split over the same 64 fixed shards as the rest of
// the scanner, every stochastic draw is keyed by the probe's own cookie
// (never by transmit order), open hosts are recorded in canonical
// permutation order regardless of response arrival order, and shard
// partials merge in shard order — so results are bit-identical for any
// thread count or window size.
#pragma once

#include <cstdint>
#include <vector>

#include "exec/cancel.hpp"
#include "exec/executor.hpp"
#include "fault/retry.hpp"
#include "scan/permutation.hpp"
#include "scan/space.hpp"
#include "sim/duration.hpp"
#include "util/date.hpp"
#include "world/world.hpp"

namespace encdns::scan {

struct EngineConfig {
  /// Cookie seed for this sweep; every probe's cookie (and through it every
  /// latency/fault draw) is keyed from it.
  std::uint64_t seed = 0;
  std::uint16_t port = 853;
  /// Total SYN attempts per address (1 + filtered retransmits).
  int max_attempts = 3;
  unsigned thread_count = 0;
  /// In-flight window per shard (token-bucket credits; exec::CreditWindow
  /// clamps 0 to one). Purely a flow bound: it never changes results, only
  /// internal drain order.
  static constexpr std::size_t kDefaultWindow = 256;
  std::size_t window = kDefaultWindow;
  /// Cooperative cancellation, checked at shard pickup and once per
  /// transmit block (512 permutation steps) inside a shard. Wall/manual
  /// cancellation cuts coverage without a determinism promise (DESIGN.md
  /// §13); the receive ring is always drained so every credit is released
  /// exactly once.
  exec::CancelToken* cancel = nullptr;
  /// Test hook: when > 0, trip `cancel` once a shard's transmissions reach
  /// this count, checked after every address (so a cut can overshoot by the
  /// retransmits that address triggered), giving chaos tests a
  /// deterministic mid-shard cut at thread_count 1.
  std::uint64_t cancel_after_tx = 0;
  /// Shared worker pool (task-graph mode); null = private pool.
  exec::WorkerPool* pool = nullptr;
};

/// Engine-side accounting for one sweep. The rejected_* counters are the
/// receive loop's fail-closed verdicts; credit_leaks/double_releases are
/// window invariants that must stay zero on every path (including
/// cancellation with responses still queued).
struct EngineTally {
  std::uint64_t transmitted = 0;  // probe emissions, retransmits included
  std::uint64_t probed = 0;       // addresses walked (attempt-0 emissions)
  std::uint64_t open = 0;
  std::uint64_t retransmits = 0;
  std::uint64_t rejected_forgery = 0;
  std::uint64_t rejected_duplicate = 0;
  std::uint64_t rejected_stale = 0;
  std::uint64_t credit_leaks = 0;
  std::uint64_t double_releases = 0;
  std::size_t window_high_water = 0;  // max over shards; window-dependent
  fault::LayerTally faults;
  sim::Millis sim_elapsed{0.0};  // materialized responses only

  EngineTally& operator+=(const EngineTally& other) noexcept;
};

struct SweepResult {
  /// Open hosts in canonical order: permutation order within each shard,
  /// shards merged in index order — independent of arrival order.
  std::vector<util::Ipv4> open_hosts;
  EngineTally tally;
};

class ScanEngine {
 public:
  ScanEngine(const world::World& world, EngineConfig config);

  /// One stateless sweep of `space` on config.port from `origins` (rotated
  /// per address exactly as the legacy sweep rotates them).
  [[nodiscard]] SweepResult sweep(const ScanSpace& space,
                                  const CyclicPermutation& permutation,
                                  const std::vector<world::Vantage>& origins,
                                  const util::Date& date) const;

 private:
  const world::World* world_;
  EngineConfig config_;
};

}  // namespace encdns::scan
