// Shared retry/backoff policy and fault accounting for every layer that
// consumes the network: measure/reachability, measure/performance, and the
// scan probers. The transient-vs-persistent split is the load-bearing part:
// a certificate rejection or refused connect cannot change on retry, so
// burning the remaining attempts on it only wastes budget (and, before this
// module, ReachabilityTest did exactly that).
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "client/outcome.hpp"
#include "sim/duration.hpp"
#include "util/rng.hpp"

namespace encdns::fault {

/// Knobs for a retry loop. `per_attempt` bounds one attempt; `total_budget`
/// bounds attempt latencies plus backoff across the whole loop, mirroring
/// the paper's 5 x 30 s envelope.
struct RetryPolicy {
  int max_attempts = 5;
  sim::Millis per_attempt{30000.0};
  sim::Millis total_budget{150000.0};
  sim::Millis base_backoff{200.0};
  double backoff_multiplier = 2.0;
  sim::Millis max_backoff{5000.0};
  double jitter = 0.5;  // +/- fraction of the delay, drawn deterministically
};

/// True for failure statuses that a retry can plausibly fix (timeouts,
/// resets, garbled responses, flaky bootstrap/HTTP); false for persistent
/// ones (refused connect, TLS/certificate rejection) and for kOk.
[[nodiscard]] bool is_transient(client::QueryStatus status) noexcept;

/// is_transient, spelled for retry loops: kOk never retries.
[[nodiscard]] bool should_retry(client::QueryStatus status) noexcept;

/// Exponential backoff with deterministic jitter for the given 0-based
/// attempt index. Consumes one uniform draw from `rng`.
[[nodiscard]] sim::Millis backoff_delay(const RetryPolicy& policy, int attempt,
                                        util::Rng& rng);

/// Injected / recovered / surfaced counts for one layer. `injected` counts
/// transient failures observed, `recovered` operations that succeeded after
/// at least one, `surfaced` operations that still failed after retries.
struct LayerTally {
  std::uint64_t injected = 0;
  std::uint64_t recovered = 0;
  std::uint64_t surfaced = 0;

  static void fields(auto& self, auto&& visit) {
    visit(self.injected, self.recovered, self.surfaced);
  }

  LayerTally& operator+=(const LayerTally& other) noexcept {
    injected += other.injected;
    recovered += other.recovered;
    surfaced += other.surfaced;
    return *this;
  }
};

/// Per-layer roll-up of fault accounting across a study.
struct RobustnessReport {
  LayerTally client;    // reachability + performance query retries
  LayerTally scanner;   // sweep re-probes + application-probe retries
  LayerTally proxy;     // exit-node deaths vs session failovers
  LayerTally resolver;  // upstream recursion faults vs serve-stale answers

  [[nodiscard]] LayerTally total() const noexcept;
  [[nodiscard]] std::string to_string() const;
};

/// Per-address strike counter: after `threshold` consecutive failures an
/// address is skipped until a success clears it. Not thread-safe — callers
/// read it during parallel phases and update it serially in canonical
/// order, which keeps campaigns deterministic for any thread count.
class CircuitBreaker {
 public:
  explicit CircuitBreaker(int threshold = 3) : threshold_(threshold) {}

  [[nodiscard]] bool open(std::uint64_t key) const {
    const auto it = strikes_.find(key);
    return it != strikes_.end() && it->second >= threshold_;
  }
  void record_failure(std::uint64_t key) { ++strikes_[key]; }
  void record_success(std::uint64_t key) { strikes_.erase(key); }
  [[nodiscard]] std::size_t open_count() const {
    std::size_t count = 0;
    for (const auto& [key, strikes] : strikes_) {
      if (strikes >= threshold_) ++count;
    }
    return count;
  }
  [[nodiscard]] int threshold() const noexcept { return threshold_; }

  /// Checkpoint export: every (address, strikes) pair in ascending key order,
  /// so the serialized campaign state is canonical.
  [[nodiscard]] std::map<std::uint64_t, int> export_strikes() const {
    return {strikes_.begin(), strikes_.end()};
  }
  void restore_strikes(const std::map<std::uint64_t, int>& strikes) {
    strikes_ = {strikes.begin(), strikes.end()};
  }

 private:
  int threshold_;
  std::unordered_map<std::uint64_t, int> strikes_;
};

}  // namespace encdns::fault
