// A caching recursive resolver backend over the authoritative universe.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>

#include "cache/dns_cache.hpp"
#include "fault/fault.hpp"
#include "resolver/backend.hpp"
#include "resolver/universe.hpp"

namespace encdns::resolver {

struct RecursiveConfig {
  /// Master switch for the record cache (and the always-warm popular path).
  bool enable_cache = true;
  /// Total cache entry budget. When the cache fills, the least-recently-used
  /// entry of the affected shard is evicted — never a wholesale flush (the
  /// old map cleared *everything* at this boundary, a latency cliff for all
  /// concurrent clients).
  std::size_t max_cache_entries = 200000;
  /// TTL / negative-caching / serve-stale knobs (cache::CacheConfig).
  /// `cache.max_entries` is overridden by `max_cache_entries` above, and
  /// ENCDNS_CACHE_* environment variables override both at construction.
  cache::CacheConfig cache;
  /// Processing time for a cache hit (also used for stale answers, which are
  /// served from memory too).
  double hit_min_ms = 0.1;
  double hit_max_ms = 0.8;
};

/// Thread-safe: the shared record cache is sharded with per-shard locking
/// and the hit/miss tallies are atomic, so concurrent sessions may resolve
/// through one backend. Queries for *popular* zones (see Zone::popular) are
/// answered from an always-warm path that never touches the shared cache —
/// their results are pure functions of the query, independent of what other
/// sessions resolved first, which is what keeps parallel measurement runs
/// deterministic.
///
/// Cache semantics (DESIGN.md §10):
///   * entries live for their records' minimum TTL (clamped to the config's
///     [min_ttl_s, max_ttl_s]) from the moment they are stored;
///   * NXDOMAIN/NODATA answers are negatively cached for the bounded
///     negative TTL (RFC 2308) — SERVFAIL is never cached;
///   * with serve_stale enabled (RFC 8767), an expired entry still within
///     the stale window answers when the upstream recursion is failing
///     (fault-injected via Channel::kRecursion).
/// The simulation clock is civil-date granular, so "now" advances in whole
/// days (86400 s steps): any TTL <= 86400 expires exactly at the next day
/// boundary, which preserves the coarse one-day model the experiments were
/// calibrated against while keeping the cache itself second-accurate.
class RecursiveBackend final : public DnsBackend {
 public:
  /// `faults`, when set, lets the upstream recursion leg draw transient
  /// failures (FaultProfile::upstream_fail on Channel::kRecursion); the
  /// backend then either serves stale or surfaces SERVFAIL.
  RecursiveBackend(const AuthoritativeUniverse& universe, std::string label,
                   RecursiveConfig config = {},
                   const fault::FaultInjector* faults = nullptr);

  [[nodiscard]] Result resolve(const dns::Message& query, const net::Location& pop,
                               const util::Date& date, util::Rng& rng) override;

  /// The real implementation; `resolve` wraps it. Reuses `out`'s response
  /// storage (questions echo, answer records, cache-key scratch): a cache
  /// hit decodes into the warmed answer records without allocating.
  void resolve_into(const dns::Message& query, const net::Location& pop,
                    const util::Date& date, util::Rng& rng, Result& out) override;

  [[nodiscard]] std::string label() const override { return label_; }

  [[nodiscard]] std::size_t cache_size() const noexcept { return cache_.size(); }
  /// Warm-path (popular) and record-cache hits combined, as before.
  [[nodiscard]] std::uint64_t cache_hits() const noexcept { return hits_; }
  [[nodiscard]] std::uint64_t cache_misses() const noexcept { return misses_; }
  /// RFC 8767 stale answers served while the upstream was failing.
  [[nodiscard]] std::uint64_t stale_served() const noexcept { return stale_; }
  /// Upstream recursion faults drawn (served stale or surfaced as SERVFAIL).
  [[nodiscard]] std::uint64_t upstream_faults() const noexcept {
    return upstream_faults_;
  }

  /// The shared record cache behind the Do53/DoT/DoH answer paths.
  [[nodiscard]] const cache::DnsCache& cache() const noexcept { return cache_; }
  /// Mutable access for checkpoint restore (DESIGN.md §13).
  [[nodiscard]] cache::DnsCache& cache() noexcept { return cache_; }

  /// Swap the upstream fault source (same pattern as
  /// net::Network::set_fault_injector). Tests use this to prime the cache
  /// fault-free, then fail the upstream and observe serve-stale.
  void set_fault_injector(const fault::FaultInjector* faults) noexcept {
    faults_ = faults;
  }

 private:
  const AuthoritativeUniverse* universe_;
  std::string label_;
  RecursiveConfig config_;
  const fault::FaultInjector* faults_;

  cache::DnsCache cache_;
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> stale_{0};
  std::atomic<std::uint64_t> upstream_faults_{0};
};

}  // namespace encdns::resolver
