// Unit tests for the sharded TTL-aware DNS record cache (DESIGN.md §10):
// exact-second TTL boundaries, RFC 2308 negative caching (and SERVFAIL
// rejection), shard distribution, deterministic LRU eviction, the
// no-flush-on-full guarantee, RFC 8767 serve-stale, the ENCDNS_CACHE_*
// environment overrides, and consistency under contention.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "cache/dns_cache.hpp"
#include "dns/message.hpp"
#include "dns/name.hpp"
#include "obs/metrics.hpp"
#include "util/env.hpp"
#include "util/rng.hpp"

namespace encdns::cache {
namespace {

[[nodiscard]] CachedAnswer a_answer(const std::string& name,
                                    std::uint32_t ttl = 300) {
  // Cache keys carry a "/<type>" suffix that is not part of the owner name.
  const auto parsed = dns::Name::parse(name.substr(0, name.find('/')));
  CachedAnswer answer;
  answer.answers.push_back(
      dns::ResourceRecord::a(parsed ? *parsed : *dns::Name::parse("rr.test"),
                             util::Ipv4(192, 0, 2, 1), ttl));
  return answer;
}

[[nodiscard]] CachedAnswer nxdomain_answer() {
  CachedAnswer answer;
  answer.rcode = dns::RCode::kNxDomain;
  return answer;
}

/// lookup()/lookup_stale() for tests that only need the verdict: the
/// records decode into throwaway storage.
std::optional<DnsCache::Hit> lookup(DnsCache& cache, std::string_view key,
                                    std::int64_t now_s) {
  std::vector<dns::ResourceRecord> answers;
  return cache.lookup(key, now_s, answers);
}
std::optional<DnsCache::Hit> lookup_stale(DnsCache& cache, std::string_view key,
                                          std::int64_t now_s) {
  std::vector<dns::ResourceRecord> answers;
  return cache.lookup_stale(key, now_s, answers);
}

TEST(CachedAnswer, NegativeClassification) {
  EXPECT_FALSE(a_answer("a.test").negative());
  EXPECT_TRUE(nxdomain_answer().negative());  // RFC 2308 name error
  CachedAnswer nodata;                        // NOERROR + empty answer section
  EXPECT_TRUE(nodata.negative());
}

TEST(DnsCache, HitWithinTtlMissAtExactExpiry) {
  DnsCache cache;
  ASSERT_TRUE(cache.store("a.test/1", a_answer("a.test", 300), 1000));
  // Fresh until the last second of the TTL...
  EXPECT_TRUE(lookup(cache, "a.test/1", 1000).has_value());
  EXPECT_TRUE(lookup(cache, "a.test/1", 1299).has_value());
  // ...and expired at exactly store-time + TTL, not one second later.
  EXPECT_FALSE(lookup(cache, "a.test/1", 1300).has_value());
  const auto stats = cache.stats();
  EXPECT_EQ(stats.hits, 2u);
  EXPECT_EQ(stats.misses, 1u);
}

TEST(DnsCache, TtlIsMinAcrossRecordsClampedToConfig) {
  CacheConfig config;
  config.min_ttl_s = 60;
  config.max_ttl_s = 3600;
  DnsCache cache(config);

  CachedAnswer mixed = a_answer("m.test", 7200);
  mixed.answers.push_back(dns::ResourceRecord::a(
      *dns::Name::parse("m.test"), util::Ipv4(192, 0, 2, 2), 300));
  EXPECT_EQ(cache.ttl_for(mixed), 300u);  // min across records

  EXPECT_EQ(cache.ttl_for(a_answer("hi.test", 86400)), 3600u);  // clamped down
  EXPECT_EQ(cache.ttl_for(a_answer("lo.test", 1)), 60u);        // clamped up
}

TEST(DnsCache, NegativeEntriesUseBoundedNegativeTtl) {
  CacheConfig config;
  config.negative_ttl_s = 900;
  DnsCache cache(config);

  ASSERT_TRUE(cache.store("gone.test/1", nxdomain_answer(), 0));
  const auto hit = lookup(cache, "gone.test/1", 899);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->rcode, dns::RCode::kNxDomain);
  EXPECT_FALSE(lookup(cache, "gone.test/1", 900).has_value());

  // NODATA (NOERROR, empty answers) is the other RFC 2308 negative form.
  ASSERT_TRUE(cache.store("empty.test/28", CachedAnswer{}, 0));
  EXPECT_TRUE(lookup(cache, "empty.test/28", 899).has_value());
  EXPECT_FALSE(lookup(cache, "empty.test/28", 900).has_value());

  EXPECT_EQ(cache.stats().negative_hits, 2u);
}

TEST(DnsCache, ServfailIsNeverStored) {
  DnsCache cache;
  CachedAnswer servfail;
  servfail.rcode = dns::RCode::kServFail;
  EXPECT_FALSE(DnsCache::cacheable(dns::RCode::kServFail));
  EXPECT_FALSE(cache.store("down.test/1", servfail, 0));
  EXPECT_FALSE(lookup(cache, "down.test/1", 0).has_value());
  EXPECT_EQ(cache.size(), 0u);
  const auto stats = cache.stats();
  EXPECT_EQ(stats.rejected, 1u);
  EXPECT_EQ(stats.stores, 0u);
}

TEST(DnsCache, ShardCountClampsToPowerOfTwo) {
  CacheConfig config;
  config.shards = 13;
  EXPECT_EQ(DnsCache(config).shard_count(), 8u);
  config.shards = 0;
  EXPECT_EQ(DnsCache(config).shard_count(), 1u);
  config.shards = 4096;
  EXPECT_EQ(DnsCache(config).shard_count(), 256u);
}

TEST(DnsCache, KeysSpreadAcrossAllShards) {
  CacheConfig config;
  config.shards = 16;
  config.max_entries = 1 << 20;  // no eviction during this test
  DnsCache cache(config);
  constexpr int kKeys = 8192;
  for (int i = 0; i < kKeys; ++i) {
    const std::string name = "host" + std::to_string(i) + ".example/1";
    ASSERT_TRUE(cache.store(name, a_answer(name), 0));
  }
  const auto sizes = cache.shard_sizes();
  ASSERT_EQ(sizes.size(), 16u);
  EXPECT_EQ(std::accumulate(sizes.begin(), sizes.end(), std::size_t{0}),
            static_cast<std::size_t>(kKeys));
  const double mean = static_cast<double>(kKeys) / 16.0;
  for (const std::size_t size : sizes) {
    EXPECT_GT(size, 0u);  // fnv1a reaches every shard
    EXPECT_LT(static_cast<double>(size), 2.0 * mean);
    EXPECT_GT(static_cast<double>(size), 0.5 * mean);
  }
  // Every key is still found after the slabs and their indexes grew.
  for (int i = 0; i < kKeys; ++i)
    ASSERT_TRUE(lookup(cache, "host" + std::to_string(i) + ".example/1", 1))
        << i;
}

TEST(DnsCache, EvictionIsLruAndDeterministic) {
  CacheConfig config;
  config.shards = 1;  // single shard: global LRU order
  config.max_entries = 3;
  DnsCache cache(config);

  ASSERT_TRUE(cache.store("a/1", a_answer("a"), 0));
  ASSERT_TRUE(cache.store("b/1", a_answer("b"), 0));
  ASSERT_TRUE(cache.store("c/1", a_answer("c"), 0));
  // Touch `a`: it becomes most-recent, `b` is now the LRU victim.
  ASSERT_TRUE(lookup(cache, "a/1", 1).has_value());
  ASSERT_TRUE(cache.store("d/1", a_answer("d"), 1));

  EXPECT_FALSE(lookup(cache, "b/1", 2).has_value());  // evicted
  EXPECT_TRUE(lookup(cache, "a/1", 2).has_value());
  EXPECT_TRUE(lookup(cache, "c/1", 2).has_value());
  EXPECT_TRUE(lookup(cache, "d/1", 2).has_value());
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.size(), 3u);

  // The eviction order is a pure function of the operation sequence: a
  // second cache driven identically ends in the same state.
  DnsCache replay(config);
  ASSERT_TRUE(replay.store("a/1", a_answer("a"), 0));
  ASSERT_TRUE(replay.store("b/1", a_answer("b"), 0));
  ASSERT_TRUE(replay.store("c/1", a_answer("c"), 0));
  ASSERT_TRUE(lookup(replay, "a/1", 1).has_value());
  ASSERT_TRUE(replay.store("d/1", a_answer("d"), 1));
  EXPECT_EQ(replay.shard_sizes(), cache.shard_sizes());
  EXPECT_FALSE(lookup(replay, "b/1", 2).has_value());
  EXPECT_EQ(replay.stats().evictions, cache.stats().evictions);
}

// The regression the old map could not pass: at the capacity boundary it
// flushed *everything*, so a hot key's hit rate collapsed to zero right
// after. With incremental LRU eviction the hot key stays resident through
// an arbitrarily long stream of cold inserts.
TEST(DnsCache, HotKeySurvivesCapacityBoundary) {
  CacheConfig config;
  config.shards = 4;
  config.max_entries = 64;
  DnsCache cache(config);

  // A TTL longer than the whole run, so only eviction could drop the key.
  ASSERT_TRUE(cache.store("hot.test/1", a_answer("hot.test", 86400), 0));
  std::uint64_t hot_hits = 0;
  for (int i = 0; i < 1000; ++i) {
    const std::string cold = "cold" + std::to_string(i) + ".test/1";
    ASSERT_TRUE(cache.store(cold, a_answer(cold, 86400), i));
    if (lookup(cache, "hot.test/1", i).has_value()) ++hot_hits;
  }
  // Far past the capacity boundary (1000 inserts into 64 slots), every
  // hot-key lookup still hit: each hit re-marks it most-recently-used.
  EXPECT_EQ(hot_hits, 1000u);
  EXPECT_GT(cache.stats().evictions, 900u);
  EXPECT_LE(cache.size(), 64u);
}

TEST(DnsCache, ServeStaleDisabledNeverAnswers) {
  DnsCache cache;  // serve_stale defaults off
  ASSERT_TRUE(cache.store("s.test/1", a_answer("s.test", 300), 0));
  EXPECT_FALSE(lookup_stale(cache, "s.test/1", 100).has_value());
}

TEST(DnsCache, ServeStaleAnswersWithinWindowOnly) {
  CacheConfig config;
  config.serve_stale = true;
  config.max_stale_s = 3600;
  DnsCache cache(config);
  ASSERT_TRUE(cache.store("s.test/1", a_answer("s.test", 300), 0));

  // Still fresh: answered, but not counted (or flagged) as stale.
  const auto fresh = lookup_stale(cache, "s.test/1", 299);
  ASSERT_TRUE(fresh.has_value());
  EXPECT_FALSE(fresh->stale);
  EXPECT_EQ(cache.stats().stale_served, 0u);

  // Expired but within the RFC 8767 window: served and flagged stale.
  const auto stale = lookup_stale(cache, "s.test/1", 300);
  ASSERT_TRUE(stale.has_value());
  EXPECT_TRUE(stale->stale);
  const auto late = lookup_stale(cache, "s.test/1", 300 + 3599);
  ASSERT_TRUE(late.has_value());
  EXPECT_TRUE(late->stale);
  EXPECT_EQ(cache.stats().stale_served, 2u);

  // Lapsed past expiry + max_stale_s: too stale even for serve-stale.
  EXPECT_FALSE(lookup_stale(cache, "s.test/1", 300 + 3600).has_value());
}

TEST(DnsCache, StoreRefreshesExistingEntry) {
  CacheConfig config;
  config.shards = 1;
  config.max_entries = 2;
  DnsCache cache(config);
  ASSERT_TRUE(cache.store("a/1", a_answer("a", 100), 0));
  ASSERT_TRUE(cache.store("b/1", a_answer("b", 100), 0));
  // Re-storing `a` refreshes in place (no eviction) and restarts its TTL.
  ASSERT_TRUE(cache.store("a/1", a_answer("a", 100), 50));
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.stats().evictions, 0u);
  EXPECT_TRUE(lookup(cache, "a/1", 149).has_value());
  EXPECT_FALSE(lookup(cache, "b/1", 100).has_value());
}

TEST(DnsCache, ClearEmptiesEveryShard) {
  DnsCache cache;
  for (int i = 0; i < 100; ++i) {
    const std::string name = "c" + std::to_string(i) + ".test/1";
    ASSERT_TRUE(cache.store(name, a_answer(name), 0));
  }
  ASSERT_EQ(cache.size(), 100u);
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  for (const std::size_t size : cache.shard_sizes()) EXPECT_EQ(size, 0u);
  EXPECT_FALSE(lookup(cache, "c7.test/1", 1).has_value());
}

// Eight threads drive one 4-shard cache at 16 entries per shard with
// stores (including rejected SERVFAILs and 60-record answers that spill out
// of their slots), lookups, stale lookups and owner exports. Under the
// thread sanitizer (tools/check.sh) this is the input that exposes a hit
// path decoding slot bytes after releasing the shard lock: a concurrent
// store recycles that slot.
TEST(DnsCache, ContendedOperationsKeepTalliesConsistent) {
  CacheConfig config;
  config.shards = 4;
  config.max_entries = 64;
  config.serve_stale = true;
  DnsCache cache(config);

  constexpr std::size_t kKeys = 512;
  std::vector<std::string> keys;
  std::vector<CachedAnswer> answers;
  for (std::size_t i = 0; i < kKeys; ++i) {
    const std::string name = "c" + std::to_string(i) + ".test";
    keys.push_back(name + "/1");
    CachedAnswer answer = a_answer(name);
    if (i % 7 == 0) {
      for (std::uint32_t r = 1; r < 60; ++r)
        answer.answers.push_back(dns::ResourceRecord::a(
            answer.answers.front().name, util::Ipv4{0x0A000000u + r}, 300));
    }
    if (i % 11 == 0) answer.rcode = dns::RCode::kServFail;
    answers.push_back(std::move(answer));
  }

  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 4000;
  std::vector<std::unique_ptr<obs::PhaseTally>> owners;
  for (int t = 0; t < kThreads; ++t)
    owners.push_back(std::make_unique<obs::PhaseTally>());
  std::atomic<std::uint64_t> stored{0};
  std::atomic<std::uint64_t> mismatched{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const obs::ScopedTally scope(owners[static_cast<std::size_t>(t)].get());
      util::Rng rng(static_cast<std::uint64_t>(t) + 1);
      std::vector<dns::ResourceRecord> records;
      for (int op = 0; op < kOpsPerThread; ++op) {
        const std::size_t k = rng.below(kKeys);
        const std::int64_t now = op / 8;  // entries expire, then go stale
        std::optional<DnsCache::Hit> hit;
        switch (rng.below(4)) {
          case 0:
            if (cache.store(keys[k], answers[k], now)) stored.fetch_add(1);
            continue;
          case 1:
            hit = cache.lookup(keys[k], now, records);
            break;
          case 2:
            hit = cache.lookup_stale(keys[k], now, records);
            break;
          default:
            (void)cache.export_entries(owners[static_cast<std::size_t>(t)].get());
            continue;
        }
        // A hit decodes exactly the answer stored under its key.
        const auto& want = answers[k].answers;
        if (hit && (records.size() != want.size() ||
                    !(records.front().name == want.front().name)))
          mismatched.fetch_add(1);
      }
    });
  }
  for (auto& thread : threads) thread.join();

  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.stores, stored.load());
  EXPECT_LE(stats.evictions, stats.stores);
  EXPECT_LE(cache.size(), config.max_entries);
  EXPECT_GT(stats.hits, 0u);
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_GT(stats.rejected, 0u);
  EXPECT_EQ(mismatched.load(), 0u);
}

TEST(CacheConfig, EnvironmentOverrides) {
  CacheConfig fallback;
  fallback.max_entries = 1000;
  fallback.negative_ttl_s = 900;
  fallback.serve_stale = false;

  ::setenv("ENCDNS_CACHE_ENTRIES", "5000", 1);
  ::setenv("ENCDNS_CACHE_NEG_TTL", "60", 1);
  ::setenv("ENCDNS_CACHE_SERVE_STALE", "on", 1);
  const CacheConfig overridden = CacheConfig::from_env(fallback);
  EXPECT_EQ(overridden.max_entries, 5000u);
  EXPECT_EQ(overridden.negative_ttl_s, 60u);
  EXPECT_TRUE(overridden.serve_stale);

  // Garbage values abort loudly (DESIGN.md §13) instead of poisoning the
  // config or being silently ignored.
  ::setenv("ENCDNS_CACHE_ENTRIES", "-3", 1);
  EXPECT_THROW((void)CacheConfig::from_env(fallback), util::EnvError);
  ::unsetenv("ENCDNS_CACHE_ENTRIES");
  ::setenv("ENCDNS_CACHE_NEG_TTL", "junk", 1);
  EXPECT_THROW((void)CacheConfig::from_env(fallback), util::EnvError);
  ::unsetenv("ENCDNS_CACHE_NEG_TTL");
  ::setenv("ENCDNS_CACHE_SERVE_STALE", "maybe", 1);
  EXPECT_THROW((void)CacheConfig::from_env(fallback), util::EnvError);

  ::unsetenv("ENCDNS_CACHE_ENTRIES");
  ::unsetenv("ENCDNS_CACHE_NEG_TTL");
  ::unsetenv("ENCDNS_CACHE_SERVE_STALE");
  const CacheConfig untouched = CacheConfig::from_env(fallback);
  EXPECT_EQ(untouched.max_entries, 1000u);
  EXPECT_FALSE(untouched.serve_stale);
}

}  // namespace
}  // namespace encdns::cache
