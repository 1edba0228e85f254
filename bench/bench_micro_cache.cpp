// Microbenchmarks for the sharded DNS record cache, plus the headline
// comparison main() records in BENCH_cache.json: the old flush-on-full map
// (wiped entirely at the capacity boundary) vs the sharded LRU cache, both
// driven by the same Zipf-distributed query mix at 5x cache capacity. The
// guard: the sharded cache must sustain a strictly higher steady-state hit
// rate — flush-on-full collapses to a cold cache on every boundary crossing.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>
#include <unordered_map>
#include <vector>

#include "cache/dns_cache.hpp"
#include "dns/message.hpp"
#include "dns/name.hpp"
#include "util/rng.hpp"

namespace {

using namespace encdns;

cache::CachedAnswer answer_for(const std::string& name) {
  cache::CachedAnswer answer;
  answer.answers.push_back(dns::ResourceRecord::a(
      *dns::Name::parse(name), util::Ipv4(192, 0, 2, 7), 300));
  return answer;
}

// --- micro: single-thread and contended primitives ---------------------------

// Hits decode into a caller-owned record vector, warmed by the first hit.
void BM_CacheLookupHit(benchmark::State& state) {
  cache::DnsCache cache;
  cache.store("hot.example/1", answer_for("hot.example"), 0);
  std::vector<dns::ResourceRecord> answers;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.lookup("hot.example/1", 1, answers));
    benchmark::DoNotOptimize(answers.data());
  }
}
BENCHMARK(BM_CacheLookupHit);

void BM_CacheLookupMiss(benchmark::State& state) {
  cache::DnsCache cache;
  std::vector<dns::ResourceRecord> answers;
  for (auto _ : state)
    benchmark::DoNotOptimize(cache.lookup("absent.example/1", 1, answers));
}
BENCHMARK(BM_CacheLookupMiss);

void BM_CacheStoreChurn(benchmark::State& state) {
  cache::CacheConfig config;
  config.max_entries = 4096;
  cache::DnsCache cache(config);
  const auto answer = answer_for("churn.example");
  // Keys are built before timing, so the loop times stores rather than one
  // string allocation per operation.
  std::vector<std::string> keys;
  keys.reserve(8192);
  for (int k = 0; k < 8192; ++k)
    keys.push_back("churn" + std::to_string(k) + "/1");
  std::size_t i = 0;
  for (auto _ : state)
    benchmark::DoNotOptimize(cache.store(keys[i++ & 8191], answer, 0));
}
BENCHMARK(BM_CacheStoreChurn);

void BM_CacheLookupContended(benchmark::State& state) {
  static cache::DnsCache cache;
  if (state.thread_index() == 0)
    cache.store("shared.example/1", answer_for("shared.example"), 0);
  std::vector<dns::ResourceRecord> answers;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.lookup("shared.example/1", 1, answers));
    benchmark::DoNotOptimize(answers.data());
  }
}
BENCHMARK(BM_CacheLookupContended)->Threads(4);

// --- the flush-on-full baseline vs sharded LRU under a Zipf mix --------------

/// Replica of the retired RecursiveBackend cache: one map, wiped whole when
/// it reaches capacity (recursive.cpp's old `cache_.clear()` path).
class FlushOnFullCache {
 public:
  explicit FlushOnFullCache(std::size_t capacity) : capacity_(capacity) {}

  bool lookup(const std::string& key) {
    return entries_.find(key) != entries_.end();
  }
  void store(const std::string& key, const cache::CachedAnswer& answer) {
    if (entries_.size() >= capacity_) entries_.clear();
    entries_[key] = answer;
  }

 private:
  std::size_t capacity_;
  std::unordered_map<std::string, cache::CachedAnswer> entries_;
};

/// Zipf(s=1.0) sampler over ranks [0, n) via inverted CDF + binary search;
/// deterministic given the rng seed.
class ZipfSampler {
 public:
  explicit ZipfSampler(std::size_t n) : cdf_(n) {
    double total = 0.0;
    for (std::size_t r = 0; r < n; ++r) {
      total += 1.0 / static_cast<double>(r + 1);
      cdf_[r] = total;
    }
    for (double& c : cdf_) c /= total;
  }
  [[nodiscard]] std::size_t draw(util::Rng& rng) const {
    const double u = rng.uniform(0.0, 1.0);
    std::size_t lo = 0, hi = cdf_.size() - 1;
    while (lo < hi) {
      const std::size_t mid = (lo + hi) / 2;
      if (cdf_[mid] < u)
        lo = mid + 1;
      else
        hi = mid;
    }
    return lo;
  }

 private:
  std::vector<double> cdf_;
};

struct MixResult {
  double hit_rate = 0.0;   // steady-state (post-warmup) hit rate
  double mops_per_s = 0.0;  // lookup+store throughput, millions of ops/s
};

constexpr std::size_t kKeySpace = 50000;
constexpr std::size_t kCapacity = 10000;  // 5x oversubscribed
constexpr int kWarmupOps = 60000;
constexpr int kMeasuredOps = 200000;

template <typename Lookup, typename Store>
MixResult run_mix(Lookup&& lookup, Store&& store) {
  const ZipfSampler zipf(kKeySpace);
  std::vector<std::string> keys;
  keys.reserve(kKeySpace);
  for (std::size_t i = 0; i < kKeySpace; ++i)
    keys.push_back("q" + std::to_string(i) + ".example/1");
  const auto answer = answer_for("zipf.example");

  util::Rng rng(2019);
  std::uint64_t hits = 0;
  const auto start = std::chrono::steady_clock::now();
  for (int op = 0; op < kWarmupOps + kMeasuredOps; ++op) {
    const std::string& key = keys[zipf.draw(rng)];
    if (lookup(key)) {
      if (op >= kWarmupOps) ++hits;
    } else {
      store(key, answer);
    }
  }
  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - start;
  MixResult result;
  result.hit_rate = static_cast<double>(hits) / kMeasuredOps;
  result.mops_per_s =
      (kWarmupOps + kMeasuredOps) / elapsed.count() / 1e6;
  return result;
}

int write_cache_comparison_json() {
  FlushOnFullCache flush(kCapacity);
  const MixResult old_result = run_mix(
      [&](const std::string& key) { return flush.lookup(key); },
      [&](const std::string& key, const cache::CachedAnswer& a) {
        flush.store(key, a);
      });

  cache::CacheConfig config;
  config.max_entries = kCapacity;
  cache::DnsCache sharded(config);
  std::vector<dns::ResourceRecord> answers;
  const MixResult new_result = run_mix(
      [&](const std::string& key) {
        return sharded.lookup(key, 0, answers).has_value();
      },
      [&](const std::string& key, const cache::CachedAnswer& a) {
        sharded.store(key, a, 0);
      });

  const bool guard_met = new_result.hit_rate > old_result.hit_rate;
  std::printf("zipf mix (%zu keys, capacity %zu): flush-on-full hit rate "
              "%.4f @ %.2f Mops/s, sharded LRU %.4f @ %.2f Mops/s\n",
              kKeySpace, kCapacity, old_result.hit_rate, old_result.mops_per_s,
              new_result.hit_rate, new_result.mops_per_s);
  if (!guard_met)
    std::fprintf(stderr, "warning: sharded hit rate %.4f is not strictly "
                         "above flush-on-full %.4f\n",
                 new_result.hit_rate, old_result.hit_rate);

  std::FILE* f = std::fopen("BENCH_cache.json", "w");
  if (f == nullptr) {
    std::fprintf(stderr, "warning: cannot write BENCH_cache.json\n");
    return 1;
  }
  std::fprintf(f,
               "{\n"
               "  \"experiment\": \"cache_eviction_policy\",\n"
               "  \"workload\": \"zipf s=1.0, %zu keys, capacity %zu, "
               "%d measured ops\",\n"
               "  \"flush_on_full_hit_rate\": %.4f,\n"
               "  \"flush_on_full_mops_per_s\": %.3f,\n"
               "  \"sharded_lru_hit_rate\": %.4f,\n"
               "  \"sharded_lru_mops_per_s\": %.3f,\n"
               "  \"guard\": \"sharded_lru_hit_rate > flush_on_full_hit_rate\",\n"
               "  \"guard_met\": %s\n"
               "}\n",
               kKeySpace, kCapacity, kMeasuredOps, old_result.hit_rate,
               old_result.mops_per_s, new_result.hit_rate,
               new_result.mops_per_s, guard_met ? "true" : "false");
  std::fclose(f);
  return guard_met ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return write_cache_comparison_json();
}
