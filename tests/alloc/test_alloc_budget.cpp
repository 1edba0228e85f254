// Allocation-regression harness for the query hot path (DESIGN.md §11).
//
// This binary replaces global operator new with a counting allocator and
// pins per-query steady-state allocation budgets for the Do53/DoT/DoH
// clients. Two kinds of pins:
//
//  - Relative: the reworked build+encode+frame hot path must allocate at
//    least 5x less than the legacy make_query+encode+frame_stream path,
//    measured in the same process (self-calibrating across allocators). The
//    pre-change hot path cost 64.0 allocs/query; the scratch path costs 0.
//  - Absolute ceilings: full client query() budgets (which include the
//    simulated resolver service, response decode and outcome bookkeeping)
//    must not regress past the post-change measurements plus headroom.
//
// Pre-change baselines (seed commit, glibc, -O2): do53_udp 92.1, do53_tcp
// 96.1, dot 136.0, doh GET 197.0, build+encode+frame 64.0 allocs/query.
//
// Under ASan/TSan the allocator is intercepted and counts shift, so every
// test skips — tools/check.sh runs the plain pass first, which enforces
// the budgets.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

// ---------------------------------------------------------------------------
// Counting allocator: one atomic bump per operator new.

namespace {
std::atomic<unsigned long long> g_alloc_count{0};
}  // namespace

void* operator new(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

#include "cache/dns_cache.hpp"
#include "client/do53.hpp"
#include "client/doh.hpp"
#include "client/dot.hpp"
#include "dns/query.hpp"
#include "dns/wire.hpp"
#include "exec/arena.hpp"
#include "http/url.hpp"
#include "measure/reachability.hpp"
#include "proxy/proxy.hpp"
#include "scan/doh_prober.hpp"
#include "world/world.hpp"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define ENCDNS_ALLOC_TEST_SANITIZED 1
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define ENCDNS_ALLOC_TEST_SANITIZED 1
#endif
#endif

namespace encdns {
namespace {

constexpr int kWarmup = 100;
constexpr int kMeasured = 400;

// Pre-change hot-path cost, pinned from the seed commit's measurement. The
// 5x acceptance bound below is asserted against this constant *and* against
// the legacy path measured in-process.
constexpr double kPreChangeHotPathAllocs = 64.0;

// Absolute steady-state ceilings: measurements with flat wire-form names
// (8.1 / 8.1 / 16.0 / 17.0 in this harness, down from 13.1 / 13.1 / 21.0 /
// 22.0 with one heap string per label) plus ~20% headroom for
// allocator/library drift and test-order effects on the shared world.
constexpr double kBudgetDo53Udp = 10.0;
constexpr double kBudgetDo53Tcp = 10.0;
constexpr double kBudgetDot = 19.5;
constexpr double kBudgetDoh = 20.5;

world::World& shared_world() {
  static world::World instance;
  return instance;
}

/// Allocations per iteration of `fn`, after a warmup that fills connection
/// pools, scratch capacities and arena buffers.
template <typename Fn>
double allocs_per_query(Fn&& fn) {
  for (int i = 0; i < kWarmup; ++i) fn(i);
  const auto before = g_alloc_count.load(std::memory_order_relaxed);
  for (int i = kWarmup; i < kWarmup + kMeasured; ++i) fn(i);
  const auto after = g_alloc_count.load(std::memory_order_relaxed);
  return static_cast<double>(after - before) / kMeasured;
}

std::vector<dns::Name> probe_names(std::size_t count, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<dns::Name> names;
  names.reserve(count);
  for (std::size_t i = 0; i < count; ++i)
    names.push_back(shared_world().unique_probe_name(rng));
  return names;
}

class AllocBudgetTest : public ::testing::Test {
 protected:
  void SetUp() override {
#ifdef ENCDNS_ALLOC_TEST_SANITIZED
    GTEST_SKIP() << "counting allocator is not meaningful under sanitizers";
#endif
  }
};

TEST_F(AllocBudgetTest, HotPathAtLeastFiveTimesBelowPreChange) {
  const auto names = probe_names(kWarmup + kMeasured, 11);

  // Legacy path, as every client ran before the rework: build a fresh
  // message, pad via re-encode, encode to a fresh vector, frame via copy.
  // (No gtest macros inside measured loops: a failing expectation would
  // allocate and skew the count — tally and assert afterwards.)
  std::size_t bad = 0;
  const double legacy = allocs_per_query([&](int i) {
    dns::QueryOptions options;
    options.padding_block = 128;
    const auto query = dns::make_query(names[static_cast<std::size_t>(i)],
                                       dns::RrType::kA, 0x1234, options);
    const auto framed = dns::frame_stream(query.encode());
    if (framed.size() <= 2) ++bad;
  });

  // Reworked path: scratch message + arena lease + in-place framing.
  dns::Message scratch;
  const double reworked = allocs_per_query([&](int i) {
    dns::QueryOptions options;
    options.padding_block = 128;
    dns::build_query_into(scratch, names[static_cast<std::size_t>(i)],
                          dns::RrType::kA, 0x1234, options);
    exec::BufferLease lease;
    dns::WireWriter writer(*lease);
    const std::size_t prefix = writer.begin_stream_frame();
    scratch.encode_into(writer);
    writer.end_stream_frame(prefix);
    if (writer.size() <= 2) ++bad;
  });
  EXPECT_EQ(bad, 0u);

  RecordProperty("legacy_allocs_per_query", static_cast<int>(legacy * 10));
  RecordProperty("reworked_allocs_per_query", static_cast<int>(reworked * 10));
  EXPECT_GT(legacy, 1.0) << "counting allocator appears inert";
  // The acceptance bound: >= 5x below the pre-change count...
  EXPECT_LE(reworked * 5.0, kPreChangeHotPathAllocs);
  // ...and below whatever the legacy path costs on this toolchain.
  EXPECT_LE(reworked * 5.0, legacy);
  // In steady state the path is flat-out allocation-free.
  EXPECT_LE(reworked, 0.5);
}

TEST_F(AllocBudgetTest, Do53SteadyStateBudgets) {
  const auto names = probe_names(2 * (kWarmup + kMeasured), 12);
  world::Vantage vantage = shared_world().make_clean_vantage("US");
  const util::Date day{2019, 3, 10};

  client::Do53Client udp_client(shared_world().network(), vantage.context, 21);
  std::size_t failures = 0;
  const double udp = allocs_per_query([&](int i) {
    const auto outcome = udp_client.query_udp(
        world::addrs::kGooglePrimary, names[static_cast<std::size_t>(i)],
        dns::RrType::kA, day);
    if (outcome.status != client::QueryStatus::kOk) ++failures;
  });
  EXPECT_EQ(failures, 0u);
  RecordProperty("do53_udp_allocs_per_query", static_cast<int>(udp * 10));
  EXPECT_LE(udp, kBudgetDo53Udp);

  client::Do53Client tcp_client(shared_world().network(), vantage.context, 22);
  std::size_t offset = kWarmup + kMeasured;
  const double tcp = allocs_per_query([&](int i) {
    const auto outcome = tcp_client.query_tcp(
        world::addrs::kCloudflarePrimary,
        names[offset + static_cast<std::size_t>(i)], dns::RrType::kA, day);
    if (outcome.status != client::QueryStatus::kOk) ++failures;
  });
  EXPECT_EQ(failures, 0u);
  RecordProperty("do53_tcp_allocs_per_query", static_cast<int>(tcp * 10));
  EXPECT_LE(tcp, kBudgetDo53Tcp);
}

TEST_F(AllocBudgetTest, DotSteadyStateBudget) {
  const auto names = probe_names(kWarmup + kMeasured, 13);
  world::Vantage vantage = shared_world().make_clean_vantage("US");
  const util::Date day{2019, 3, 10};

  client::DotClient dot_client(shared_world().network(), vantage.context, 23);
  std::size_t failures = 0;
  const double dot = allocs_per_query([&](int i) {
    const auto outcome =
        dot_client.query(world::addrs::kCloudflarePrimary,
                         names[static_cast<std::size_t>(i)], dns::RrType::kA, day);
    if (outcome.status != client::QueryStatus::kOk) ++failures;
  });
  EXPECT_EQ(failures, 0u);
  RecordProperty("dot_allocs_per_query", static_cast<int>(dot * 10));
  EXPECT_LE(dot, kBudgetDot);
  // Also keep the pre-change count (136.0) unreachable: at least 2x under it.
  EXPECT_LE(dot * 2.0, 136.0);
}

TEST_F(AllocBudgetTest, DohSteadyStateBudget) {
  const auto names = probe_names(kWarmup + kMeasured, 14);
  world::Vantage vantage = shared_world().make_clean_vantage("US");
  const util::Date day{2019, 3, 10};

  client::DohClient doh_client(shared_world().network(), vantage.context, 24);
  const auto uri = http::UriTemplate::parse(
      "https://mozilla.cloudflare-dns.com/dns-query{?dns}");
  ASSERT_TRUE(uri.has_value());
  client::DohClient::Options options;
  options.bootstrap_resolver = world::addrs::kGooglePrimary;
  std::size_t failures = 0;
  const double doh = allocs_per_query([&](int i) {
    const auto outcome = doh_client.query(
        *uri, names[static_cast<std::size_t>(i)], dns::RrType::kA, day, options);
    if (outcome.status != client::QueryStatus::kOk) ++failures;
  });
  EXPECT_EQ(failures, 0u);
  RecordProperty("doh_allocs_per_query", static_cast<int>(doh * 10));
  EXPECT_LE(doh, kBudgetDoh);
  // Pre-change count (197.0): at least 1.5x under it.
  EXPECT_LE(doh * 1.5, 197.0);
}

// --- measurement-phase budgets (DESIGN.md §12) ------------------------------
//
// The per-client / per-check budgets below guard the arena discipline through
// the measurement fan-out, not just the wire codec: thread-resident client
// sets, slot-reusing query paths, pointer-shared certificate chains and
// epoch-gated bootstrap caches. Pre-change full-scale costs (seed commit,
// glibc, -O2, from BENCH_throughput.json): reachability_global 1175.28
// allocs/client, doh_discovery 536.34 allocs/url_check.

constexpr double kPreChangeReachabilityAllocs = 1175.28;
constexpr double kPreChangeDohDiscoveryAllocs = 536.34;

// Absolute ceilings: this harness's measurements with flat wire-form names
// (41.6 per client, 14.5 per check; 56.8 and 15.7 before) plus ~20%
// headroom. bench_macro_study --guard holds its full-scale phase rows to
// ceilings derived the same way from its own measurements.
constexpr double kBudgetReachabilityPerClient = 50.0;
constexpr double kBudgetDohDiscoveryPerCheck = 17.5;

TEST_F(AllocBudgetTest, ReachabilityPerClientBudget) {
  proxy::ProxyConfig platform_config;
  platform_config.name = "ProxyRack";
  platform_config.kind = proxy::PlatformKind::kGlobal;
  proxy::ProxyNetwork platform(shared_world(), platform_config, 0x91ACULL);

  measure::ReachabilityConfig config;
  config.thread_count = 1;  // inline workers: thread_local scratch persists
  config.seed = 17;

  // Warm run: fills the thread-resident ClientSet, outcome scratch, arena
  // leases and the resolver caches' steady-state capacities.
  config.client_count = 150;
  measure::ReachabilityTest warm(shared_world(), platform, config);
  const auto warm_results = warm.run();
  ASSERT_EQ(warm_results.clients, 150u);

  constexpr std::size_t kClients = 400;
  config.client_count = kClients;
  measure::ReachabilityTest test(shared_world(), platform, config);
  const auto before = g_alloc_count.load(std::memory_order_relaxed);
  const auto results = test.run();
  const auto after = g_alloc_count.load(std::memory_order_relaxed);
  ASSERT_EQ(results.clients, kClients);

  const double per_client =
      static_cast<double>(after - before) / static_cast<double>(kClients);
  RecordProperty("reachability_allocs_per_client",
                 static_cast<int>(per_client * 10));
  EXPECT_LE(per_client, kBudgetReachabilityPerClient);
  // Ratio pin: at least 5x below the pre-change per-client cost, so the
  // budget cannot be met by merely inflating the ceiling later.
  EXPECT_LE(per_client * 5.0, kPreChangeReachabilityAllocs);
}

TEST_F(AllocBudgetTest, DohDiscoveryPerCheckBudget) {
  const world::Vantage origin = shared_world().make_clean_vantage("US");
  const util::Date day{2019, 1, 20};
  scan::DohProber prober(shared_world(), origin, 77);
  const auto& urls = shared_world().url_dataset();

  // Warm run: the prober's client scratch, the URL prefilter and the probe
  // templates all reach steady state.
  const auto warm_discovery = prober.discover(urls, day);
  ASSERT_GT(warm_discovery.valid_urls, 0u);

  const auto before = g_alloc_count.load(std::memory_order_relaxed);
  const auto discovery = prober.discover(urls, day);
  const auto after = g_alloc_count.load(std::memory_order_relaxed);
  ASSERT_GT(discovery.valid_urls, 0u);

  // Same unit as the bench guard: phase allocations per *validated* URL
  // (the funnel's work unit; the 20k-URL prefilter sweep is included).
  const double per_check = static_cast<double>(after - before) /
                           static_cast<double>(discovery.valid_urls);
  RecordProperty("doh_discovery_allocs_per_check",
                 static_cast<int>(per_check * 10));
  EXPECT_LE(per_check, kBudgetDohDiscoveryPerCheck);
  EXPECT_LE(per_check * 4.0, kPreChangeDohDiscoveryAllocs);
}

// --- record cache (DESIGN.md §10) -------------------------------------------
//
// A slab slot holds the key and the answer's wire bytes, so once warm a hit
// decodes into the caller's record vector and a store into a full shard
// copies bytes into the LRU victim's slot: neither touches the allocator.

TEST_F(AllocBudgetTest, CacheHitAndFullShardStoreAllocateNothing) {
  constexpr std::size_t kCapacity = 64;
  cache::CacheConfig config;
  config.shards = 1;
  config.max_entries = kCapacity;
  cache::DnsCache cache(config);

  // Probe-shaped entries, as the §4 phases store them.
  const auto names = probe_names(kWarmup + kMeasured, 15);
  std::vector<std::string> keys;
  std::vector<cache::CachedAnswer> answers;
  for (const auto& name : names) {
    keys.push_back(name.canonical() + "/1");
    answers.push_back(cache::CachedAnswer{
        dns::RCode::kNoError,
        {dns::ResourceRecord::a(name, shared_world().probe_answer(), 60)}});
  }

  // Warm-up fills the shard past capacity: every measured store evicts.
  std::size_t failures = 0;
  const double store = allocs_per_query([&](int i) {
    const auto k = static_cast<std::size_t>(i);
    if (!cache.store(keys[k], answers[k], 0)) ++failures;
  });
  ASSERT_EQ(cache.size(), kCapacity);

  // The last kCapacity keys are resident; hits cycle through them.
  std::vector<dns::ResourceRecord> records;
  const double hit = allocs_per_query([&](int i) {
    const std::size_t k =
        keys.size() - 1 - static_cast<std::size_t>(i) % kCapacity;
    if (!cache.lookup(keys[k], 1, records)) ++failures;
  });
  EXPECT_EQ(failures, 0u);
  EXPECT_EQ(store, 0.0);
  EXPECT_EQ(hit, 0.0);
}

TEST_F(AllocBudgetTest, ArenaLeasesReuseBuffersAfterWarmup) {
  exec::ScratchArena arena;
  {
    exec::BufferLease a(arena);
    exec::BufferLease b(arena);  // nested (reentrant) lease
    a->resize(512);
    b->resize(128);
  }
  EXPECT_EQ(arena.created(), 2u);
  EXPECT_EQ(arena.available(), 2u);
  const auto before = g_alloc_count.load(std::memory_order_relaxed);
  for (int i = 0; i < 100; ++i) {
    exec::BufferLease lease(arena);
    lease->assign(256, 0x5a);  // fits the warmed capacity
  }
  const auto after = g_alloc_count.load(std::memory_order_relaxed);
#ifndef ENCDNS_ALLOC_TEST_SANITIZED
  EXPECT_EQ(after, before) << "warmed leases must not allocate";
#endif
  EXPECT_EQ(arena.created(), 2u);
}

}  // namespace
}  // namespace encdns
