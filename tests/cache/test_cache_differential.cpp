// Exact-LRU differential test for the slab record cache (DESIGN.md §10).
//
// ReferenceCache keeps the semantics of the cache the slab replaced as a
// model: per shard a std::list LRU (front = most recent) plus a key ->
// iterator map, the same fnv1a shard choice and capacity slice, entries
// holding decoded records. Seeded random streams of every cache operation
// drive it and DnsCache side by side over 1, 4 and 16 shards at 1-8
// entries per shard; after every step the answers, stats(), shard_sizes()
// and the export order must agree.
#include <gtest/gtest.h>

#include <iterator>
#include <list>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "cache/dns_cache.hpp"
#include "obs/metrics.hpp"
#include "util/rng.hpp"

namespace encdns::cache {
namespace {

struct RefEntry {
  std::string key;
  CachedAnswer answer;
  std::int64_t expiry_s = 0;
  const void* owner = nullptr;
};

class ReferenceCache {
 public:
  explicit ReferenceCache(const DnsCache& real)
      : real_(real), shards_(real.shard_count()) {}

  std::optional<CachedAnswer> lookup(const std::string& key, std::int64_t now_s) {
    Shard& shard = shard_for(key);
    const auto it = shard.index.find(key);
    if (it == shard.index.end() || now_s >= it->second->expiry_s) {
      ++stats.misses;
      return std::nullopt;
    }
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    ++stats.hits;
    if (it->second->answer.negative()) ++stats.negative_hits;
    return it->second->answer;
  }

  std::optional<std::pair<CachedAnswer, bool>> lookup_stale(
      const std::string& key, std::int64_t now_s) {
    Shard& shard = shard_for(key);
    const auto it = shard.index.find(key);
    if (!real_.config().serve_stale || it == shard.index.end()) return std::nullopt;
    const std::int64_t expiry = it->second->expiry_s;
    if (now_s >= expiry + real_.config().max_stale_s) return std::nullopt;
    if (now_s >= expiry) ++stats.stale_served;
    return std::pair{it->second->answer, now_s >= expiry};
  }

  bool store(const std::string& key, const CachedAnswer& answer,
             std::int64_t now_s, const void* owner) {
    if (!DnsCache::cacheable(answer.rcode)) {
      ++stats.rejected;
      return false;
    }
    stats.evictions += insert({key, answer, now_s + real_.ttl_for(answer), owner});
    ++stats.stores;
    return true;
  }

  /// Every entry (or only `owner`'s), shard by shard, most recent first.
  std::vector<RefEntry> export_entries(std::optional<const void*> owner) const {
    std::vector<RefEntry> out;
    for (const Shard& shard : shards_)
      for (const RefEntry& entry : shard.lru)
        if (!owner || entry.owner == *owner) out.push_back(entry);
    return out;
  }

  /// Replays the capture's stores, oldest first, counting nothing.
  void merge(const std::vector<RefEntry>& entries, const void* owner) {
    for (auto in = entries.rbegin(); in != entries.rend(); ++in)
      (void)insert({in->key, in->answer, in->expiry_s, owner});
  }
  void clear() {
    for (Shard& shard : shards_) {
      shard.lru.clear();
      shard.index.clear();
    }
  }
  std::vector<std::size_t> shard_sizes() const {
    std::vector<std::size_t> sizes;
    for (const Shard& shard : shards_) sizes.push_back(shard.lru.size());
    return sizes;
  }

  CacheStats stats;

 private:
  struct Shard {
    std::list<RefEntry> lru;  // front = most recently used
    std::unordered_map<std::string, std::list<RefEntry>::iterator> index;
  };

  Shard& shard_for(const std::string& key) {
    return shards_[util::fnv1a(key) & (shards_.size() - 1)];
  }

  /// A store's effect on the LRU: an existing key is refreshed and moved to
  /// the front; a new one enters at the front after a full shard evicts
  /// its tail. Returns the number evicted.
  std::uint64_t insert(RefEntry entry) {
    Shard& shard = shard_for(entry.key);
    if (const auto it = shard.index.find(entry.key); it != shard.index.end()) {
      *it->second = std::move(entry);
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
      return 0;
    }
    std::uint64_t evicted = 0;
    if (shard.lru.size() >= real_.per_shard_capacity()) {
      shard.index.erase(shard.lru.back().key);
      shard.lru.pop_back();
      evicted = 1;
    }
    shard.lru.push_front(std::move(entry));
    shard.index.emplace(shard.lru.front().key, shard.lru.begin());
    return evicted;
  }

  const DnsCache& real_;
  std::vector<Shard> shards_;
};

// --- comparison helpers ------------------------------------------------------

[[nodiscard]] bool same_records(const std::vector<dns::ResourceRecord>& a,
                                const std::vector<dns::ResourceRecord>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].name.labels() != b[i].name.labels() || a[i].type != b[i].type ||
        a[i].klass != b[i].klass || a[i].ttl != b[i].ttl ||
        !(a[i].rdata == b[i].rdata))
      return false;
  }
  return true;
}

void expect_same_export(const std::vector<ExportedEntry>& real,
                        const std::vector<RefEntry>& ref) {
  ASSERT_EQ(real.size(), ref.size());
  std::vector<dns::ResourceRecord> records;
  for (std::size_t i = 0; i < real.size(); ++i) {
    ASSERT_EQ(real[i].key, ref[i].key) << "export position " << i;
    ASSERT_EQ(real[i].expiry_s, ref[i].expiry_s) << real[i].key;
    ASSERT_EQ(real[i].wire, encode_answer(ref[i].answer)) << real[i].key;
    dns::RCode rcode = dns::RCode::kNoError;
    ASSERT_TRUE(decode_answer_into(real[i].wire, rcode, records)) << real[i].key;
    ASSERT_EQ(rcode, ref[i].answer.rcode) << real[i].key;
    ASSERT_TRUE(same_records(records, ref[i].answer.answers)) << real[i].key;
  }
}

void expect_same_state(const DnsCache& real, const ReferenceCache& ref) {
  const CacheStats a = real.stats();
  const CacheStats& b = ref.stats;
  ASSERT_EQ(a.hits, b.hits);
  ASSERT_EQ(a.negative_hits, b.negative_hits);
  ASSERT_EQ(a.misses, b.misses);
  ASSERT_EQ(a.stale_served, b.stale_served);
  ASSERT_EQ(a.stores, b.stores);
  ASSERT_EQ(a.evictions, b.evictions);
  ASSERT_EQ(a.rejected, b.rejected);
  ASSERT_EQ(real.shard_sizes(), ref.shard_sizes());
  expect_same_export(real.export_entries(), ref.export_entries(std::nullopt));
}

void expect_same_lookup(DnsCache& real, ReferenceCache& ref,
                        const std::string& key, std::int64_t now_s) {
  // A miss must leave the caller's storage alone, so start from a sentinel.
  const dns::ResourceRecord sentinel = dns::ResourceRecord::a(
      *dns::Name::parse("sentinel.test"), util::Ipv4(203, 0, 113, 1));
  std::vector<dns::ResourceRecord> records{sentinel};
  const auto got = real.lookup(key, now_s, records);
  const auto want = ref.lookup(key, now_s);
  ASSERT_EQ(got.has_value(), want.has_value()) << key << " @" << now_s;
  if (!got) {
    ASSERT_TRUE(same_records(records, {sentinel})) << key;
    return;
  }
  ASSERT_EQ(got->rcode, want->rcode) << key;
  ASSERT_FALSE(got->stale);
  ASSERT_TRUE(same_records(records, want->answers)) << key;
}

void expect_same_stale_lookup(DnsCache& real, ReferenceCache& ref,
                              const std::string& key, std::int64_t now_s) {
  std::vector<dns::ResourceRecord> records;
  const auto got = real.lookup_stale(key, now_s, records);
  const auto want = ref.lookup_stale(key, now_s);
  ASSERT_EQ(got.has_value(), want.has_value()) << key << " @" << now_s;
  if (!got) return;
  ASSERT_EQ(got->rcode, want->first.rcode) << key;
  ASSERT_EQ(got->stale, want->second) << key;
  ASSERT_TRUE(same_records(records, want->first.answers)) << key;
}

// --- answers -----------------------------------------------------------------

/// The 60-record answer of tests/resolver/test_truncation.cpp: far too large
/// for a slot's inline bytes, so it lives in the slot's heap block.
[[nodiscard]] CachedAnswer fat_answer(const dns::Name& owner) {
  CachedAnswer answer;
  for (std::uint32_t i = 0; i < 60; ++i)
    answer.answers.push_back(
        dns::ResourceRecord::a(owner, util::Ipv4{0x0A000000u + i}, 60));
  return answer;
}

/// Every answer shape the streams store: A sets, AAAA, CNAME chains, SOA,
/// TXT, NXDOMAIN, NODATA, SERVFAIL (rejected) and the 60-record answer.
[[nodiscard]] CachedAnswer random_answer(util::Rng& rng, const dns::Name& owner) {
  static constexpr std::uint32_t kTtls[] = {1, 40, 300, 3600, 90000};
  const std::uint32_t ttl = kTtls[rng.below(5)];
  CachedAnswer answer;
  switch (rng.below(10)) {
    case 0:
      answer.rcode = dns::RCode::kNxDomain;
      break;
    case 1:
      break;  // NODATA
    case 2:
      answer.rcode = dns::RCode::kServFail;
      break;
    case 3: {
      dns::Ipv6Bytes v6{};
      v6[0] = 0x20;
      v6[1] = 0x01;
      v6[15] = static_cast<std::uint8_t>(rng.below(256));
      answer.answers.push_back(dns::ResourceRecord::aaaa(owner, v6, ttl));
      break;
    }
    case 4: {
      const dns::Name target = *owner.prefixed_with("edge");
      answer.answers.push_back(dns::ResourceRecord::cname(owner, target, ttl));
      answer.answers.push_back(dns::ResourceRecord::a(
          target, util::Ipv4(192, 0, 2, static_cast<std::uint8_t>(rng.below(256))),
          ttl));
      break;
    }
    case 5: {
      dns::SoaData soa;
      soa.mname = *owner.prefixed_with("ns1");
      soa.rname = *owner.prefixed_with("hostmaster");
      soa.serial = static_cast<std::uint32_t>(rng.next());
      answer.answers.push_back(dns::ResourceRecord::soa(owner, soa, ttl));
      break;
    }
    case 6: {
      dns::TxtData strings{"v=spf1 -all"};
      if (rng.chance(0.5)) strings.push_back("");
      answer.answers.push_back(dns::ResourceRecord::txt(owner, strings, ttl));
      break;
    }
    case 7:
      answer = fat_answer(owner);
      break;
    default: {
      const std::uint64_t records = 1 + rng.below(3);
      for (std::uint64_t i = 0; i < records; ++i)
        answer.answers.push_back(dns::ResourceRecord::a(
            owner, util::Ipv4(198, 51, 100, static_cast<std::uint8_t>(i)), ttl));
    }
  }
  return answer;
}

// --- the streams -------------------------------------------------------------

void run_stream(std::size_t shards, std::size_t per_shard, std::uint64_t seed) {
  SCOPED_TRACE("shards " + std::to_string(shards) + ", per shard " +
               std::to_string(per_shard) + ", seed " + std::to_string(seed));
  CacheConfig config;
  config.shards = shards;
  config.max_entries = shards * per_shard;
  config.serve_stale = true;
  config.max_stale_s = 600;
  config.negative_ttl_s = 120;
  DnsCache real(config);
  ReferenceCache ref(real);
  ASSERT_EQ(real.per_shard_capacity(), per_shard);

  std::vector<std::string> keys;
  std::vector<dns::Name> names;
  for (std::size_t i = 0; i < 3 * shards * per_shard + 2; ++i) {
    const std::string name = "k" + std::to_string(i) + ".test";
    keys.push_back(name + "/1");
    names.push_back(*dns::Name::parse(name));
  }
  obs::PhaseTally phase_a;
  obs::PhaseTally phase_b;
  obs::PhaseTally* const owners[] = {nullptr, &phase_a, &phase_b};

  std::vector<ExportedEntry> saved_real;
  std::vector<RefEntry> saved_ref;
  util::Rng rng(seed);
  std::int64_t now = 1000;
  for (int step = 0; step < 300; ++step) {
    SCOPED_TRACE("step " + std::to_string(step));
    if (rng.below(4) == 0) now += static_cast<std::int64_t>(rng.below(500));
    const std::size_t k = rng.below(keys.size());
    obs::PhaseTally* const owner = owners[rng.below(3)];
    const obs::ScopedTally scope(owner);
    const std::uint64_t op = rng.below(100);
    if (op < 40) {
      const CachedAnswer answer = random_answer(rng, names[k]);
      ASSERT_EQ(real.store(keys[k], answer, now),
                ref.store(keys[k], answer, now, owner));
    } else if (op < 65) {
      expect_same_lookup(real, ref, keys[k], now);
    } else if (op < 75) {
      expect_same_stale_lookup(real, ref, keys[k], now);
    } else if (op < 85) {
      // Export all or by owner; the capture feeds later restores and merges.
      const bool by_owner = op >= 80;
      saved_real = by_owner ? real.export_entries(owner) : real.export_entries();
      saved_ref = ref.export_entries(by_owner ? std::optional<const void*>(owner)
                                              : std::nullopt);
      expect_same_export(saved_real, saved_ref);
    } else if (op < 89) {
      // A whole restore: merge the capture into an emptied cache, stored
      // under no attribution.
      const obs::ScopedTally unattributed(nullptr);
      real.clear();
      real.merge_entries(saved_real);
      ref.clear();
      ref.merge(saved_ref, nullptr);
    } else if (op < 97) {
      real.merge_entries(saved_real);
      ref.merge(saved_ref, owner);
    } else {
      real.clear();
      ref.clear();
    }
    if (::testing::Test::HasFatalFailure()) return;
    expect_same_state(real, ref);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(DnsCacheDifferential, RandomStreamsMatchTheListAndMapModel) {
  for (const std::size_t shards : {1u, 4u, 16u})
    for (const std::size_t per_shard : {1u, 2u, 3u, 5u, 8u})
      for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        run_stream(shards, per_shard, seed * 7919 + shards * 31 + per_shard);
        if (HasFatalFailure()) return;
      }
}

// A merge replays the capture's stores oldest first without counting their
// evictions: it never leaves a shard past its slice, the captured entries end
// up most recent, and the next insert evicts exactly one entry.
TEST(DnsCacheDifferential, MergeReplaysStoresWithoutCountingEvictions) {
  CacheConfig config;
  config.shards = 1;
  config.max_entries = 3;
  DnsCache real(config);
  ReferenceCache ref(real);
  const auto store = [&](const std::string& name) {
    const CachedAnswer answer{
        dns::RCode::kNoError,
        {dns::ResourceRecord::a(*dns::Name::parse(name), util::Ipv4(192, 0, 2, 1))}};
    ASSERT_TRUE(real.store(name + "/1", answer, 0));
    ASSERT_TRUE(ref.store(name + "/1", answer, 0, nullptr));
  };
  for (const char* name : {"a.test", "b.test", "c.test"}) store(name);
  const auto saved_real = real.export_entries();
  const auto saved_ref = ref.export_entries(std::nullopt);
  real.clear();
  ref.clear();
  for (const char* name : {"d.test", "e.test", "f.test"}) store(name);

  real.merge_entries(saved_real);
  ref.merge(saved_ref, nullptr);
  EXPECT_EQ(real.size(), 3u);  // a, b and c pushed d, e and f out
  EXPECT_EQ(real.stats().evictions, 0u);
  expect_same_state(real, ref);
  expect_same_export(real.export_entries(), saved_ref);

  store("g.test");
  // Only the LRU victim a.
  EXPECT_EQ(real.stats().evictions, 1u);
  EXPECT_EQ(real.size(), 3u);
  expect_same_state(real, ref);
  for (const char* gone : {"a.test/1", "d.test/1", "e.test/1", "f.test/1"})
    expect_same_lookup(real, ref, gone, 1);
  for (const char* kept : {"b.test/1", "c.test/1", "g.test/1"})
    expect_same_lookup(real, ref, kept, 1);
  EXPECT_EQ(real.stats().hits, 3u);
}

// An answer too large for a slot's inline bytes spills to the heap; its slot
// is then recycled for small entries and back, with every answer intact.
TEST(DnsCacheDifferential, SixtyRecordAnswerSpillsAndItsSlotIsRecycled) {
  CacheConfig config;
  config.shards = 1;
  config.max_entries = 2;
  DnsCache real(config);
  ReferenceCache ref(real);
  const dns::Name big = *dns::Name::parse("big.fat.test");
  const CachedAnswer fat = fat_answer(big);
  ASSERT_GT(encode_answer(fat).size(), 1000u);

  const auto store = [&](const std::string& key, const CachedAnswer& answer,
                         std::int64_t now) {
    ASSERT_TRUE(real.store(key, answer, now));
    ASSERT_TRUE(ref.store(key, answer, now, nullptr));
  };
  const auto small = [](const char* name) {
    return CachedAnswer{dns::RCode::kNoError,
                        {dns::ResourceRecord::a(*dns::Name::parse(name),
                                                util::Ipv4(192, 0, 2, 5))}};
  };
  store("big.fat.test/1", fat, 0);
  expect_same_lookup(real, ref, "big.fat.test/1", 1);
  expect_same_state(real, ref);
  // Two small stores evict the fat entry; its slot now holds a small one.
  store("s1.test/1", small("s1.test"), 1);
  store("s2.test/1", small("s2.test"), 1);
  expect_same_lookup(real, ref, "big.fat.test/1", 2);
  expect_same_state(real, ref);
  // And back: a fat answer into a recycled small slot, then a refresh.
  store("big.fat.test/1", fat, 2);
  store("big.fat.test/1", fat_answer(big), 3);
  expect_same_lookup(real, ref, "big.fat.test/1", 4);
  expect_same_state(real, ref);
}

TEST(DnsCacheDifferential, CnameSoaTxtAndAaaaRdataRoundTrip) {
  CacheConfig config;
  config.shards = 4;
  config.max_entries = 64;
  DnsCache real(config);
  ReferenceCache ref(real);
  // Draw until every rdata shape the stream knows has been stored twice.
  util::Rng rng(2019);
  for (int i = 0; i < 80; ++i) {
    const std::string name = "shape" + std::to_string(i) + ".test";
    const CachedAnswer answer = random_answer(rng, *dns::Name::parse(name));
    ASSERT_EQ(real.store(name + "/1", answer, 0),
              ref.store(name + "/1", answer, 0, nullptr));
  }
  std::size_t cname = 0, soa = 0, txt = 0, aaaa = 0;
  for (const auto& entry : ref.export_entries(std::nullopt))
    for (const auto& record : entry.answer.answers) {
      cname += record.type == dns::RrType::kCname;
      soa += record.type == dns::RrType::kSoa;
      txt += record.type == dns::RrType::kTxt;
      aaaa += record.type == dns::RrType::kAaaa;
    }
  EXPECT_GE(cname, 2u);
  EXPECT_GE(soa, 2u);
  EXPECT_GE(txt, 2u);
  EXPECT_GE(aaaa, 2u);
  for (int i = 0; i < 80; ++i)
    expect_same_lookup(real, ref, "shape" + std::to_string(i) + ".test/1", 1);
  expect_same_state(real, ref);
}

}  // namespace
}  // namespace encdns::cache
