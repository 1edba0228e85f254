// Sharded, TTL-aware DNS record cache (DESIGN.md §10).
//
// This replaces the resolver backends' old single-mutex map, which had three
// correctness defects: it wiped *everything* when full (a latency cliff for
// every concurrent client), it expired entries on civil-day boundaries
// regardless of record TTL, and it cached SERVFAIL upstream answers for a
// full day — RFC 2308 permits negative caching only for NXDOMAIN/NODATA,
// with a bounded TTL, and never for server failures.
//
// Design:
//   * Sharding — keys hash (fnv1a) onto a power-of-two shard array; each
//     shard holds its own mutex and slab, so concurrent sessions contend
//     only when they collide on a shard.
//   * Slab — a shard keeps its entries in one flat slot array that grows on
//     demand up to its capacity slice. LRU links are 32-bit slot indices,
//     and an open-addressed index keyed by the high half of the same fnv1a
//     hash finds a key's slot (the full key is compared on every probe). A
//     slot holds the key and the answer's wire form (encode_answer()),
//     spilling to the heap only when they do not fit, so an entry costs one
//     fixed-size slot instead of a handful of heap blocks.
//   * Eviction — when a shard reaches its capacity slice it evicts its
//     least-recently-used entry, one at a time, reusing the victim's slot. A
//     full cache degrades marginally (cold tail entries churn) instead of
//     collapsing to a 0% hit rate the way flush-on-full did.
//   * TTL — positive entries live for the minimum TTL across the answer's
//     records, clamped to [min_ttl_s, max_ttl_s]. Negative entries
//     (NXDOMAIN, or NOERROR with no records = NODATA) live for the bounded
//     negative_ttl_s (RFC 2308 §5). SERVFAIL and other error rcodes are
//     never stored.
//   * Serve-stale (RFC 8767) — optionally, entries that expired less than
//     max_stale_s ago can still be served via lookup_stale() when the
//     caller knows its upstream is failing.
//
// Determinism contract: all tallies are commutative atomics (summed obs
// counters), so totals are bit-identical for any thread count provided the
// workload's per-request hit/miss outcome is schedule-independent — unique
// or popular query names and a capacity at least the working-set size, the
// same contract the measurement experiments already relied on. Eviction
// order within a shard is a pure function of the operation sequence applied
// to it, which is what the deterministic-eviction unit tests pin down.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "dns/message.hpp"
#include "dns/types.hpp"
#include "util/rng.hpp"

namespace encdns::obs {
class Counter;
}  // namespace encdns::obs

namespace encdns::cache {

/// Tuning knobs. README "Resolver cache" documents the user-facing subset;
/// every field has an ENCDNS_* environment override via from_env().
struct CacheConfig {
  /// Total entry budget, divided evenly across shards (each shard evicts
  /// independently once its slice is full).
  std::size_t max_entries = 200000;
  /// Number of shards; clamped to a power of two in [1, 256].
  std::size_t shards = 16;
  /// Positive-entry TTL clamp (seconds).
  std::uint32_t min_ttl_s = 1;
  std::uint32_t max_ttl_s = 86400;
  /// RFC 2308 bounded negative TTL for NXDOMAIN/NODATA entries (seconds).
  std::uint32_t negative_ttl_s = 900;
  /// RFC 8767 serve-stale: answer from expired entries (within the window
  /// below) when the caller reports upstream failure. Off by default.
  bool serve_stale = false;
  std::uint32_t max_stale_s = 3600;

  /// Environment overrides, applied over `fallback`:
  ///   ENCDNS_CACHE_ENTRIES      — max_entries (positive integer)
  ///   ENCDNS_CACHE_NEG_TTL      — negative_ttl_s (seconds)
  ///   ENCDNS_CACHE_SERVE_STALE  — "on"/"1"/"true" or "off"/"0"/"false"
  [[nodiscard]] static CacheConfig from_env(CacheConfig fallback);
};

/// The cached payload: what a resolver needs to rebuild a response. Mirrors
/// resolver::Answer without depending on the resolver library (the resolver
/// depends on this module, not the other way around).
struct CachedAnswer {
  dns::RCode rcode = dns::RCode::kNoError;
  std::vector<dns::ResourceRecord> answers;

  /// Negatively cacheable content per RFC 2308: name error or no data.
  [[nodiscard]] static bool negative(dns::RCode rcode,
                                     std::size_t records) noexcept {
    return rcode == dns::RCode::kNxDomain ||
           (rcode == dns::RCode::kNoError && records == 0);
  }
  [[nodiscard]] bool negative() const noexcept {
    return negative(rcode, answers.size());
  }
};

/// The wire form of a cached answer — `Message{qr=1, rcode,
/// answers}.encode(false)` — which is what a slot stores, what
/// export_entries() hands out and what the checkpoint journal carries.
[[nodiscard]] std::vector<std::uint8_t> encode_answer(const CachedAnswer& answer);

/// Decode a wire-form answer into caller storage, reusing `answers`'
/// elements the way Message::decode_into does. Returns false (fail closed)
/// on malformed bytes and on any record outside the answer section.
[[nodiscard]] bool decode_answer_into(std::span<const std::uint8_t> wire,
                                      dns::RCode& rcode,
                                      std::vector<dns::ResourceRecord>& answers);

/// One cache entry in checkpoint-export form (DESIGN.md §13).
struct ExportedEntry {
  std::string key;
  std::vector<std::uint8_t> wire;  // encode_answer() bytes, as the slot held them
  std::int64_t expiry_s = 0;
};

/// Order-independent tallies (every field is a sum of per-operation
/// increments, so totals are thread-count invariant).
struct CacheStats {
  std::uint64_t hits = 0;           // fresh lookups answered
  std::uint64_t negative_hits = 0;  // subset of hits from negative entries
  std::uint64_t misses = 0;         // fresh lookups not answered
  std::uint64_t stale_served = 0;   // lookup_stale answers (RFC 8767)
  std::uint64_t stores = 0;         // inserts + refreshes
  std::uint64_t evictions = 0;      // LRU evictions at capacity
  std::uint64_t rejected = 0;       // uncacheable stores (SERVFAIL etc.)
};

class DnsCache {
 public:
  explicit DnsCache(CacheConfig config = {});
  ~DnsCache();
  DnsCache(const DnsCache&) = delete;
  DnsCache& operator=(const DnsCache&) = delete;

  /// A key and its fnv1a hash, whose low bits pick the shard and whose high
  /// half tags the key in the shard's index. Converts implicitly from any
  /// string, hashing it; a caller that makes several calls for one key (the
  /// resolver's lookup then store on a miss) builds it once and hashes once.
  /// It views `text`, which must outlive it.
  struct Key {
    Key(std::string_view text) noexcept : text(text), hash(util::fnv1a(text)) {}
    Key(const std::string& text) noexcept : Key(std::string_view(text)) {}
    Key(const char* text) noexcept : Key(std::string_view(text)) {}

    std::string_view text;
    std::uint64_t hash;
  };

  /// What a hit reports besides the records it decoded.
  struct Hit {
    dns::RCode rcode = dns::RCode::kNoError;
    bool stale = false;  // true only from lookup_stale()
  };

  /// Fresh lookup: answers iff the entry exists and now_s is strictly
  /// before its expiry. A hit decodes the entry's records under the shard
  /// lock straight into `answers`, reusing its elements' storage (a warmed
  /// vector decodes without allocating), and refreshes the entry's LRU
  /// position; a miss leaves `answers` untouched. A lookup of an expired
  /// entry does not refresh it (expired entries age out of the shard).
  [[nodiscard]] std::optional<Hit> lookup(
      const Key& key, std::int64_t now_s,
      std::vector<dns::ResourceRecord>& answers);

  /// RFC 8767 stale lookup, decoding into `answers` like lookup(): returns
  /// an *expired* entry that lapsed no more than max_stale_s ago. Also
  /// answers fresh entries (a caller that lost its upstream should still
  /// get the best local answer). Never refreshes the LRU position. Returns
  /// nullopt whenever serve_stale is disabled.
  [[nodiscard]] std::optional<Hit> lookup_stale(
      const Key& key, std::int64_t now_s,
      std::vector<dns::ResourceRecord>& answers);

  /// Store (insert or refresh, both moving the entry to most-recent) if the
  /// answer is cacheable; SERVFAIL and other error rcodes are rejected per
  /// RFC 2308. The answer is encoded before the shard lock is taken, and a
  /// store into a full shard reuses the LRU victim's slot, so steady-state
  /// stores allocate nothing unless an entry outgrows a slot. Returns
  /// whether stored.
  bool store(const Key& key, const CachedAnswer& answer, std::int64_t now_s);

  /// Whether an rcode may be cached at all.
  [[nodiscard]] static bool cacheable(dns::RCode rcode) noexcept {
    return rcode == dns::RCode::kNoError || rcode == dns::RCode::kNxDomain;
  }

  /// Effective lifetime for an answer under this config: the bounded
  /// negative TTL for negative content, else min-across-records clamped to
  /// [min_ttl_s, max_ttl_s].
  [[nodiscard]] std::uint32_t ttl_for(const CachedAnswer& answer) const noexcept;

  [[nodiscard]] std::size_t size() const;
  /// Live entry count per shard (diagnostics + shard-distribution tests).
  [[nodiscard]] std::vector<std::size_t> shard_sizes() const;
  [[nodiscard]] CacheStats stats() const noexcept;
  [[nodiscard]] const CacheConfig& config() const noexcept { return config_; }
  [[nodiscard]] std::size_t shard_count() const noexcept { return shards_.size(); }
  [[nodiscard]] std::size_t per_shard_capacity() const noexcept {
    return per_shard_capacity_;
  }

  void clear();

  /// Every entry, shard-by-shard in index order and most-recently-used
  /// first within each shard, its answer in the wire form the slot holds
  /// (the journal's entry layout, DESIGN.md §13). Deterministic for a fixed
  /// operation history; tallies are not included.
  [[nodiscard]] std::vector<ExportedEntry> export_entries() const;

  /// Owner-filtered export (task-graph checkpointing, DESIGN.md §15): only
  /// the entries whose last store happened under the attribution token
  /// `owner` (the storing thread's obs::current_tally() pointer). Under
  /// phase overlap a full-contents capture is polluted by concurrent
  /// phases' stores; each phase's record must carry its own stores only.
  [[nodiscard]] std::vector<ExportedEntry> export_entries(
      const void* owner) const;

  /// Additive restore for owner-filtered captures: replays the stores the
  /// capture records, oldest first per shard, as store() would — an
  /// existing key is refreshed and promoted, a new one enters at the
  /// most-recent end, and a full shard recycles its LRU victim — but counts
  /// nothing: the evictions that made room were counted by the run that
  /// captured the entries. The merged entries end up most recent, in the
  /// order export_entries() emitted them, and no shard passes its capacity
  /// slice. Merged entries are attributed to the calling thread's
  /// obs::current_tally(), exactly as if it had stored them. Requires the
  /// same shard configuration as the exporting cache, and wire bytes that
  /// came from an export or passed decode_answer_into() (the journal
  /// decoder checks every one); tallies are untouched.
  void merge_entries(const std::vector<ExportedEntry>& entries);

 private:
  class Shard;  // one shard's slab, defined in dns_cache.cpp

  CacheConfig config_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::size_t shard_mask_ = 0;
  std::size_t per_shard_capacity_ = 1;

  // Local tallies (exact, per-instance) plus process-wide obs counters
  // ("cache.lookup.*" / "cache.entry.*", DESIGN.md §9 naming) cached at
  // construction so hot paths never take the registry mutex.
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> negative_hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> stale_served_{0};
  std::atomic<std::uint64_t> stores_{0};
  std::atomic<std::uint64_t> evictions_{0};
  std::atomic<std::uint64_t> rejected_{0};
  obs::Counter* obs_hit_;
  obs::Counter* obs_negative_;
  obs::Counter* obs_miss_;
  obs::Counter* obs_stale_;
  obs::Counter* obs_store_;
  obs::Counter* obs_evict_;
  obs::Counter* obs_reject_;
};

}  // namespace encdns::cache
