#include "cache/dns_cache.hpp"

#include <algorithm>
#include <cstring>
#include <limits>
#include <mutex>
#include <stdexcept>
#include <type_traits>

#include "dns/wire.hpp"
#include "obs/metrics.hpp"
#include "util/env.hpp"
#include "util/rng.hpp"

namespace encdns::cache {
namespace {

[[nodiscard]] std::size_t floor_pow2(std::size_t n) noexcept {
  std::size_t p = 1;
  while (p * 2 <= n) p *= 2;
  return p;
}

[[nodiscard]] std::size_t ceil_pow2(std::size_t n) noexcept {
  std::size_t p = 1;
  while (p < n) p *= 2;
  return p;
}

constexpr std::uint32_t kNil = std::numeric_limits<std::uint32_t>::max();

/// A key's index tag: the high half of the fnv1a hash whose low bits picked
/// the shard, so the index needs no second hash and its probe positions do
/// not depend on the shard choice.
[[nodiscard]] std::uint32_t tag_of(std::uint64_t hash) noexcept {
  return static_cast<std::uint32_t>(hash >> 32);
}

void encode_answer_to(const CachedAnswer& answer,
                      std::vector<std::uint8_t>& out) {
  dns::Header header;
  header.qr = true;
  header.rcode = answer.rcode;
  dns::WireWriter writer(out);
  dns::encode_answer_only_into(writer, header, answer.answers,
                               /*compress=*/false);
}

}  // namespace

std::vector<std::uint8_t> encode_answer(const CachedAnswer& answer) {
  std::vector<std::uint8_t> wire;
  encode_answer_to(answer, wire);
  return wire;
}

bool decode_answer_into(std::span<const std::uint8_t> wire, dns::RCode& rcode,
                        std::vector<dns::ResourceRecord>& answers) {
  dns::Header header;
  if (!dns::decode_answer_only_into(wire, header, answers)) return false;
  rcode = header.rcode;
  return true;
}

// --- the slab ----------------------------------------------------------------

/// One shard's entries (DESIGN.md §10). Slots live in one array that doubles
/// on demand up to the shard's capacity slice — never pre-sized, since most
/// shards of most backends stay nearly empty. A full shard recycles its LRU
/// victim's slot, so no slot is freed short of clear(). The LRU list links
/// slots by index (head = most recent). The index is open-addressed with
/// linear probing over (tag, slot) pairs, kept at most 2/3 full, and
/// deletes by backward shift, so it never holds tombstones. The owner holds
/// `mutex` around every other member call.
class DnsCache::Shard {
 public:
  /// Key and wire bytes live inside the slot when they fit. Sized so the
  /// dominant entry — a §4 probe name's 40-byte key plus its 66-byte
  /// one-record answer — is one 160-byte slot; larger entries spill to one
  /// heap block the slot owns.
  static constexpr std::size_t kInlineBytes = 120;

  struct Slot {
    std::int64_t expiry_s = 0;
    /// Attribution token of the last store (obs::current_tally() of the
    /// storing thread; null outside any phase). Never dereferenced — only
    /// compared by export_entries(owner).
    const void* owner = nullptr;
    std::uint32_t prev = kNil;  // toward the most-recent end
    std::uint32_t next = kNil;  // toward the least-recent end
    std::uint32_t tag = 0;
    std::uint32_t key_len = 0;
    std::uint32_t wire_len = 0;
    std::uint32_t spill_cap = 0;  // 0: the bytes are inline
    union {
      std::uint8_t inline_bytes[kInlineBytes];
      std::uint8_t* spill;
    };

    [[nodiscard]] const std::uint8_t* bytes() const noexcept {
      return spill_cap != 0 ? spill : inline_bytes;
    }
    [[nodiscard]] std::string_view key() const noexcept {
      return {reinterpret_cast<const char*>(bytes()), key_len};
    }
    [[nodiscard]] std::span<const std::uint8_t> wire() const noexcept {
      return {bytes() + key_len, wire_len};
    }
  };
  static_assert(std::is_trivially_copyable_v<Slot>,
                "slots move by plain copy when the array grows");

  Shard() = default;
  Shard(const Shard&) = delete;
  Shard& operator=(const Shard&) = delete;
  ~Shard() { release_spills(); }

  mutable std::mutex mutex;

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] const Slot& slot(std::uint32_t s) const noexcept {
    return slots_[s];
  }

  /// The slot holding `key`, or kNil.
  [[nodiscard]] std::uint32_t find(std::string_view key,
                                   std::uint32_t tag) const noexcept {
    if (index_.empty()) return kNil;
    const std::size_t mask = index_.size() - 1;
    for (std::size_t pos = tag & mask;; pos = (pos + 1) & mask) {
      const IndexEntry& entry = index_[pos];
      if (entry.slot == kNil) return kNil;
      if (entry.tag == tag && slots_[entry.slot].key() == key) return entry.slot;
    }
  }

  /// Move `s` to the most-recent end.
  void promote(std::uint32_t s) noexcept {
    if (s == head_) return;
    unlink(s);
    link_front(s);
  }

  /// store() semantics: an existing key is refreshed and promoted; a new
  /// one enters at the most-recent end, into a full shard by recycling the
  /// LRU victim's slot. Returns whether a victim was evicted.
  bool put(std::string_view key, std::uint32_t tag,
           std::span<const std::uint8_t> wire, std::int64_t expiry_s,
           const void* owner, std::size_t capacity) {
    if (const std::uint32_t s = find(key, tag); s != kNil) {
      fill(s, tag, key, wire, expiry_s, owner);
      promote(s);
      return false;
    }
    const bool evicted = size_ >= capacity;
    std::uint32_t s = kNil;
    if (evicted) {
      s = tail_;
      detach(s);
    } else {
      s = acquire(capacity);
    }
    fill(s, tag, key, wire, expiry_s, owner);
    index_insert(s);
    link_front(s);
    ++size_;
    return evicted;
  }

  void clear() noexcept {
    release_spills();
    slots_ = std::vector<Slot>();  // frees the storage, unlike `= {}`
    index_ = std::vector<IndexEntry>();
    head_ = tail_ = kNil;
    size_ = 0;
  }

  /// Visit every entry, most recently used first.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (std::uint32_t s = head_; s != kNil; s = slots_[s].next) fn(slots_[s]);
  }

 private:
  static constexpr std::size_t kMinSlots = 8;

  struct IndexEntry {
    std::uint32_t tag = 0;
    std::uint32_t slot = kNil;  // kNil: empty
  };

  void fill(std::uint32_t s, std::uint32_t tag, std::string_view key,
            std::span<const std::uint8_t> wire, std::int64_t expiry_s,
            const void* owner) {
    const std::size_t need = key.size() + wire.size();
    if (need > std::numeric_limits<std::uint32_t>::max())
      throw std::length_error("dns cache: entry exceeds 4 GiB");
    Slot& slot = slots_[s];
    std::uint8_t* dst = nullptr;
    if (need <= kInlineBytes) {
      free_spill(slot);
      dst = slot.inline_bytes;
    } else {
      if (slot.spill_cap < need) {
        auto* block = new std::uint8_t[need];
        free_spill(slot);
        slot.spill = block;
        slot.spill_cap = static_cast<std::uint32_t>(need);
        ++spilled_;
      }
      dst = slot.spill;
    }
    if (!key.empty()) std::memcpy(dst, key.data(), key.size());
    if (!wire.empty()) std::memcpy(dst + key.size(), wire.data(), wire.size());
    slot.tag = tag;
    slot.key_len = static_cast<std::uint32_t>(key.size());
    slot.wire_len = static_cast<std::uint32_t>(wire.size());
    slot.expiry_s = expiry_s;
    slot.owner = owner;
  }

  void free_spill(Slot& slot) noexcept {
    if (slot.spill_cap == 0) return;
    delete[] slot.spill;
    slot.spill_cap = 0;
    --spilled_;
  }

  void release_spills() noexcept {
    if (spilled_ == 0) return;
    for (Slot& slot : slots_) free_spill(slot);
  }

  /// A fresh slot for a new entry in a shard below its capacity slice.
  std::uint32_t acquire(std::size_t capacity) {
    if (slots_.size() == slots_.capacity()) grow(capacity);
    slots_.emplace_back();
    return static_cast<std::uint32_t>(slots_.size() - 1);
  }

  /// Double the slot array, clamped to the capacity slice while below it,
  /// and rebuild the index whenever it would pass 2/3 load.
  void grow(std::size_t capacity) {
    const std::size_t have = slots_.capacity();
    std::size_t want = std::max(kMinSlots, 2 * have);
    if (have < capacity) want = std::min(want, capacity);
    if (want >= kNil) throw std::length_error("dns cache: shard slot overflow");
    slots_.reserve(want);
    const std::size_t index_size = ceil_pow2(want + want / 2 + 1);
    if (index_size > index_.size()) {
      index_.assign(index_size, IndexEntry{});
      for (std::uint32_t s = head_; s != kNil; s = slots_[s].next)
        index_insert(s);
    }
  }

  void index_insert(std::uint32_t s) noexcept {
    const std::size_t mask = index_.size() - 1;
    std::size_t pos = slots_[s].tag & mask;
    while (index_[pos].slot != kNil) pos = (pos + 1) & mask;
    index_[pos] = IndexEntry{slots_[s].tag, s};
  }

  /// Backward-shift deletion: later members of the probe run move back into
  /// the hole unless that would carry them before their home position.
  void index_erase(std::uint32_t s) noexcept {
    const std::size_t mask = index_.size() - 1;
    std::size_t hole = slots_[s].tag & mask;
    while (index_[hole].slot != s) hole = (hole + 1) & mask;
    for (std::size_t pos = (hole + 1) & mask; index_[pos].slot != kNil;
         pos = (pos + 1) & mask) {
      const std::size_t home = index_[pos].tag & mask;
      if (((pos - home) & mask) >= ((pos - hole) & mask)) {
        index_[hole] = index_[pos];
        hole = pos;
      }
    }
    index_[hole] = IndexEntry{};
  }

  void unlink(std::uint32_t s) noexcept {
    const Slot& slot = slots_[s];
    (slot.prev != kNil ? slots_[slot.prev].next : head_) = slot.next;
    (slot.next != kNil ? slots_[slot.next].prev : tail_) = slot.prev;
  }

  void link_front(std::uint32_t s) noexcept {
    Slot& slot = slots_[s];
    slot.prev = kNil;
    slot.next = head_;
    (head_ != kNil ? slots_[head_].prev : tail_) = s;
    head_ = s;
  }

  /// Take `s` out of the index and the LRU list; it keeps its bytes.
  void detach(std::uint32_t s) noexcept {
    index_erase(s);
    unlink(s);
    --size_;
  }

  std::vector<Slot> slots_;
  std::vector<IndexEntry> index_;
  std::uint32_t head_ = kNil;  // most recently used
  std::uint32_t tail_ = kNil;  // least recently used: the next victim
  std::size_t size_ = 0;
  std::size_t spilled_ = 0;  // slots owning a heap block
};

// --- DnsCache ------------------------------------------------------------------

CacheConfig CacheConfig::from_env(CacheConfig fallback) {
  // Strict parsing (DESIGN.md §13): ENCDNS_CACHE_ENTRIES=10k used to be
  // atoll'd to 10 and ENCDNS_CACHE_ENTRIES=junk silently ignored; both now
  // throw util::EnvError before any backend is built.
  if (const auto env = util::env_positive_int("ENCDNS_CACHE_ENTRIES"))
    fallback.max_entries = static_cast<std::size_t>(*env);
  if (const auto env = util::env_positive_int("ENCDNS_CACHE_NEG_TTL"))
    fallback.negative_ttl_s = static_cast<std::uint32_t>(*env);
  if (const auto env = util::env_bool("ENCDNS_CACHE_SERVE_STALE"))
    fallback.serve_stale = *env;
  return fallback;
}

DnsCache::DnsCache(CacheConfig config) : config_(config) {
  const std::size_t shard_count =
      floor_pow2(std::clamp<std::size_t>(config_.shards, 1, 256));
  config_.shards = shard_count;
  shards_.reserve(shard_count);
  for (std::size_t i = 0; i < shard_count; ++i)
    shards_.push_back(std::make_unique<Shard>());
  shard_mask_ = shard_count - 1;
  per_shard_capacity_ =
      std::max<std::size_t>(1, config_.max_entries / shard_count);

  auto& registry = obs::MetricsRegistry::global();
  obs_hit_ = &registry.counter("cache.lookup.hit");
  obs_negative_ = &registry.counter("cache.lookup.negative_hit");
  obs_miss_ = &registry.counter("cache.lookup.miss");
  obs_stale_ = &registry.counter("cache.lookup.stale");
  obs_store_ = &registry.counter("cache.entry.store");
  obs_evict_ = &registry.counter("cache.entry.evict");
  obs_reject_ = &registry.counter("cache.entry.reject");
}

DnsCache::~DnsCache() = default;

std::uint32_t DnsCache::ttl_for(const CachedAnswer& answer) const noexcept {
  if (answer.negative()) return config_.negative_ttl_s;
  std::uint32_t ttl = config_.max_ttl_s;
  for (const auto& record : answer.answers) ttl = std::min(ttl, record.ttl);
  return std::max(ttl, config_.min_ttl_s);
}

std::optional<DnsCache::Hit> DnsCache::lookup(
    const Key& key, std::int64_t now_s,
    std::vector<dns::ResourceRecord>& answers) {
  Shard& shard = *shards_[key.hash & shard_mask_];
  std::optional<Hit> hit;
  {
    // Decode under the lock: a concurrent store may recycle the slot the
    // moment it is released.
    const std::lock_guard<std::mutex> lock(shard.mutex);
    const std::uint32_t s = shard.find(key.text, tag_of(key.hash));
    Hit found;
    if (s != kNil && now_s < shard.slot(s).expiry_s &&
        decode_answer_into(shard.slot(s).wire(), found.rcode, answers)) {
      shard.promote(s);
      hit = found;
    }
  }
  if (!hit) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    obs_miss_->add();
    return std::nullopt;
  }
  hits_.fetch_add(1, std::memory_order_relaxed);
  obs_hit_->add();
  if (CachedAnswer::negative(hit->rcode, answers.size())) {
    negative_hits_.fetch_add(1, std::memory_order_relaxed);
    obs_negative_->add();
  }
  return hit;
}

std::optional<DnsCache::Hit> DnsCache::lookup_stale(
    const Key& key, std::int64_t now_s,
    std::vector<dns::ResourceRecord>& answers) {
  if (!config_.serve_stale) return std::nullopt;
  Shard& shard = *shards_[key.hash & shard_mask_];
  Hit hit;
  {
    const std::lock_guard<std::mutex> lock(shard.mutex);
    const std::uint32_t s = shard.find(key.text, tag_of(key.hash));
    if (s == kNil) return std::nullopt;
    const std::int64_t expiry = shard.slot(s).expiry_s;
    if (now_s >= expiry + static_cast<std::int64_t>(config_.max_stale_s))
      return std::nullopt;  // too stale even for RFC 8767
    if (!decode_answer_into(shard.slot(s).wire(), hit.rcode, answers))
      return std::nullopt;
    hit.stale = now_s >= expiry;
  }
  if (hit.stale) {
    stale_served_.fetch_add(1, std::memory_order_relaxed);
    obs_stale_->add();
  }
  return hit;
}

bool DnsCache::store(const Key& key, const CachedAnswer& answer,
                     std::int64_t now_s) {
  if (!cacheable(answer.rcode)) {
    rejected_.fetch_add(1, std::memory_order_relaxed);
    obs_reject_->add();
    return false;
  }
  const std::int64_t expiry =
      now_s + static_cast<std::int64_t>(ttl_for(answer));
  // Attribute the entry to the storing phase (task-graph checkpointing,
  // DESIGN.md §15): one thread-local read, free on the hot path.
  const void* owner = obs::current_tally();
  // Encode before taking the shard lock, into per-thread scratch that stays
  // warm across stores; the lock then covers only a byte copy.
  thread_local std::vector<std::uint8_t> wire;
  wire.clear();
  encode_answer_to(answer, wire);
  Shard& shard = *shards_[key.hash & shard_mask_];
  bool evicted = false;
  {
    const std::lock_guard<std::mutex> lock(shard.mutex);
    evicted = shard.put(key.text, tag_of(key.hash), wire, expiry, owner,
                        per_shard_capacity_);
  }
  stores_.fetch_add(1, std::memory_order_relaxed);
  obs_store_->add();
  if (evicted) {
    evictions_.fetch_add(1, std::memory_order_relaxed);
    obs_evict_->add();
  }
  return true;
}

std::size_t DnsCache::size() const {
  std::size_t total = 0;
  for (const auto& shard : shards_) {
    const std::lock_guard<std::mutex> lock(shard->mutex);
    total += shard->size();
  }
  return total;
}

std::vector<std::size_t> DnsCache::shard_sizes() const {
  std::vector<std::size_t> sizes;
  sizes.reserve(shards_.size());
  for (const auto& shard : shards_) {
    const std::lock_guard<std::mutex> lock(shard->mutex);
    sizes.push_back(shard->size());
  }
  return sizes;
}

CacheStats DnsCache::stats() const noexcept {
  CacheStats stats;
  stats.hits = hits_.load(std::memory_order_relaxed);
  stats.negative_hits = negative_hits_.load(std::memory_order_relaxed);
  stats.misses = misses_.load(std::memory_order_relaxed);
  stats.stale_served = stale_served_.load(std::memory_order_relaxed);
  stats.stores = stores_.load(std::memory_order_relaxed);
  stats.evictions = evictions_.load(std::memory_order_relaxed);
  stats.rejected = rejected_.load(std::memory_order_relaxed);
  return stats;
}

void DnsCache::clear() {
  for (auto& shard : shards_) {
    const std::lock_guard<std::mutex> lock(shard->mutex);
    shard->clear();
  }
}

namespace {

template <typename Slot>
[[nodiscard]] ExportedEntry exported(const Slot& slot) {
  const auto wire = slot.wire();
  return ExportedEntry{std::string(slot.key()), {wire.begin(), wire.end()},
                       slot.expiry_s};
}

}  // namespace

std::vector<ExportedEntry> DnsCache::export_entries() const {
  std::vector<ExportedEntry> out;
  out.reserve(size());
  for (const auto& shard : shards_) {
    const std::lock_guard<std::mutex> lock(shard->mutex);
    shard->for_each([&](const auto& slot) { out.push_back(exported(slot)); });
  }
  return out;
}

std::vector<ExportedEntry> DnsCache::export_entries(const void* owner) const {
  std::vector<ExportedEntry> out;
  for (const auto& shard : shards_) {
    const std::lock_guard<std::mutex> lock(shard->mutex);
    shard->for_each([&](const auto& slot) {
      if (slot.owner == owner) out.push_back(exported(slot));
    });
  }
  return out;
}

void DnsCache::merge_entries(const std::vector<ExportedEntry>& entries) {
  // Entries arrive most-recent first per shard, so replaying them in
  // reverse stores each shard's oldest first and leaves their exported
  // order at the most-recent end. Evictions are not counted.
  const void* owner = obs::current_tally();
  for (auto entry = entries.rbegin(); entry != entries.rend(); ++entry) {
    const Key key(entry->key);
    Shard& shard = *shards_[key.hash & shard_mask_];
    const std::lock_guard<std::mutex> lock(shard.mutex);
    (void)shard.put(key.text, tag_of(key.hash), entry->wire, entry->expiry_s,
                    owner, per_shard_capacity_);
  }
}

}  // namespace encdns::cache
