#include "core/checkpoint/checkpoint.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "dns/message.hpp"
#include "util/fields.hpp"

namespace encdns::core {
namespace {

// Phase and partial records: kind, owned-platform cursor, the phase's own
// metrics delta, state blob. Retired kinds, each failing the kind check:
// 1–4 (whole cache sections), 6–7 (absolute records of the serial
// schedule), 8–9 (cursors carrying a resolver-cache tally), 10–11 (cursors
// carrying both platforms).
constexpr std::uint8_t kKindPhase = 12;
constexpr std::uint8_t kKindPartial = 13;
// Registry name skeleton refreshed at every phase commit: names, diagnostic
// flags and bucket bounds of everything registered so far. Values are a
// mid-run mixture across overlapping phases and are ignored on load — the
// record exists so a resume can re-register the zero-valued metrics a
// loaded phase's code would have created (delta records skip zeros).
constexpr std::uint8_t kKindSkeleton = 5;
constexpr const char* kSkeletonKey = "obs:skeleton";

// Cache-section run ops.
constexpr std::uint8_t kOpCopy = 0;     // u32 start, u32 len: base entries
constexpr std::uint8_t kOpLiteral = 1;  // u32 len, then len entries
// The smallest encoded entry: key length, expiry, wire length.
constexpr std::size_t kMinEntryBytes = 16;

[[nodiscard]] std::string phase_key(const std::string& phase) {
  return "phase:" + phase;
}
[[nodiscard]] std::string partial_key(const std::string& phase) {
  return "partial:" + phase;
}

[[nodiscard]] std::uint32_t key_hash(const std::uint8_t* key,
                                     std::size_t size) noexcept {
  const std::uint64_t h = util::fnv1a_bytes(key, size);
  return static_cast<std::uint32_t>(h ^ (h >> 32));
}

/// Whether `ref` holds exactly `entry`: key, expiry and wire bytes.
[[nodiscard]] bool same_entry(const EntryRef& ref, std::uint32_t hash,
                              const cache::ExportedEntry& entry) {
  if (ref.key_hash != hash ||
      ref.size != kMinEntryBytes + entry.key.size() + entry.wire.size())
    return false;
  util::ByteReader r(ref.bytes, ref.size);
  const auto key = r.view(r.u32());
  if (key.size() != entry.key.size() ||
      std::memcmp(key.data(), entry.key.data(), key.size()) != 0 ||
      r.i64() != entry.expiry_s)
    return false;
  const auto wire = r.view(r.u32());
  return std::equal(wire.begin(), wire.end(), entry.wire.begin(),
                    entry.wire.end());
}

[[nodiscard]] std::uint32_t key_hash(const std::string& key) noexcept {
  return key_hash(reinterpret_cast<const std::uint8_t*>(key.data()), key.size());
}

}  // namespace

// --- relative cache sections -------------------------------------------------

void CacheSectionEncoder::encode(
    util::ByteWriter& w,
    const std::vector<std::vector<cache::ExportedEntry>>& caches) {
  constexpr std::uint32_t kNoMatch = 0xFFFFFFFFu;
  // Pass 1: each entry's match in its backend's base, if any. A match
  // usually continues the previous one's copy run; otherwise the index,
  // rebuilt per backend over the base's key hashes, names the candidates.
  matches_.clear();
  std::size_t literal_bytes = 0;
  for (std::size_t b = 0; b < caches.size(); ++b) {
    const std::span<const EntryRef> base = base_.backend(b);
    const std::size_t mask = base.empty() ? 0 : std::bit_ceil(2 * base.size()) - 1;
    if (!base.empty()) {
      index_.assign(mask + 1, 0);
      for (std::size_t i = 0; i < base.size(); ++i) {
        std::size_t slot = base[i].key_hash & mask;
        while (index_[slot] != 0) slot = (slot + 1) & mask;
        index_[slot] = static_cast<std::uint32_t>(i + 1);
      }
    }
    std::size_t follow = base.size();  // the base entry after the last match
    for (const auto& entry : caches[b]) {
      const std::uint32_t hash = key_hash(entry.key);
      std::size_t match = base.size();
      if (follow < base.size() && same_entry(base[follow], hash, entry)) {
        match = follow;
      } else if (!base.empty()) {
        for (std::size_t slot = hash & mask; index_[slot] != 0;
             slot = (slot + 1) & mask) {
          const std::size_t i = index_[slot] - 1;
          if (same_entry(base[i], hash, entry)) {
            match = i;
            break;
          }
        }
      }
      if (match < base.size()) {
        matches_.push_back(static_cast<std::uint32_t>(match));
        follow = match + 1;
      } else {
        matches_.push_back(kNoMatch);
        literal_bytes += kMinEntryBytes + entry.key.size() + entry.wire.size();
        follow = base.size();
      }
    }
  }

  // Pass 2: the runs. Literal entries are laid out once, at the end of
  // literals_, which later bases point into and the record copies its
  // literal runs from. The buffer grows before any is written, so the refs
  // into it stay valid; growing moves it, and the base's refs move along.
  const std::size_t held = literals_.size();
  if (held + literal_bytes > literals_.data().capacity()) {
    util::ByteWriter grown;
    grown.reserve(std::max(held + literal_bytes, 2 * literals_.data().capacity()));
    grown.raw(literals_.data());
    const std::uint8_t* from = literals_.data().data();
    for (EntryRef& ref : base_.entries)
      if (ref.bytes >= from && ref.bytes < from + held)
        ref.bytes = grown.data().data() + (ref.bytes - from);
    literals_ = std::move(grown);
  }
  std::vector<EntryRef>& refs = next_.entries;
  refs.clear();
  refs.reserve(matches_.size());
  next_.ends.clear();
  w.u32(static_cast<std::uint32_t>(caches.size()));
  const std::uint32_t* match = matches_.data();
  for (std::size_t b = 0; b < caches.size(); ++b) {
    const std::span<const EntryRef> base = base_.backend(b);
    w.u32(static_cast<std::uint32_t>(caches[b].size()));
    // The open run: copy(copy_start, run) from the base, or `run` literal
    // entries ending at the newest ref.
    bool copying = false;
    std::size_t copy_start = 0;
    std::size_t run = 0;
    const auto flush = [&] {
      if (run == 0) return;
      if (copying) {
        w.u8(kOpCopy);
        w.u32(static_cast<std::uint32_t>(copy_start));
        w.u32(static_cast<std::uint32_t>(run));
      } else {
        const EntryRef& first = refs[refs.size() - run];
        const EntryRef& last = refs.back();
        w.u8(kOpLiteral);
        w.u32(static_cast<std::uint32_t>(run));
        w.raw({first.bytes, static_cast<std::size_t>(last.bytes + last.size -
                                                     first.bytes)});
      }
      run = 0;
    };
    for (const auto& entry : caches[b]) {
      const std::uint32_t m = *match++;
      if (m != kNoMatch) {
        if (!(copying && m == copy_start + run)) {
          flush();
          copying = true;
          copy_start = m;
        }
        refs.push_back(base[m]);
      } else {
        if (copying) {
          flush();
          copying = false;
        }
        const std::size_t offset = literals_.size();
        literals_.str(entry.key);
        literals_.i64(entry.expiry_s);
        literals_.blob(entry.wire);
        refs.push_back(EntryRef{literals_.data().data() + offset,
                                static_cast<std::uint32_t>(literals_.size() - offset),
                                key_hash(entry.key)});
      }
      ++run;
    }
    flush();
    next_.ends.push_back(static_cast<std::uint32_t>(refs.size()));
  }
  std::swap(base_, next_);
}

void CacheSectionEncoder::rebase(CacheSection resolved) {
  base_ = std::move(resolved);
  literals_.clear();
  // Sections read out of a journal carry no key hashes (most are never a
  // base); hash the keys where each entry's layout puts them.
  for (EntryRef& ref : base_.entries) {
    util::ByteReader r(ref.bytes, ref.size);
    const auto key = r.view(r.u32());
    ref.key_hash = key_hash(key.data(), key.size());
  }
}

void decode_cache_section(util::ByteReader& r, const CacheSection& base,
                          CacheSection& out) {
  const std::uint32_t n_backends = r.count(4);
  out.entries.clear();
  out.ends.clear();
  out.ends.reserve(n_backends);
  // Restore copies these bytes straight into cache slots, so every literal
  // must pass the DNS decoder here, where a malformed one still fails the
  // journal closed. Copied entries passed it when their literal was read.
  std::vector<dns::ResourceRecord> scratch;
  for (std::uint32_t b = 0; b < n_backends; ++b) {
    const std::span<const EntryRef> from = base.backend(b);
    const std::uint32_t n = r.u32();
    if (n > from.size() + r.remaining() / kMinEntryBytes)
      throw util::CodecError("cache section: entry count " + std::to_string(n) +
                             " exceeds its base and remaining input");
    const std::size_t end = out.entries.size() + n;
    std::size_t copied = 0;  // an export never holds one entry twice
    while (out.entries.size() < end) {
      const std::uint8_t op = r.u8();
      if (op != kOpCopy && op != kOpLiteral)
        throw util::CodecError("cache section: unknown op tag " +
                               std::to_string(op));
      const std::uint32_t start = op == kOpCopy ? r.u32() : 0;
      const std::uint32_t len = op == kOpCopy ? r.u32() : r.count(kMinEntryBytes);
      if (len == 0 || len > end - out.entries.size())
        throw util::CodecError("cache section: run of " + std::to_string(len) +
                               " entries does not fit the entry count");
      if (op == kOpCopy) {
        if (start > from.size() || len > from.size() - start)
          throw util::CodecError("cache section: copy run [" +
                                 std::to_string(start) + ", +" +
                                 std::to_string(len) + ") outside its base of " +
                                 std::to_string(from.size()) + " entries");
        copied += len;
        if (copied > from.size())
          throw util::CodecError(
              "cache section: copy runs take more entries than the base's " +
              std::to_string(from.size()));
        out.entries.insert(out.entries.end(), from.begin() + start,
                           from.begin() + start + len);
      } else {
        for (std::uint32_t i = 0; i < len; ++i) {
          const std::uint8_t* at = r.position();
          (void)r.view(r.u32());  // key
          (void)r.i64();
          const auto wire = r.view(r.u32());
          dns::RCode rcode = dns::RCode::kNoError;
          if (!cache::decode_answer_into(wire, rcode, scratch))
            throw util::CodecError("cache entry: malformed wire message");
          out.entries.push_back(
              EntryRef{at, static_cast<std::uint32_t>(r.position() - at)});
        }
      }
    }
    out.ends.push_back(static_cast<std::uint32_t>(end));
  }
}

std::vector<std::vector<cache::ExportedEntry>> export_section(
    const CacheSection& section) {
  std::vector<std::vector<cache::ExportedEntry>> caches(section.ends.size());
  for (std::size_t b = 0; b < caches.size(); ++b) {
    const std::span<const EntryRef> refs = section.backend(b);
    caches[b].reserve(refs.size());
    for (const EntryRef& ref : refs) {
      util::ByteReader r(ref.bytes, ref.size);
      cache::ExportedEntry& entry = caches[b].emplace_back();
      entry.key = r.str();
      entry.expiry_s = r.i64();
      entry.wire = r.blob();
    }
  }
  return caches;
}

// --- cursors -------------------------------------------------------------------

namespace {

/// A cursor whose cache section continues `chain`.
void encode_cursor(util::ByteWriter& w, const WorldCursor& cursor,
                   CacheSectionEncoder& chain) {
  util::write(w, cursor.platform);
  // Cached answers travel as the wire bytes their cache slots hold
  // (cache::encode_answer(): an RFC 1035 message with the rcode in the
  // header and the records in the answer section), copied through as is.
  chain.encode(w, cursor.caches);
}

/// A cursor whose cache section is relative to `base`: the returned cursor's
/// `caches` stay empty and `section` receives the resolved section.
[[nodiscard]] WorldCursor decode_cursor(util::ByteReader& r,
                                        const CacheSection& base,
                                        CacheSection& section) {
  WorldCursor cursor;
  util::read(r, cursor.platform);
  decode_cache_section(r, base, section);
  return cursor;
}

}  // namespace

void encode_cursor(util::ByteWriter& w, const WorldCursor& cursor) {
  CacheSectionEncoder fresh;
  encode_cursor(w, cursor, fresh);
}

WorldCursor decode_cursor(util::ByteReader& r) {
  CacheSection section;
  WorldCursor cursor = decode_cursor(r, CacheSection{}, section);
  cursor.caches = export_section(section);
  return cursor;
}

// ---------------------------------------------------------------------------

namespace {

[[nodiscard]] std::uint8_t kind_of(bool is_phase) noexcept {
  return is_phase ? kKindPhase : kKindPartial;
}
/// A record kind as error messages name it.
[[nodiscard]] const char* name_of(bool is_phase) noexcept {
  return is_phase ? "phase-delta" : "partial-delta";
}

/// The newest record of `phase`'s chain (its phase and partial records).
[[nodiscard]] const Journal::Record* chain_end(const Journal& journal,
                                               const std::string& phase) {
  const std::string phase_k = phase_key(phase);
  const std::string partial_k = partial_key(phase);
  const auto& records = journal.records();
  for (auto it = records.rbegin(); it != records.rend(); ++it)
    if (it->key == phase_k || it->key == partial_k) return &*it;
  return nullptr;
}

/// One record of a phase's chain, decoded through its cache section.
struct ChainRecord {
  util::ByteReader rest;  // the body after the cursor
  WorldCursor cursor;     // caches left empty: see `section`
  CacheSection section;   // resolved against the previous record's
};

/// Walks `phase`'s records in journal order up to `target`, each cache
/// section resolved against the one before (the first against an empty
/// base). Only the cursors are read; superseded records are needed for
/// their cache sections alone.
[[nodiscard]] ChainRecord resolve_chain(const Journal& journal,
                                        const std::string& phase,
                                        const Journal::Record& target) {
  const std::string phase_k = phase_key(phase);
  const std::string partial_k = partial_key(phase);
  CacheSection base;
  CacheSection section;
  for (const Journal::Record& record : journal.records()) {
    const bool is_phase = record.key == phase_k;
    if (!is_phase && record.key != partial_k) continue;
    util::ByteReader r(record.body);
    if (r.u8() != kind_of(is_phase))
      throw util::CodecError(std::string(name_of(is_phase)) +
                             " record has wrong kind tag");
    WorldCursor cursor = decode_cursor(r, base, section);
    if (&record == &target)
      return ChainRecord{r, std::move(cursor), std::move(section)};
    std::swap(base, section);
  }
  throw std::logic_error("checkpoint: record is not in phase " + phase +
                         "'s chain");
}

}  // namespace

std::optional<StudyCheckpoint::LoadedRecord> StudyCheckpoint::load(
    const std::string& phase, bool is_phase) {
  const Journal::Record* record =
      journal_.find_last(is_phase ? phase_key(phase) : partial_key(phase));
  if (record == nullptr) return std::nullopt;
  try {
    ChainRecord resolved = resolve_chain(journal_, phase, *record);
    LoadedRecord loaded;
    loaded.cursor = std::move(resolved.cursor);
    util::read(resolved.rest, loaded.metrics, loaded.state);
    resolved.rest.expect_done();
    // A resumed in-flight phase encodes its next record against this one,
    // so one chain may span processes.
    if (!is_phase && record == chain_end(journal_, phase))
      chains_[phase].sections.rebase(resolved.section);
    loaded.caches = std::move(resolved.section);
    return loaded;
  } catch (const util::CodecError& e) {
    throw JournalError(std::string("checkpoint: corrupt ") + name_of(is_phase) +
                       " record (" + e.what() + ")");
  }
}

void StudyCheckpoint::append_cursor_record(const std::string& phase,
                                          bool is_phase,
                                          const WorldCursor& cursor,
                                          const obs::Snapshot& metrics,
                                          const std::vector<std::uint8_t>& state) {
  auto [chain, fresh] = chains_.try_emplace(phase);
  if (fresh) {
    // The journal's last record of this phase is the base, even when this
    // process did not load it.
    if (const Journal::Record* last = chain_end(journal_, phase)) {
      try {
        chain->second.sections.rebase(
            resolve_chain(journal_, phase, *last).section);
      } catch (const util::CodecError& e) {
        chains_.erase(chain);
        throw JournalError("checkpoint: corrupt " + std::string(last->key) +
                           " record (" + e.what() + ")");
      }
    }
  }
  util::ByteWriter& w = chain->second.record;
  w.clear();
  w.u8(kind_of(is_phase));
  encode_cursor(w, cursor, chain->second.sections);
  util::write(w, metrics, state);
  journal_.append(is_phase ? phase_key(phase) : partial_key(phase), w.data());
  if (is_phase) chains_.erase(chain);
}

// ---------------------------------------------------------------------------

/// A phase's block-boundary hook. The metrics half of its records is the
/// phase's own delta, never the global registry: load() re-applies it
/// additively and save() snapshots the calling thread's PhaseTally, so
/// overlapping phases never see each other's numbers.
class PhaseHookImpl : public exec::CheckpointHook {
 public:
  PhaseHookImpl(StudyCheckpoint* owner, std::string phase,
                const WorldCursor& pre, std::function<WorldCursor()> capture,
                std::optional<StudyCheckpoint::LoadedRecord> resumed)
      : owner_(owner),
        phase_(std::move(phase)),
        pre_platform_(pre.platform),
        capture_(std::move(capture)),
        resumed_(std::move(resumed)) {}

  std::optional<std::vector<std::uint8_t>> load() override {
    if (!resumed_) return std::nullopt;
    auto& registry = obs::MetricsRegistry::global();
    // The phase re-executed its prologue (e.g. the platform batch
    // re-acquisition) before asking for the checkpoint — work the saved
    // delta already accounts for. Retract exactly what this phase recorded
    // so far and restart its tally from the delta.
    if (obs::PhaseTally* tally = obs::current_tally()) {
      registry.retract_delta(registry.delta_snapshot(*tally));
      tally->clear();
    }
    // Additive restore: lands in the global registry *and* in the calling
    // thread's current tally, so the resumed phase's final delta covers the
    // killed run's committed blocks too.
    registry.apply_delta(resumed_->metrics);
    std::vector<std::uint8_t> state = std::move(resumed_->state);
    resumed_.reset();
    return state;
  }

  void save(const std::vector<std::uint8_t>& state) override {
    // Hybrid cursor: recruitment rewinds to the phase start (the prologue
    // re-runs on resume), but cache contents are captured NOW — the blocks
    // committed so far never re-run, so their cache stores must be part of
    // what the resumed process restores.
    WorldCursor at_save = capture_();
    at_save.platform = pre_platform_;
    obs::Snapshot metrics;
    if (const obs::PhaseTally* tally = obs::current_tally())
      metrics = obs::MetricsRegistry::global().delta_snapshot(*tally);
    std::lock_guard<std::mutex> guard(owner_->mutex_);
    owner_->append_cursor_record(phase_, /*is_phase=*/false, at_save, metrics,
                                 state);
    owner_->journal_.commit();
  }

  [[noreturn]] void reject(const util::CodecError& error) override {
    throw JournalError("checkpoint: corrupt " + partial_key(phase_) +
                       " state (" + error.what() + ")");
  }

 private:
  StudyCheckpoint* owner_;
  std::string phase_;
  proxy::ProxyCursor pre_platform_;
  std::function<WorldCursor()> capture_;
  std::optional<StudyCheckpoint::LoadedRecord> resumed_;
};

// ---------------------------------------------------------------------------

StudyCheckpoint::StudyCheckpoint(std::string dir, std::uint64_t fingerprint,
                                 bool resume)
    : journal_(std::move(dir), fingerprint, resume) {}

std::optional<StudyCheckpoint::LoadedRecord> StudyCheckpoint::load_phase_delta(
    const std::string& phase) {
  std::lock_guard<std::mutex> guard(mutex_);
  return load(phase, /*is_phase=*/true);
}

bool StudyCheckpoint::has_partial(const std::string& phase) const {
  std::lock_guard<std::mutex> guard(mutex_);
  return journal_.find_last(partial_key(phase)) != nullptr;
}

std::optional<StudyCheckpoint::LoadedRecord>
StudyCheckpoint::load_partial_delta(const std::string& phase) {
  std::lock_guard<std::mutex> guard(mutex_);
  return load(phase, /*is_phase=*/false);
}

void StudyCheckpoint::commit_phase_delta(const std::string& phase,
                                         const std::vector<std::uint8_t>& state,
                                         const WorldCursor& cursor,
                                         const obs::Snapshot& delta) {
  // Refresh the name skeleton in the same commit so any journal that holds
  // a committed delta record also names every metric registered by then.
  util::ByteWriter skeleton;
  skeleton.u8(kKindSkeleton);
  util::write(skeleton, obs::MetricsRegistry::global().snapshot());
  std::lock_guard<std::mutex> guard(mutex_);
  append_cursor_record(phase, /*is_phase=*/true, cursor, delta, state);
  journal_.append(kSkeletonKey, skeleton.take());
  journal_.commit();
}

std::optional<obs::Snapshot> StudyCheckpoint::load_skeleton() {
  std::lock_guard<std::mutex> guard(mutex_);
  const Journal::Record* record = journal_.find_last(kSkeletonKey);
  if (record == nullptr) return std::nullopt;
  try {
    util::ByteReader r(record->body);
    if (r.u8() != kKindSkeleton)
      throw util::CodecError("skeleton record has wrong kind tag");
    obs::Snapshot snap;
    util::read(r, snap);
    r.expect_done();
    return snap;
  } catch (const util::CodecError& e) {
    throw JournalError(std::string("checkpoint: corrupt skeleton record (") +
                       e.what() + ")");
  }
}

std::unique_ptr<exec::CheckpointHook> StudyCheckpoint::phase_delta_hook(
    const std::string& phase, const WorldCursor& pre_cursor,
    std::function<WorldCursor()> capture, std::optional<LoadedRecord> resumed) {
  return std::make_unique<PhaseHookImpl>(this, phase, pre_cursor,
                                         std::move(capture), std::move(resumed));
}

}  // namespace encdns::core
