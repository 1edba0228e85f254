// Study-level checkpointing over the write-ahead journal (DESIGN.md §13).
//
// Three record kinds. Two carry a WorldCursor and are keyed by phase name:
//   phase:<name>    (12) — the phase finished: the proxy platform cursor it
//                   owns, the resolver-cache entries it stored, its own
//                   metrics delta (attributed by its obs::PhaseTally) and
//                   its serialized results.
//   partial:<name>  (13) — the phase is mid-flight: its pre-phase platform
//                   cursor, the cache entries it stored up to the save, its
//                   delta so far and its own block state. Later partials
//                   supersede earlier ones.
//   obs:skeleton    (5)  — the registry's metric names.
// Phases overlap in the task graph, so no record holds a snapshot of the
// global registry, the other platform or the cache as a whole: under
// overlap those are a mixture of every phase in flight. Records are
// position-independent, and resume replays their deltas additively in
// canonical order. Retired kinds fail closed at a journal's first cursor
// record: 1–4 (whole cache sections), 6–7 (the absolute records of the
// deleted serial schedule), 8–9 (cursors that carried a cache tally) and
// 10–11 (cursors that carried both platforms).
//
// A cursor's cache section is relative (DESIGN.md §13): it is encoded
// against the resolved cache section of the previous record of the same
// phase in the same journal (empty for the phase's first record), as runs
// that copy entries from that base and runs of literal entries. A journal
// therefore grows with what the study caches, not with the square of a
// phase's block count, and loading a record resolves its phase's chain of
// records — superseded ones included — in journal order.
//
// Determinism-on-resume contract: phase execution consumes the proxy
// platforms' rng streams only in the serial acquire_batch prologue, and
// every other random draw is derived from (seed, global index). Restoring
// the pre-phase cursor therefore makes the rerun's recruitment identical to
// the killed run's; the hook then retracts the rerun's duplicate
// recruitment metrics, applies the partial's delta, and the phase continues
// from the first uncommitted block.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "cache/dns_cache.hpp"
#include "core/checkpoint/journal.hpp"
#include "exec/checkpoint_hook.hpp"
#include "obs/metrics.hpp"
#include "proxy/proxy.hpp"
#include "util/bytes.hpp"
#include "world/world.hpp"

namespace encdns::core {

/// Everything outside a phase's own results that must rewind with it: the
/// recruitment cursor of the proxy platform it owns (default for a phase
/// that owns none) and the resolver-cache entries it stored. Cache
/// contents are NOT a behavioral no-op mid-phase: shared lookups (DoH
/// bootstrap names, repeated diagnostic fetches) hit entries stored by
/// earlier session blocks, and a hit answers faster than a miss — so a
/// resumed run must see exactly the cache the killed run had.
struct WorldCursor {
  proxy::ProxyCursor platform;
  std::vector<std::vector<cache::ExportedEntry>> caches;  // per backend
};

/// One entry of a resolved cache section: a view of its bytes in the
/// journal's entry layout — u32 key length | key | i64 expiry | u32 wire
/// length | wire — and, in an encoder's base, a hash of its key for the
/// match index.
struct EntryRef {
  const std::uint8_t* bytes = nullptr;
  std::uint32_t size = 0;
  std::uint32_t key_hash = 0;
};

/// The resolved cache section of one cursor: every backend's entries in
/// export order, backend after backend. The refs point into bytes the
/// section does not own: a journal's records, or an encoder's literal blocks.
struct CacheSection {
  std::vector<EntryRef> entries;
  std::vector<std::uint32_t> ends;  // one past each backend's last entry

  /// Backend `b`'s entries (none past the last backend).
  [[nodiscard]] std::span<const EntryRef> backend(std::size_t b) const noexcept {
    if (b >= ends.size()) return {};
    const std::uint32_t begin = b == 0 ? 0 : ends[b - 1];
    return {entries.data() + begin, ends[b] - begin};
  }
};

/// Writer side of one phase's chain of cache sections. Each encode() writes
/// a section against the previous one: per backend, the entry count, then
/// runs of copy(start, len) from the base backend's entries and runs of
/// literal entries. A base entry matches only when its key, expiry and wire
/// bytes all equal the new entry's. The encoder keeps the literal bytes its
/// sections wrote in one buffer, which its base points into: no more than
/// the chain has written to the journal.
class CacheSectionEncoder {
 public:
  /// Appends `caches` as a section against the base (empty until the first
  /// encode() or rebase()), then makes `caches` the base.
  void encode(util::ByteWriter& w,
              const std::vector<std::vector<cache::ExportedEntry>>& caches);
  /// Continue a chain from a section resolved out of the journal, whose
  /// bytes must outlive the encoder.
  void rebase(CacheSection resolved);

 private:
  CacheSection base_;
  CacheSection next_;  // built by encode(), then swapped in
  util::ByteWriter literals_;  // what base_ points into
  std::vector<std::uint32_t> matches_;  // per entry: its base match
  std::vector<std::uint32_t> index_;    // open-addressed: base entry + 1
};

/// Reads one cache section written against `base` into `out` (whose refs
/// point into `r`'s bytes or copy `base`'s). Throws util::CodecError when a
/// copy run reaches outside its base, an entry count exceeds the base size
/// plus remaining/16, an op tag is unknown, a literal's wire fails the DNS
/// decoder, a run is empty or overruns its backend's count, or copy runs
/// take more entries than the base holds (so a chain cannot multiply its
/// size without paying for it in bytes).
void decode_cache_section(util::ByteReader& r, const CacheSection& base,
                          CacheSection& out);

/// The exported entries a resolved section stands for, in its order.
[[nodiscard]] std::vector<std::vector<cache::ExportedEntry>> export_section(
    const CacheSection& section);

/// A whole cursor, its cache section against an empty base (journal records
/// encode theirs against the phase's previous record instead); shared by
/// checkpoint.cpp, the tests and the checkpoint guard. A record's metrics
/// delta is the obs::Snapshot field list (util/fields.hpp).
void encode_cursor(util::ByteWriter& w, const WorldCursor& cursor);
[[nodiscard]] WorldCursor decode_cursor(util::ByteReader& r);

class StudyCheckpoint {
 public:
  StudyCheckpoint(std::string dir, std::uint64_t fingerprint, bool resume);

  /// A decoded cursor record: phase results (or block state for a partial),
  /// its world cursor, and the phase's own metrics delta.
  struct LoadedRecord {
    std::vector<std::uint8_t> state;
    WorldCursor cursor;  // caches left empty: see `caches`
    /// The cursor's resolved cache section: views into the journal, valid
    /// while this checkpoint lives. A caller copies entries out
    /// (export_section()) only if and when it merges them.
    CacheSection caches;
    obs::Snapshot metrics;
  };

  /// Committed full-phase record, if any. Pure decode — the caller applies
  /// the delta (MetricsRegistry::apply_delta) and the cursor itself.
  [[nodiscard]] std::optional<LoadedRecord> load_phase_delta(
      const std::string& phase);

  /// Whether the journal holds a partial record for `phase`. Presence only:
  /// the record is decoded (and fails closed) when the phase loads it.
  [[nodiscard]] bool has_partial(const std::string& phase) const;

  /// Newest mid-flight partial for `phase`, if any. Its cursor is the
  /// hybrid described at phase_delta_hook(): pre-phase platform position,
  /// cache contents as of the save.
  [[nodiscard]] std::optional<LoadedRecord> load_partial_delta(
      const std::string& phase);

  /// Journal a completed phase. `delta` is the phase's own attributed
  /// metrics delta; `cursor` carries only the platform the phase owns.
  /// Called from the task-graph driver (merge slots run in canonical order),
  /// possibly while other nodes are saving partials — all journal access is
  /// serialized internally.
  void commit_phase_delta(const std::string& phase,
                          const std::vector<std::uint8_t>& state,
                          const WorldCursor& cursor, const obs::Snapshot& delta);

  /// Newest registry name skeleton, if any commit has been made: the names /
  /// diagnostic flags / bucket bounds of every metric registered at that
  /// commit. Values are a mid-run mixture — feed the result only to
  /// MetricsRegistry::register_skeleton().
  [[nodiscard]] std::optional<obs::Snapshot> load_skeleton();

  /// Block-boundary hook handed to the phase via its config. load()
  /// *applies* the metrics delta of `resumed` (the record
  /// load_partial_delta() decoded) additively, attributed to the calling
  /// thread's current PhaseTally, so the resumed phase's tally folds the
  /// killed run's progress in, and returns its state. save() journals and
  /// durably commits a new partial whose delta is the calling thread's
  /// tally snapshot at that moment. A partial's cursor is a hybrid: the
  /// platform cursor of `pre_cursor` (the phase prologue re-runs
  /// recruitment on resume) but the cache contents `capture` returns at
  /// save time (completed blocks never re-run, so their cache stores must
  /// ride along). A state the phase fails to decode is rejected as a
  /// JournalError naming the partial record.
  [[nodiscard]] std::unique_ptr<exec::CheckpointHook> phase_delta_hook(
      const std::string& phase, const WorldCursor& pre_cursor,
      std::function<WorldCursor()> capture,
      std::optional<LoadedRecord> resumed = std::nullopt);

  [[nodiscard]] const Journal& journal() const noexcept { return journal_; }

 private:
  friend class PhaseHookImpl;

  /// Decodes `phase`'s newest phase (`is_phase`) or partial record,
  /// resolving its cache section through the phase's chain. A partial that
  /// ends the chain becomes the base of the phase's next record.
  [[nodiscard]] std::optional<LoadedRecord> load(const std::string& phase,
                                                 bool is_phase);
  /// Appends one cursor record of `phase` (uncommitted), its cache section
  /// continuing the phase's chain; a phase record ends the chain. Caller
  /// holds mutex_.
  void append_cursor_record(const std::string& phase, bool is_phase,
                            const WorldCursor& cursor,
                            const obs::Snapshot& metrics,
                            const std::vector<std::uint8_t>& state);

  Journal journal_;
  /// Writer state of one in-flight phase, freed when its phase record
  /// commits: its chain of cache sections and the buffer its records are
  /// built in, reused across saves.
  struct PhaseChain {
    CacheSectionEncoder sections;
    util::ByteWriter record;
  };
  std::map<std::string, PhaseChain> chains_;
  /// Node threads save partials while the driver thread commits merges; the
  /// journal and chains_ must only ever see one writer.
  mutable std::mutex mutex_;
};

}  // namespace encdns::core
