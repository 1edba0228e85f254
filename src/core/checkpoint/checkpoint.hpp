// Study-level checkpointing over the write-ahead journal (DESIGN.md §13).
//
// Four record kinds, keyed by phase name:
//   phase:<name>    — the phase finished: post-phase WorldCursor, an
//                     `ordered` flag, a metrics-registry snapshot taken at
//                     commit time, and the serialized phase results.
//   partial:<name>  — the phase is mid-flight: pre-phase WorldCursor, a
//                     metrics snapshot, and the phase's own block state.
//                     Later partials supersede earlier ones.
// Under the task-graph executor (DESIGN.md §15) phases overlap, so a
// commit-time snapshot of the global registry is a mixture of every phase in
// flight and useless as an absolute restore point. The same two keys then
// carry *delta* variants instead: the phase's own metrics delta (attributed
// by its obs::PhaseTally) and a cursor holding only the proxy platform the
// phase itself advances — reading the other platform mid-overlap would race
// with the node that owns it. Delta records are position-independent:
// resume replays them additively in canonical order, so no `ordered` flag
// is needed. A journal only ever holds one family (the config fingerprint
// covers ENCDNS_DAG), and the kind tags fail closed across families.
//
// Determinism-on-resume contract: phase execution consumes the proxy
// platforms' rng streams only in the serial acquire_batch prologue, and
// every other random draw is derived from (seed, global index). Restoring
// the pre-phase cursor therefore makes the rerun's recruitment identical to
// the killed run's; the partial's metrics snapshot then restores the
// registry absolutely (wiping the rerun's duplicate recruitment counters),
// and the phase continues from the first uncommitted block. The `ordered`
// flag records whether every canonical predecessor phase had committed when
// a phase record was written — only then is its metrics snapshot a valid
// absolute restore point (the CLI always drives phases in canonical order
// when checkpointing, so in practice it always is).
#pragma once

#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
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

/// Everything outside a phase's own results that must rewind with it: both
/// proxy platforms' recruitment cursors, the cumulative resolver-cache
/// tally, and the full contents of every recursive backend's record cache.
/// Cache contents are NOT a behavioral no-op mid-phase: shared lookups
/// (DoH bootstrap names, repeated diagnostic fetches) hit entries stored by
/// earlier session blocks, and a hit answers faster than a miss — so a
/// resumed run must see exactly the cache the killed run had.
struct WorldCursor {
  proxy::ProxyCursor global_platform;
  proxy::ProxyCursor cn_platform;
  world::World::ResolverCacheTally cache_tally;
  std::vector<std::vector<cache::ExportedEntry>> caches;  // per backend
};

/// The canonical phase order (matches Study::observability_report).
[[nodiscard]] const std::vector<std::string>& canonical_phases();

// Byte codecs shared by checkpoint.cpp and the tests.
void encode_cursor(util::ByteWriter& w, const WorldCursor& cursor);
[[nodiscard]] WorldCursor decode_cursor(util::ByteReader& r);
void encode_metrics(util::ByteWriter& w, const obs::Snapshot& snap);
[[nodiscard]] obs::Snapshot decode_metrics(util::ByteReader& r);

class StudyCheckpoint {
 public:
  StudyCheckpoint(std::string dir, std::uint64_t fingerprint, bool resume);

  struct LoadedPhase {
    std::vector<std::uint8_t> state;  // serialized phase results
    WorldCursor cursor;               // post-phase world position
  };

  /// Committed full-phase record, if the journal holds one. When the record
  /// was written in canonical order, the metrics registry is restored to its
  /// commit-time snapshot as a side effect.
  [[nodiscard]] std::optional<LoadedPhase> load_phase(const std::string& phase);

  /// Pre-phase cursor of the newest partial record for `phase`, if any. The
  /// caller must rewind the platforms to it before re-running the phase.
  [[nodiscard]] std::optional<WorldCursor> partial_pre_cursor(
      const std::string& phase) const;

  /// Journal a completed phase (results + post-phase cursor + metrics).
  void commit_phase(const std::string& phase, const std::vector<std::uint8_t>& state,
                    const WorldCursor& cursor);

  /// Block-boundary hook handed to the phase via its config. load() returns
  /// the newest partial state (restoring the commit-time metrics snapshot);
  /// save() journals and durably commits a new partial. A partial's cursor
  /// is a hybrid: platform cursors from `pre_cursor` (the phase prologue
  /// re-runs recruitment on resume) but cache contents and tally from
  /// `capture` at save time (completed blocks never re-run, so their cache
  /// stores must ride along).
  [[nodiscard]] std::unique_ptr<exec::CheckpointHook> phase_hook(
      const std::string& phase, const WorldCursor& pre_cursor,
      std::function<WorldCursor()> capture);

  // --- task-graph (delta) protocol, DESIGN.md §15 -------------------------

  /// A decoded delta-family record: phase results (or block state for a
  /// partial), the phase's owned-platform cursor, and its own metrics delta.
  struct LoadedDelta {
    std::vector<std::uint8_t> state;
    WorldCursor cursor;
    obs::Snapshot delta;
  };

  /// Committed full-phase delta record, if any. Pure decode — the caller
  /// applies the delta (MetricsRegistry::apply_delta) and the cursor itself.
  [[nodiscard]] std::optional<LoadedDelta> load_phase_delta(
      const std::string& phase);

  /// Whether the journal holds a partial record for `phase`. Presence only:
  /// the record is decoded (and fails closed) when the phase loads it.
  [[nodiscard]] bool has_partial(const std::string& phase) const;

  /// Newest mid-flight delta partial for `phase`, if any. Its cursor is the
  /// hybrid described at phase_hook(): pre-phase platform position, cache
  /// contents as of the save.
  [[nodiscard]] std::optional<LoadedDelta> load_partial_delta(
      const std::string& phase);

  /// Journal a completed phase in the delta family. `delta` is the phase's
  /// own attributed metrics delta; `cursor` carries only the platform the
  /// phase owns. Called from the task-graph driver (merge slots run in
  /// canonical order), possibly while other nodes are saving partials — all
  /// journal access is serialized internally.
  void commit_phase_delta(const std::string& phase,
                          const std::vector<std::uint8_t>& state,
                          const WorldCursor& cursor, const obs::Snapshot& delta);

  /// Newest registry name skeleton, if any delta commit has been made: the
  /// names / diagnostic flags / bucket bounds of every metric registered at
  /// that commit. Values are a mid-run mixture — feed the result only to
  /// MetricsRegistry::register_skeleton(), never restore().
  [[nodiscard]] std::optional<obs::Snapshot> load_skeleton();

  /// Delta-family block-boundary hook. load() decodes the newest delta
  /// partial and *applies* its metrics delta (additively, attributed to the
  /// calling thread's current PhaseTally, so the resumed phase's tally folds
  /// the killed run's progress in); save() journals a new partial whose
  /// delta is the calling thread's tally snapshot at that moment.
  [[nodiscard]] std::unique_ptr<exec::CheckpointHook> phase_delta_hook(
      const std::string& phase, const WorldCursor& pre_cursor,
      std::function<WorldCursor()> capture);

  [[nodiscard]] const Journal& journal() const noexcept { return journal_; }

 private:
  friend class PhaseHookImpl;
  friend class PhaseDeltaHookImpl;

  Journal journal_;
  std::set<std::string> committed_;  // phases with a full record
  /// Node threads save partials while the driver thread commits merges; the
  /// journal (and committed_) must only ever see one writer. Serial-mode
  /// callers take it too — uncontended, so effectively free.
  mutable std::mutex mutex_;
};

}  // namespace encdns::core
