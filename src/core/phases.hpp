// The study's phase table (DESIGN.md §7): each measurement phase described
// once. Every phase result is produced from its row, whether an accessor, a
// task-graph node or the resume prologue forces it, and everything keyed by
// phase comes from the rows: graph nodes and edges, report groups, journal
// keys, budget tokens, owned-cursor capture and coverage.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "exec/cancel.hpp"
#include "exec/checkpoint_hook.hpp"
#include "exec/executor.hpp"
#include "proxy/proxy.hpp"

namespace encdns::core {

class Study;

/// Coverage of one study phase (DESIGN.md §13): work units planned by the
/// config vs actually completed. They differ only when a deadline budget
/// cancelled the phase's tail; every table and figure derived from a
/// degraded phase is annotated with this fraction.
struct PhaseCoverage {
  std::string phase{};
  std::uint64_t planned = 0;
  std::uint64_t completed = 0;

  [[nodiscard]] double fraction() const noexcept {
    return planned == 0 ? 1.0
                        : static_cast<double>(completed) /
                              static_cast<double>(planned);
  }
  [[nodiscard]] bool degraded() const noexcept { return completed < planned; }
};

/// The phases, in the table's canonical declaration order.
enum class PhaseId : std::uint8_t {
  kScanCampaign, kDohDiscovery, kDohScan, kLocalProbe, kCerts,
  kReachabilityGlobal, kReachabilityCn, kPerformance, kNoReuse,
  kNetflow, kNetflowTrend, kPassiveDns
};

/// Which proxy platform a phase advances (its acquire_batch prologue). The
/// graph edges serialize each platform's users, so the owner's cursor is
/// stable at capture time while the other platform may be mid-advance on
/// another node thread — owned-cursor capture must not read it.
enum class OwnedPlatform : std::uint8_t { kNone, kGlobal, kCn };

/// A phase's deadline budget: "<seconds>" (wall) or "sim:<ms>"
/// (deterministic), read from `env`, or from `fallback` while `env` is
/// unset. Phases naming the same `env` share one token; a fallback lends
/// only its value, so a phase never inherits a token another phase already
/// tripped. A phase without `env` takes no token.
struct PhaseBudget {
  const char* env = nullptr;
  const char* fallback = nullptr;
};

/// What a phase's run gets besides the study.
struct PhaseContext {
  exec::WorkerPool* pool = nullptr;  // the graph's shared pool, or null
  exec::CancelToken* cancel = nullptr;
  exec::CheckpointHook* checkpoint = nullptr;  // `partials` phases, journaled
  proxy::ProxyNetwork* platform = nullptr;     // the owned platform, if any
};

struct PhaseSpec {
  PhaseId id;
  const char* name;   // journal key, graph node and coverage name
  const char* group;  // report group its node's delta folds into
  std::vector<PhaseId> deps{};  // earlier phases it reads; accessors force them
  /// Earlier phases the task graph finishes before this one although it
  /// does not read them, so a lone accessor does not force them: they write
  /// a resolver cache this phase fills (DESIGN.md §15).
  std::vector<PhaseId> after{};
  OwnedPlatform platform = OwnedPlatform::kNone;
  PhaseBudget budget{};
  bool partials = false;  // saves partial records at block boundaries

  // Bound to the phase's cached result. "certs" has none: only `run`.
  std::function<bool(const Study&)> cached{};
  std::function<void(Study&, const PhaseContext&)> run{};  // computes, caches
  std::function<std::vector<std::uint8_t>(const Study&)> encode{};
  std::function<void(Study&, std::span<const std::uint8_t>)> decode{};
  /// Planned vs completed units of the cached result.
  std::function<PhaseCoverage(const Study&)> coverage{};

  [[nodiscard]] bool journaled() const noexcept {
    return static_cast<bool>(encode);
  }
};

/// Every row, indexed by PhaseId.
[[nodiscard]] const std::vector<PhaseSpec>& phase_table();

[[nodiscard]] inline const PhaseSpec& phase_spec(PhaseId id) {
  return phase_table()[static_cast<std::size_t>(id)];
}

/// The journaled phases' names, in canonical order.
[[nodiscard]] const std::vector<std::string>& canonical_phases();

}  // namespace encdns::core
