// The §3 longitudinal scan campaign: every 10 days from Feb 1 to May 1 2019,
// sweep the routable space on TCP/853 in ZMap permutation order, then probe
// every open host with a real DoT query and collect/verify certificates.
#pragma once

#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "exec/cancel.hpp"
#include "exec/checkpoint_hook.hpp"
#include "exec/executor.hpp"
#include "fault/retry.hpp"
#include "scan/doh_prober.hpp"
#include "scan/dot_prober.hpp"
#include "scan/space.hpp"
#include "world/world.hpp"

namespace encdns::scan {

struct DiscoveredResolver {
  util::Ipv4 address;
  std::string cert_cn;
  std::string provider;  // provider_key(cert_cn)
  tls::CertStatus cert_status = tls::CertStatus::kEmptyChain;
  bool answer_correct = false;
  std::string country;  // via the geolocation oracle
  sim::Millis probe_latency{0.0};

  static void fields(auto& self, auto&& visit) {
    visit(self.address, self.cert_cn, self.provider, self.cert_status,
          self.answer_correct, self.country, self.probe_latency);
  }
};

struct ScanSnapshot {
  util::Date date;
  std::uint64_t addresses_probed = 0;
  std::uint64_t port_open = 0;  // SYN-ACK on 853
  std::uint64_t tls_responsive = 0;
  std::vector<DiscoveredResolver> resolvers;
  /// Retry accounting: transient sweep and probe failures and whether a
  /// retry recovered them (all zero without an active fault profile).
  fault::LayerTally faults;
  /// Hosts skipped in Phase 2 because the circuit breaker was open after
  /// repeated flaky probes in earlier scans of the campaign.
  std::uint64_t breaker_skipped = 0;
  /// Stateless-engine receive-loop verdicts (DESIGN.md §14): responses whose
  /// echoed cookie failed validation, second deliveries of one response, and
  /// late arrivals for already-retransmitted attempts. All zero without an
  /// active fault profile (and on legacy-mode sweeps).
  std::uint64_t rejected_forgery = 0;
  std::uint64_t rejected_duplicate = 0;
  std::uint64_t rejected_stale = 0;
  /// SYN retransmissions the engine's receive loop requested.
  std::uint64_t retransmits = 0;

  static void fields(auto& self, auto&& visit) {
    visit(self.date, self.addresses_probed, self.port_open, self.tls_responsive,
          self.breaker_skipped, self.rejected_forgery, self.rejected_duplicate,
          self.rejected_stale, self.retransmits, self.faults, self.resolvers);
  }

  /// Distinct providers (grouping key) seen in this snapshot.
  [[nodiscard]] std::vector<std::string> providers() const;

  /// Resolver-address count per country, descending.
  [[nodiscard]] std::vector<std::pair<std::string, double>> by_country() const;

  /// Providers owning at least one resolver with an invalid certificate.
  [[nodiscard]] std::vector<std::string> invalid_cert_providers() const;
};

/// A campaign's saved partial state (DESIGN.md §13): the scan serial and
/// the breaker's strikes — all one scan hands the next — and the snapshots
/// so far.
struct CampaignState {
  std::uint64_t scan_serial = 0;
  std::map<std::uint64_t, int> strikes;
  std::vector<ScanSnapshot> snapshots;

  static void fields(auto& self, auto&& visit) {
    visit(self.scan_serial, self.strikes, self.snapshots);
  }
};

/// Phase-1 sweep implementation. kStateless is the masscan-style engine
/// (scan::ScanEngine, DESIGN.md §14) and the default everywhere; kLegacy
/// keeps the synchronous per-shard loop that sends every address through
/// probe_tcp, as the bench guard's independent reference. Fault-free sweeps
/// produce the identical open set either way (the verdicts are
/// rng-independent), so the golden corpus does not depend on the mode.
enum class SweepMode { kStateless, kLegacy };

struct CampaignConfig {
  util::Date start{2019, 2, 1};
  int scan_count = 10;
  int interval_days = 10;
  std::uint64_t seed = 7;
  /// Scan origins, as in the paper: cloud machines in the US and China.
  std::vector<std::string> origin_countries = {"US", "US", "CN"};
  /// Worker threads for the sweep and the DoT probing; 0 = auto
  /// (ENCDNS_THREADS env or hardware_concurrency). Results are identical for
  /// every value — see exec::WorkerPool.
  unsigned thread_count = 0;
  /// Extra SYN attempts when a sweep probe comes back filtered. From the
  /// clean scan origins a filtered verdict means a dropped SYN, never a
  /// middlebox, so fault-free sweeps never retry (and stay byte-identical).
  int sweep_retries = 2;
  /// Phase-1 implementation (see SweepMode above).
  SweepMode sweep_mode = SweepMode::kStateless;
  /// Application-layer probe attempts on transient failures (Phase 2).
  int probe_attempts = 3;
  /// Consecutive scans in which a port-open host must flake out of the
  /// application-layer probe before the circuit breaker skips it.
  int breaker_threshold = 3;
  /// Cooperative cancellation, checked between scans (DESIGN.md §13). A
  /// campaign carries no sim budget of its own — only wall/manual triggers
  /// cut it — so a truncated campaign is a prefix of the scan sequence.
  exec::CancelToken* cancel = nullptr;
  /// Scan-boundary checkpointing: the campaign saves its snapshots, the
  /// circuit-breaker strikes and the scan serial after every non-final scan.
  exec::CheckpointHook* checkpoint = nullptr;
  /// Shared worker pool (task-graph mode, DESIGN.md §15). When set the
  /// campaign fans out on it instead of constructing its own, so shards
  /// from overlapping phases interleave in one queue; thread_count is then
  /// ignored. Null = private pool, as before.
  exec::WorkerPool* pool = nullptr;
};

class Scanner {
 public:
  Scanner(const world::World& world, CampaignConfig config);

  /// One full sweep + application-layer probing at `date`.
  [[nodiscard]] ScanSnapshot scan_once(const util::Date& date);

  /// Phase 1 alone: sweep the space at `date` with the configured mode and
  /// return the open set, accumulating probe accounting into `snapshot`.
  /// scan_once runs this then the application-layer probing; the bench's
  /// scan guard calls it directly to time the two SweepModes side by side
  /// without the (mode-independent) Phase-2 cost.
  [[nodiscard]] std::vector<util::Ipv4> sweep_once(const util::Date& date,
                                                   ScanSnapshot& snapshot);

  /// The whole campaign (scan_count scans, interval_days apart).
  [[nodiscard]] std::vector<ScanSnapshot> run_campaign();

  [[nodiscard]] const ScanSpace& space() const noexcept { return space_; }

 private:
  const world::World* world_;
  CampaignConfig config_;
  ScanSpace space_;
  std::vector<world::Vantage> origins_;
  std::unordered_map<std::uint32_t, std::string> geo_oracle_;
  std::uint64_t scan_serial_ = 0;
  /// Read-only during the parallel Phase 2; updated serially in canonical
  /// address order after the merge, so campaign state is deterministic.
  fault::CircuitBreaker breaker_;
};

}  // namespace encdns::scan
