// The §4.2 reachability experiment (Figure 7's workflow):
//   1. from every vantage point, issue clear-text DNS, DoT and DoH queries
//      for a uniquely prefixed probe name to each target resolver (up to 5
//      attempts, 30 s timeout), collecting certificates on the way;
//   2. classify each (resolver, protocol) as Correct / Incorrect / Failed;
//   3. for clients that cannot reach Cloudflare over DoT, probe diagnostic
//      ports on 1.1.1.1 and fetch its webpage to identify conflicting
//      devices (Table 5);
//   4. record clients whose TLS sessions present resigned chains (Table 6).
#pragma once

#include <map>
#include <string>
#include <vector>

#include "client/do53.hpp"
#include "client/doh.hpp"
#include "client/dot.hpp"
#include "exec/cancel.hpp"
#include "exec/checkpoint_hook.hpp"
#include "exec/executor.hpp"
#include "fault/retry.hpp"
#include "http/url.hpp"
#include "measure/targets.hpp"
#include "proxy/proxy.hpp"
#include "world/world.hpp"

namespace encdns::measure {

/// Table 4's per-cell classification.
enum class Outcome { kCorrect, kIncorrect, kFailed };

struct OutcomeCounts {
  std::uint64_t correct = 0;
  std::uint64_t incorrect = 0;
  std::uint64_t failed = 0;

  static void fields(auto& self, auto&& visit) {
    visit(self.correct, self.incorrect, self.failed);
  }

  [[nodiscard]] std::uint64_t total() const noexcept {
    return correct + incorrect + failed;
  }
  [[nodiscard]] double fraction(Outcome outcome) const noexcept;
};

/// Diagnostics from a client that could not use Cloudflare DoT.
struct ConflictDiagnosis {
  util::Ipv4 client_address;
  std::string country;
  std::uint32_t asn = 0;
  std::vector<std::uint16_t> open_ports;  // on 1.1.1.1, from this client
  std::string webpage_excerpt;            // first bytes of the 1.1.1.1 page

  static void fields(auto& self, auto&& visit) {
    visit(self.client_address, self.country, self.asn, self.open_ports,
          self.webpage_excerpt);
  }
};

/// A client whose TLS sessions were re-signed in path (Table 6 rows).
struct InterceptionRecord {
  util::Ipv4 client_address;
  std::string country;
  std::uint32_t asn = 0;
  std::string untrusted_ca_cn;
  bool port_443 = false;
  bool port_853 = false;
  bool dot_lookup_succeeded = false;  // opportunistic DoT proceeded
  bool doh_lookup_succeeded = false;  // strict DoH must have failed

  static void fields(auto& self, auto&& visit) {
    visit(self.client_address, self.country, self.asn, self.untrusted_ca_cn,
          self.port_443, self.port_853, self.dot_lookup_succeeded,
          self.doh_lookup_succeeded);
  }
};

struct ReachabilityConfig {
  std::size_t client_count = 3000;
  int max_attempts = 5;
  sim::Millis timeout{30000.0};
  util::Date date{2019, 3, 15};
  std::uint64_t seed = 11;
  /// Worker threads for the per-vantage fan-out; 0 = auto (ENCDNS_THREADS env
  /// or hardware_concurrency). Results are identical for every value.
  unsigned thread_count = 0;
  /// Backoff knobs for the retry loop (max_attempts/timeout above stay
  /// authoritative for the attempt count and per-attempt deadline).
  fault::RetryPolicy retry;
  /// Session failovers allowed when an exit node dies mid-run; beyond this
  /// the remaining cells for the session count as failed.
  int max_failovers = 3;
  /// Cooperative cancellation (DESIGN.md §13): checked at block boundaries
  /// and at shard pickup; a tripped token truncates the run to an executed
  /// prefix of sessions instead of awaiting stragglers. Optional.
  exec::CancelToken* cancel = nullptr;
  /// Block-boundary checkpointing (DESIGN.md §13): when set, the phase saves
  /// its state-so-far after every non-final session block and resumes after
  /// the last completed block on load. Optional.
  exec::CheckpointHook* checkpoint = nullptr;
  /// Shared worker pool (task-graph mode); null = private pool.
  exec::WorkerPool* pool = nullptr;
};

struct ReachabilityResults {
  std::string platform;
  std::size_t clients = 0;
  /// Vantages the run intended to measure; `clients` < `clients_planned`
  /// only when a deadline cancelled the tail (DESIGN.md §13 coverage).
  std::size_t clients_planned = 0;
  /// (resolver name, protocol) -> outcome tallies.
  std::map<std::pair<std::string, Protocol>, OutcomeCounts> cells;
  std::vector<ConflictDiagnosis> conflict_diagnoses;
  std::vector<InterceptionRecord> interceptions;
  proxy::DatasetSummary dataset;
  /// Fault accounting: transient attempt failures seen by the clients and
  /// exit-node deaths seen by the platform (injected / recovered / surfaced).
  fault::LayerTally client_faults;
  fault::LayerTally proxy_faults;

  static void fields(auto& self, auto&& visit) {
    visit(self.platform, self.clients, self.clients_planned, self.dataset,
          self.client_faults, self.proxy_faults, self.cells,
          self.conflict_diagnoses, self.interceptions);
  }

  [[nodiscard]] const OutcomeCounts& cell(const std::string& resolver,
                                          Protocol protocol) const;
};

/// A reachability run's saved partial state (DESIGN.md §13): the sessions
/// done, the queries and the span's sim time (integer µs) they accounted,
/// and the results so far.
struct ReachabilityState {
  std::uint64_t done = 0;
  std::uint64_t queries = 0;
  std::uint64_t sim_credit_us = 0;
  ReachabilityResults results;

  static void fields(auto& self, auto&& visit) {
    visit(self.done, self.queries, self.sim_credit_us, self.results);
  }
};

class ReachabilityTest {
 public:
  ReachabilityTest(const world::World& world, proxy::ProxyNetwork& platform,
                   ReachabilityConfig config = {});

  [[nodiscard]] ReachabilityResults run();

 private:
  const world::World* world_;
  proxy::ProxyNetwork* platform_;
  ReachabilityConfig config_;
  std::vector<ResolverTarget> targets_;
  /// Pre-parsed DoH URI templates, aligned with targets_ (parsed once at
  /// construction instead of once per query attempt).
  std::vector<std::optional<http::UriTemplate>> doh_templates_;
  /// The valid (target, protocol) combinations, fixed at construction. Worker
  /// partials tally into a flat vector indexed by combination (no per-session
  /// map nodes or key strings, DESIGN.md §12); run() expands the indices back
  /// into the keyed result map.
  std::vector<std::pair<std::string, Protocol>> cell_keys_;
  std::vector<int> cell_index_;  // [target * 3 + protocol] -> key index or -1

  struct ClientOutcome {
    Outcome outcome = Outcome::kFailed;
    client::QueryOutcome last;
    int attempts = 0;
    int transient_failures = 0;
  };
  struct SessionPartial {
    std::vector<OutcomeCounts> cell_counts;  // aligned with cell_keys_
    std::optional<InterceptionRecord> interception;
    std::optional<ConflictDiagnosis> diagnosis;
    fault::LayerTally client_faults;
    fault::LayerTally proxy_faults;
    std::uint64_t queries = 0;
    sim::Millis sim_elapsed{0.0};  // credited to the reach span at merge
  };
  // `session` by value: on exit-node death the session is replaced in place.
  [[nodiscard]] SessionPartial run_session(proxy::ProxySession session,
                                           util::Rng& rng);
  /// Slot-reusing (DESIGN.md §12): fills `out`, whose warmed QueryOutcome is
  /// reused across every lookup a worker thread performs.
  void query_with_retries(const proxy::ProxySession& session,
                          client::Do53Client& do53, client::DotClient& dot,
                          client::DohClient& doh, std::size_t target_index,
                          Protocol protocol, util::Rng& rng, ClientOutcome& out);
  [[nodiscard]] Outcome classify(const client::QueryOutcome& outcome) const;
};

}  // namespace encdns::measure
