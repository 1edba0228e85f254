// The §4.3 performance experiments.
//
// Reused-connection mode (the paper's main focus): on each proxy client,
// issue 20 DNS/TCP, DoT and DoH queries over persistent connections, take
// per-client medians of the observed time T_R, and compare transports; the
// tunnel RTT cancels in the differences. Aggregated per country -> Figure 9;
// the per-client medians -> Figure 10's scatter.
//
// No-reuse mode (Table 7): from a handful of controlled vantages, issue each
// query over a brand-new TCP+TLS session against the self-built resolver and
// compare medians.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "client/do53.hpp"
#include "client/doh.hpp"
#include "client/dot.hpp"
#include "exec/cancel.hpp"
#include "exec/checkpoint_hook.hpp"
#include "exec/executor.hpp"
#include "fault/retry.hpp"
#include "measure/targets.hpp"
#include "proxy/proxy.hpp"
#include "world/world.hpp"

namespace encdns::measure {

/// Per-client medians of observed query time (ms), reused connections.
struct ClientLatency {
  std::string country;
  double dns_ms = 0.0;
  double dot_ms = 0.0;
  double doh_ms = 0.0;

  static void fields(auto& self, auto&& visit) {
    visit(self.country, self.dns_ms, self.dot_ms, self.doh_ms);
  }

  [[nodiscard]] double dot_overhead() const noexcept { return dot_ms - dns_ms; }
  [[nodiscard]] double doh_overhead() const noexcept { return doh_ms - dns_ms; }
};

/// Figure 9 row: per-country overhead statistics.
struct CountryLatency {
  std::string country;
  std::size_t clients = 0;
  double dot_overhead_mean = 0.0;
  double dot_overhead_median = 0.0;
  double doh_overhead_mean = 0.0;
  double doh_overhead_median = 0.0;
};

struct PerformanceConfig {
  std::size_t client_count = 1500;
  int queries_per_protocol = 20;
  util::Date date{2019, 3, 20};
  std::uint64_t seed = 13;
  /// Resolver under test (Figure 9/10 use Cloudflare).
  std::string target_name = "Cloudflare";
  /// Worker threads for the per-client fan-out; 0 = auto (ENCDNS_THREADS env
  /// or hardware_concurrency). Results are identical for every value.
  unsigned thread_count = 0;
  /// Attempts per query before the client is considered failed (transient
  /// statuses only; the successful attempt's latency is what gets recorded).
  int query_attempts = 3;
  /// Session failovers allowed when the exit node churns mid-run; the query
  /// round restarts on the replacement node, mirroring the paper's
  /// node-discard-and-continue method without losing the vantage.
  int max_failovers = 2;
  /// Cooperative cancellation + block-boundary checkpointing (DESIGN.md §13);
  /// both optional, same semantics as ReachabilityConfig.
  exec::CancelToken* cancel = nullptr;
  exec::CheckpointHook* checkpoint = nullptr;
  /// Shared worker pool (task-graph mode); null = private pool.
  exec::WorkerPool* pool = nullptr;
};

struct PerformanceResults {
  std::vector<ClientLatency> clients;  // only clients where all transports worked
  std::size_t discarded_clients = 0;   // failures or expiring exit nodes
  /// Coverage accounting (DESIGN.md §13): vantages planned vs actually
  /// measured (kept + discarded); they differ only under a deadline.
  std::size_t clients_planned = 0;
  std::size_t clients_processed = 0;
  /// Fault accounting: per-query transient retries and exit-node churn
  /// vs failover recoveries.
  fault::LayerTally client_faults;
  fault::LayerTally proxy_faults;

  static void fields(auto& self, auto&& visit) {
    visit(self.discarded_clients, self.clients_planned, self.clients_processed,
          self.client_faults, self.proxy_faults, self.clients);
  }

  /// Global mean/median overhead across clients.
  [[nodiscard]] double overall(bool doh, bool median) const;

  /// Figure 9 aggregation; countries ordered by client count.
  [[nodiscard]] std::vector<CountryLatency> by_country(std::size_t min_clients) const;
};

/// A performance run's saved partial state (DESIGN.md §13): the clients
/// done, the span's sim time (integer µs) they accounted, and the results
/// so far.
struct PerformanceState {
  std::uint64_t done = 0;
  std::uint64_t sim_credit_us = 0;
  PerformanceResults results;

  static void fields(auto& self, auto&& visit) {
    visit(self.done, self.sim_credit_us, self.results);
  }
};

class PerformanceTest {
 public:
  PerformanceTest(const world::World& world, proxy::ProxyNetwork& platform,
                  PerformanceConfig config = {});

  [[nodiscard]] PerformanceResults run();

 private:
  const world::World* world_;
  proxy::ProxyNetwork* platform_;
  PerformanceConfig config_;
  ResolverTarget target_;
};

/// Table 7: no-reuse latency from controlled vantages.
struct NoReuseRow {
  std::string vantage_country;
  double dns_s = 0.0;  // median seconds, matching the paper's unit
  double dot_s = 0.0;
  double doh_s = 0.0;

  static void fields(auto& self, auto&& visit) {
    visit(self.vantage_country, self.dns_s, self.dot_s, self.doh_s);
  }

  [[nodiscard]] double dot_overhead_ms() const noexcept {
    return (dot_s - dns_s) * 1000.0;
  }
  [[nodiscard]] double doh_overhead_ms() const noexcept {
    return (doh_s - dns_s) * 1000.0;
  }
};

struct NoReuseConfig {
  std::vector<std::string> vantage_countries = {"US", "NL", "AU", "HK"};
  int queries = 200;
  util::Date date{2019, 3, 25};
  std::uint64_t seed = 17;
  /// 2019-era stacks: full TLS 1.2 handshakes dominate the no-reuse cost.
  tls::TlsVersion tls_version = tls::TlsVersion::kTls12;
};

[[nodiscard]] std::vector<NoReuseRow> run_no_reuse_test(const world::World& world,
                                                        NoReuseConfig config = {});

}  // namespace encdns::measure
