// Residential TCP SOCKS proxy networks (§4.1): the vantage-point supply for
// the client-side experiments.
//
// The measurement client tunnels TCP through a super proxy to residential
// exit nodes recruited by the platform. Consequences modelled here, because
// the paper's methodology hinges on them:
//   * only TCP is forwarded (hence DNS/TCP as the clear-text baseline);
//   * the observed time T_R adds one measurement-client <-> exit-node RTT to
//     every query, identically across protocols, so medians remain
//     comparable;
//   * exit nodes have short lifetimes and rotate — long experiments must
//     check remaining uptime through the platform API and discard nodes that
//     would expire mid-run.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "sim/duration.hpp"
#include "util/rng.hpp"
#include "world/world.hpp"

namespace encdns::proxy {

enum class PlatformKind { kGlobal, kCensoredCn };

struct ProxyConfig {
  std::string name = "ProxyRack";
  PlatformKind kind = PlatformKind::kGlobal;
  /// Median exit-node lifetime; sampled lognormal per node.
  sim::Millis median_lifetime{180000.0};
  double lifetime_sigma = 0.9;
  /// Probability that an exit node drops unexpectedly during one query
  /// (such nodes are removed from the dataset, per the paper's method).
  double churn_per_query = 0.0012;
  /// Where the measurement client sits (the study's lab).
  std::string measurement_client_country = "CN";
};

/// One tunnelled session through an exit node.
class ProxySession {
 public:
  ProxySession(world::Vantage vantage, sim::Millis tunnel_rtt,
               sim::Millis lifetime, std::uint64_t id)
      : vantage_(std::move(vantage)),
        tunnel_rtt_(tunnel_rtt),
        remaining_(lifetime),
        id_(id) {}

  [[nodiscard]] const world::Vantage& vantage() const noexcept { return vantage_; }
  [[nodiscard]] std::uint64_t id() const noexcept { return id_; }

  /// Extra RTT the tunnel adds to every observed latency (T_R vs T_R').
  [[nodiscard]] sim::Millis tunnel_rtt() const noexcept { return tunnel_rtt_; }

  /// Remaining uptime as reported by the platform API.
  [[nodiscard]] sim::Millis remaining_uptime() const noexcept { return remaining_; }

  /// Account `elapsed` of tunnel use; false once the node has expired.
  bool consume(sim::Millis elapsed) {
    remaining_ -= elapsed;
    return remaining_.value > 0.0;
  }

 private:
  world::Vantage vantage_;
  sim::Millis tunnel_rtt_;
  sim::Millis remaining_;
  std::uint64_t id_;
};

/// Summary of a recruited vantage-point dataset (Table 3 rows).
struct DatasetSummary {
  std::string platform;
  std::size_t distinct_ips = 0;
  std::size_t countries = 0;
  std::size_t ases = 0;

  static void fields(auto& self, auto&& visit) {
    visit(self.platform, self.distinct_ips, self.countries, self.ases);
  }
};

/// The platform's serializable recruitment position: its rng stream plus the
/// next session id. The study checkpoint captures a cursor at every phase
/// boundary so a resumed process re-acquires exactly the vantages the killed
/// process would have (DESIGN.md §13).
struct ProxyCursor {
  util::RngState rng;
  std::uint64_t next_id = 1;

  static void fields(auto& self, auto&& visit) { visit(self.rng, self.next_id); }
};

class ProxyNetwork {
 public:
  ProxyNetwork(const world::World& world, ProxyConfig config, std::uint64_t seed);

  /// Recruit a fresh exit node (the platform rotates them on every connect).
  [[nodiscard]] ProxySession acquire();

  /// Recruit `n` exit nodes in one serial pass. Parallel experiments
  /// pre-acquire their whole vantage batch this way so the platform's rng
  /// stream is consumed in a fixed order regardless of worker scheduling.
  [[nodiscard]] std::vector<ProxySession> acquire_batch(std::size_t n);

  /// True if a query through the platform hits unexpected node churn.
  [[nodiscard]] bool churn_event() { return rng_.chance(config_.churn_per_query); }

  /// Replacement for a session whose exit node died mid-measurement: the
  /// platform rotates in a fresh node on reconnect. Samples exclusively from
  /// the caller's rng stream (never the platform's own), so parallel
  /// experiments that fail over stay bit-identical for any thread count; the
  /// replacement id is derived from the dead session's.
  [[nodiscard]] ProxySession failover(const ProxySession& dead,
                                      util::Rng& rng) const;

  /// Recruit `n` sessions and summarize the dataset they form.
  [[nodiscard]] static DatasetSummary summarize(const std::string& platform,
                                                const std::vector<ProxySession>& s);

  [[nodiscard]] const ProxyConfig& config() const noexcept { return config_; }

  /// Checkpoint cursor over the platform's recruitment state.
  [[nodiscard]] ProxyCursor cursor() const noexcept {
    return ProxyCursor{rng_.state(), next_id_};
  }
  void restore_cursor(const ProxyCursor& cursor) noexcept {
    rng_.restore(cursor.rng);
    next_id_ = cursor.next_id;
  }

 private:
  const world::World* world_;
  ProxyConfig config_;
  util::Rng rng_;
  net::GeoPoint client_geo_;
  std::uint64_t next_id_ = 1;
};

}  // namespace encdns::proxy
