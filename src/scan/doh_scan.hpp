// E-DoH-style efficient DoH discovery scan (§3 variant): instead of mining
// URLs for DoH paths, sweep the routable space on TCP/443 with the stateless
// engine, peek at each responder's certificate to learn a server name, and
// issue directed RFC 8484 probes against the well-known DoH paths with the
// hostname used only for SNI/validation. Finds IP-hosted DoH endpoints the
// URL dataset never mentions.
#pragma once

#include <string>
#include <vector>

#include "exec/cancel.hpp"
#include "exec/executor.hpp"
#include "fault/retry.hpp"
#include "sim/duration.hpp"
#include "util/date.hpp"
#include "util/ipv4.hpp"
#include "world/world.hpp"

namespace encdns::scan {

struct DohScanConfig {
  std::uint64_t seed = 7;
  /// Worker threads for the sweep and the directed probing; 0 = auto.
  unsigned thread_count = 0;
  /// Extra SYN attempts when a sweep probe comes back filtered.
  int sweep_retries = 1;
  /// Directed-probe attempts on transient failures per (host, path).
  int probe_attempts = 3;
  /// Cooperative cancellation for the sweep (the directed-probe tail runs
  /// over the open set only, which is tiny).
  exec::CancelToken* cancel = nullptr;
  /// Shared worker pool (task-graph mode); null = private pool.
  exec::WorkerPool* pool = nullptr;
};

/// One confirmed IP-directed DoH endpoint.
struct DohScanEndpoint {
  util::Ipv4 address;
  std::string host;  // leaf CN learned from the certificate peek
  std::string path;
  std::string uri_template;  // normalized https://host/path{?dns}
  bool cert_valid = false;
  bool answer_correct = false;
  sim::Millis probe_latency{0.0};

  static void fields(auto& self, auto&& visit) {
    visit(self.address, self.host, self.path, self.uri_template,
          self.cert_valid, self.answer_correct, self.probe_latency);
  }
};

struct DohScanResult {
  util::Date date;
  std::uint64_t addresses_probed = 0;
  std::uint64_t port443_open = 0;     // SYN-ACK on 443
  std::uint64_t tls_established = 0;  // certificate peek succeeded
  /// Confirmed endpoints in canonical order (ascending address).
  std::vector<DohScanEndpoint> endpoints;
  /// Retry accounting: sweep retransmits recovered/surfaced plus directed
  /// probe transients (all zero without an active fault profile).
  fault::LayerTally faults;
  /// Stateless-engine receive-loop verdicts, as in ScanSnapshot.
  std::uint64_t rejected_forgery = 0;
  std::uint64_t rejected_duplicate = 0;
  std::uint64_t rejected_stale = 0;
  std::uint64_t retransmits = 0;

  static void fields(auto& self, auto&& visit) {
    visit(self.date, self.addresses_probed, self.port443_open,
          self.tls_established, self.rejected_forgery, self.rejected_duplicate,
          self.rejected_stale, self.retransmits, self.faults, self.endpoints);
  }

  /// Endpoint hosts absent from `known` (e.g. the URL-dataset discovery's
  /// host set) — the scan's value-add over URL mining.
  [[nodiscard]] std::size_t hosts_beyond(
      const std::vector<std::string>& known) const;
};

/// Run the whole scan at `date`: engine sweep on 443, certificate peek,
/// directed DoH probes. Deterministic and thread-count invariant.
[[nodiscard]] DohScanResult run_doh_scan(const world::World& world,
                                         const DohScanConfig& config,
                                         const util::Date& date);

}  // namespace encdns::scan
