#include "scan/doh_scan.hpp"

#include <algorithm>
#include <unordered_set>

#include "client/doh.hpp"
#include "exec/executor.hpp"
#include "http/url.hpp"
#include "obs/span.hpp"
#include "scan/doh_prober.hpp"
#include "scan/engine.hpp"
#include "scan/space.hpp"
#include "util/rng.hpp"

namespace encdns::scan {
namespace {

constexpr std::uint16_t kHttpsPort = 443;
constexpr sim::Millis kConnectTimeout{10000.0};

/// Per-host probe outcome carried back from the parallel map; merged
/// serially in canonical open-host order.
struct HostProbe {
  bool tls = false;
  bool confirmed = false;
  DohScanEndpoint endpoint;
  fault::LayerTally faults;
  sim::Millis sim_elapsed{0.0};
};

}  // namespace

std::size_t DohScanResult::hosts_beyond(
    const std::vector<std::string>& known) const {
  std::unordered_set<std::string> known_set(known.begin(), known.end());
  std::unordered_set<std::string> beyond;
  for (const auto& e : endpoints)
    if (known_set.find(e.host) == known_set.end()) beyond.insert(e.host);
  return beyond.size();
}

DohScanResult run_doh_scan(const world::World& world,
                           const DohScanConfig& config, const util::Date& date) {
  OBS_SPAN_VAR(scan_span, "scan.doh_scan");
  DohScanResult result;
  result.date = date;

  // Phase 1: stateless sweep of TCP/443 over the same routable space as the
  // §3 DoT campaign. Port 443 has no background population in the world, so
  // the engine's fast path reduces the sweep to the bound services — the
  // "efficient" half of E-DoH.
  ScanSpace space(world.scan_prefixes());
  CyclicPermutation permutation(space.size(), config.seed * 2654435761ULL + 1);
  const std::vector<world::Vantage> origins = {world.make_clean_vantage("US")};
  EngineConfig engine_config;
  engine_config.seed = config.seed ^ 0xED0D05ULL;
  engine_config.port = kHttpsPort;
  engine_config.max_attempts = 1 + std::max(config.sweep_retries, 0);
  engine_config.thread_count = config.thread_count;
  engine_config.cancel = config.cancel;
  engine_config.pool = config.pool;
  ScanEngine engine(world, engine_config);
  SweepResult sweep = engine.sweep(space, permutation, origins, date);
  result.addresses_probed = sweep.tally.probed;
  result.port443_open = sweep.open_hosts.size();
  result.faults += sweep.tally.faults;
  result.rejected_forgery = sweep.tally.rejected_forgery;
  result.rejected_duplicate = sweep.tally.rejected_duplicate;
  result.rejected_stale = sweep.tally.rejected_stale;
  result.retransmits = sweep.tally.retransmits;
  scan_span.add_sim(sweep.tally.sim_elapsed);

  // Phase 2: per open host, peek at the certificate with an empty SNI to
  // learn a server name, then probe the well-known DoH paths directly at the
  // address (the learned name supplies SNI and certificate validation). One
  // task per host with an address-derived rng stream, exactly like the DoT
  // campaign's Phase 2, so the result is thread-count invariant.
  exec::PoolLease pool(config.pool, config.thread_count);
  const std::uint64_t probe_seed = util::mix64(config.seed ^ 0xD0A5CA4ULL);
  const auto probes = exec::parallel_map(
      pool.get(), sweep.open_hosts,
      [&](const util::Ipv4 addr, std::size_t) -> HostProbe {
        HostProbe probe;
        util::Rng rng(util::mix64(probe_seed ^ addr.value()));
        auto connect = world.network().tcp_connect(
            origins.front().context, rng, addr, kHttpsPort, date,
            kConnectTimeout);
        probe.sim_elapsed += connect.latency;
        if (connect.status != net::Network::ConnectResult::Status::kConnected)
          return probe;
        const auto tls = connect.connection->tls_handshake("");
        probe.sim_elapsed += tls.latency;
        if (tls.status != net::TcpConnection::TlsResult::Status::kEstablished)
          return probe;
        probe.tls = true;
        const std::string host = tls.chain->leaf_cn();
        if (host.empty()) return probe;

        client::DohClient client(
            world.network(), origins.front().context,
            util::mix64(probe_seed ^ addr.value() ^ 0xC11E47ULL));
        client::DohClient::Options options;
        options.server_address = addr;
        options.reuse_connection = false;
        options.timeout = kConnectTimeout;
        client::QueryOutcome outcome;
        dns::Name qname;
        std::string tmpl_text;
        for (const auto& path : known_doh_paths()) {
          tmpl_text.assign("https://");
          tmpl_text += host;
          tmpl_text += path;
          tmpl_text += "{?dns}";
          const auto tmpl = http::UriTemplate::parse(tmpl_text);
          if (!tmpl) continue;
          const auto issue = [&] {
            world.unique_probe_name_into(rng, qname);
            client.query_into(*tmpl, qname, dns::RrType::kA, date, options,
                              outcome);
            probe.sim_elapsed += outcome.latency;
          };
          // Same retry policy as the URL-dataset prober: transient failures
          // only; an HTTP status below 500 is the server's deterministic
          // answer (a non-DoH endpoint serving 404), never noise.
          const auto retryable = [](const client::QueryOutcome& o) {
            if (!fault::should_retry(o.status)) return false;
            return o.status != client::QueryStatus::kHttpError ||
                   o.http_status >= 500;
          };
          issue();
          int transient = 0;
          while (retryable(outcome) && transient + 1 < config.probe_attempts) {
            ++transient;
            issue();
          }
          if (transient > 0) {
            probe.faults.injected += static_cast<std::uint64_t>(transient);
            if (retryable(outcome))
              ++probe.faults.surfaced;
            else
              ++probe.faults.recovered;
          }
          if (outcome.answered() && outcome.response->first_a() &&
              *outcome.response->first_a() == world.probe_answer()) {
            probe.confirmed = true;
            probe.endpoint.address = addr;
            probe.endpoint.host = host;
            probe.endpoint.path = path;
            probe.endpoint.uri_template = tmpl_text;
            probe.endpoint.cert_valid =
                outcome.cert_status &&
                *outcome.cert_status == tls::CertStatus::kValid;
            probe.endpoint.answer_correct = true;
            probe.endpoint.probe_latency = outcome.latency;
            break;  // first answering path wins, as in the paper's scan
          }
        }
        return probe;
      });
  for (const auto& probe : probes) {
    if (probe.tls) ++result.tls_established;
    result.faults += probe.faults;
    scan_span.add_sim(probe.sim_elapsed);
    if (probe.confirmed) result.endpoints.push_back(probe.endpoint);
  }
  std::sort(result.endpoints.begin(), result.endpoints.end(),
            [](const DohScanEndpoint& a, const DohScanEndpoint& b) {
              return a.address < b.address;
            });

  auto& registry = obs::MetricsRegistry::global();
  registry.counter("scan.doh_scan.probes").add(result.addresses_probed);
  registry.counter("scan.doh_scan.open").add(result.port443_open);
  registry.counter("scan.doh_scan.tls").add(result.tls_established);
  registry.counter("scan.doh_scan.endpoints").add(result.endpoints.size());
  registry.counter("scan.doh_scan.faults").add(result.faults.injected);
  return result;
}

}  // namespace encdns::scan
