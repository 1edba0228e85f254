#include "scan/scanner.hpp"

#include <algorithm>
#include <array>
#include <optional>
#include <unordered_set>

#include "exec/blocked_pass.hpp"
#include "obs/span.hpp"
#include "scan/engine.hpp"
#include "scan/permutation.hpp"
#include "util/fields.hpp"
#include "util/stats.hpp"

namespace encdns::scan {

namespace {
// Fixed Phase-1 shard count. Part of the deterministic contract: it pins the
// per-shard rng streams, so it must never track the thread count.
constexpr std::size_t kSweepShards = 64;

// Per-probe counter updates are batched into the existing shard partials and
// flushed at the serial merge: the sweep issues millions of probes per
// snapshot, and per-probe atomics would show up in the <2% overhead guard.
struct ScanMetrics {
  obs::Counter& probes =
      obs::MetricsRegistry::global().counter("scan.sweep.probes");
  obs::Counter& open = obs::MetricsRegistry::global().counter("scan.sweep.open");
  obs::Counter& sweep_faults =
      obs::MetricsRegistry::global().counter("scan.sweep.faults");
  obs::Counter& hosts = obs::MetricsRegistry::global().counter("scan.probe.hosts");
  obs::Counter& attempts =
      obs::MetricsRegistry::global().counter("scan.probe.attempts");
  obs::Counter& probe_faults =
      obs::MetricsRegistry::global().counter("scan.probe.faults");
  obs::Counter& breaker_skips =
      obs::MetricsRegistry::global().counter("scan.probe.breaker_skips");
  obs::Counter& tls_ok = obs::MetricsRegistry::global().counter("scan.probe.tls_ok");
  obs::Counter& dot_ok = obs::MetricsRegistry::global().counter("scan.probe.dot_ok");
  // Stateless-engine receive-loop verdicts (DESIGN.md §14). Flushed from
  // the merged sweep tally, never per probe. Deliberately excludes anything
  // window- or pace-dependent (high-water marks), so the obs JSON is
  // invariant under the flow-control knobs.
  obs::Counter& engine_tx =
      obs::MetricsRegistry::global().counter("scan.engine.tx");
  obs::Counter& engine_retransmits =
      obs::MetricsRegistry::global().counter("scan.engine.retransmits");
  obs::Counter& engine_forgery =
      obs::MetricsRegistry::global().counter("scan.engine.rejected_forgery");
  obs::Counter& engine_duplicate =
      obs::MetricsRegistry::global().counter("scan.engine.rejected_duplicate");
  obs::Counter& engine_stale =
      obs::MetricsRegistry::global().counter("scan.engine.rejected_stale");
  obs::Histogram& latency = obs::MetricsRegistry::global().histogram(
      "scan.probe.latency_ms", obs::latency_buckets_ms());

  static ScanMetrics& get() {
    static ScanMetrics metrics;
    return metrics;
  }
};
}  // namespace

std::vector<std::string> ScanSnapshot::providers() const {
  std::unordered_set<std::string> set;
  for (const auto& r : resolvers) set.insert(r.provider);
  std::vector<std::string> out(set.begin(), set.end());
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<std::pair<std::string, double>> ScanSnapshot::by_country() const {
  util::Counter counter;
  for (const auto& r : resolvers) counter.add(r.country);
  return counter.sorted_desc();
}

std::vector<std::string> ScanSnapshot::invalid_cert_providers() const {
  std::unordered_set<std::string> set;
  for (const auto& r : resolvers)
    if (tls::is_invalid(r.cert_status)) set.insert(r.provider);
  std::vector<std::string> out(set.begin(), set.end());
  std::sort(out.begin(), out.end());
  return out;
}

Scanner::Scanner(const world::World& world, CampaignConfig config)
    : world_(&world),
      config_(std::move(config)),
      space_(world.scan_prefixes()),
      breaker_(config_.breaker_threshold) {
  for (const auto& country : config_.origin_countries)
    origins_.push_back(world_->make_clean_vantage(country));
  // Geolocation oracle: stands in for the commercial IP-geolocation database
  // the paper uses to attribute resolver addresses to countries.
  for (const auto& d : world_->deployments().dot)
    geo_oracle_[d.address.value()] = d.country;
}

std::vector<util::Ipv4> Scanner::sweep_once(const util::Date& date,
                                            ScanSnapshot& snapshot) {
  // Phase 1: ZMap sweep of TCP/853 over the whole space in permutation order,
  // split into a FIXED number of step-range shards. The shard count is part
  // of the deterministic contract (it fixes the per-shard rng streams), so it
  // never depends on the thread count; threads only schedule shards.
  CyclicPermutation permutation(space_.size(),
                                config_.seed * 1315423911ULL + scan_serial_);
  OBS_SPAN_VAR(sweep_span, "scan.sweep");
  const std::uint64_t sweep_seed = config_.seed ^ (0xAB5C15ULL + scan_serial_);
  std::vector<util::Ipv4> open_hosts;
  if (config_.sweep_mode == SweepMode::kStateless) {
    // The masscan-style engine (DESIGN.md §14): decoupled transmit/receive
    // loops, cookie-validated classification, bounded in-flight window.
    EngineConfig engine_config;
    engine_config.seed = sweep_seed;
    engine_config.port = dns::kDotPort;
    engine_config.max_attempts = 1 + std::max(config_.sweep_retries, 0);
    engine_config.thread_count = config_.thread_count;
    engine_config.cancel = config_.cancel;
    ScanEngine engine(*world_, engine_config);
    SweepResult sweep = engine.sweep(space_, permutation, origins_, date);
    open_hosts = std::move(sweep.open_hosts);
    const EngineTally& tally = sweep.tally;
    snapshot.addresses_probed = tally.probed;
    snapshot.faults += tally.faults;
    snapshot.rejected_forgery = tally.rejected_forgery;
    snapshot.rejected_duplicate = tally.rejected_duplicate;
    snapshot.rejected_stale = tally.rejected_stale;
    snapshot.retransmits = tally.retransmits;
    sweep_span.add_sim(tally.sim_elapsed);
    ScanMetrics::get().engine_tx.add(tally.transmitted);
    ScanMetrics::get().engine_retransmits.add(tally.retransmits);
    ScanMetrics::get().engine_forgery.add(tally.rejected_forgery);
    ScanMetrics::get().engine_duplicate.add(tally.rejected_duplicate);
    ScanMetrics::get().engine_stale.add(tally.rejected_stale);
  } else {
    // Legacy synchronous sweep: kept for the bench guard's stateless-vs-
    // legacy comparison (tools/check.sh run_scan_guard).
    struct SweepPartial {
      std::uint64_t probed = 0;
      std::vector<util::Ipv4> open_hosts;
      fault::LayerTally faults;
      sim::Millis sim_elapsed{0.0};  // credited to the sweep span at merge
    };
    std::vector<SweepPartial> partials(kSweepShards);
    exec::PoolLease pool(config_.pool, config_.thread_count);
    pool.get().parallel_for_shards(kSweepShards, [&](std::size_t shard) {
      const auto [first, last] =
          exec::shard_range(permutation.steps(), kSweepShards, shard);
      util::Rng rng = exec::shard_rng(sweep_seed, shard);
      SweepPartial& partial = partials[shard];
      auto walker = permutation.walk(first, last);
      std::array<std::uint64_t, CyclicPermutation::Walker::kBlock> block;
      while (!walker.done()) {
        const std::size_t count = walker.fill(block.data(), block.size());
        for (std::size_t i = 0; i < count; ++i) {
          const util::Ipv4 addr = space_.at(block[i]);
          ++partial.probed;
          // Rotate origins by address so the assignment is shard-independent.
          const auto& origin = origins_[addr.value() % origins_.size()];
          auto probe = world_->network().probe_tcp(origin.context, rng, addr,
                                                   dns::kDotPort, date);
          partial.sim_elapsed += probe.latency;
          if (probe.status == net::Network::ProbeStatus::kFiltered) {
            // From a clean origin a filtered verdict means the SYN (or its
            // ACK) was dropped in flight, not a middlebox: re-probe before
            // writing the host off. Extra rng draws happen only on this
            // path, so fault-free sweeps remain byte-identical.
            for (int retry = 0;
                 retry < config_.sweep_retries &&
                 probe.status == net::Network::ProbeStatus::kFiltered;
                 ++retry) {
              ++partial.faults.injected;
              probe = world_->network().probe_tcp(origin.context, rng, addr,
                                                  dns::kDotPort, date);
              partial.sim_elapsed += probe.latency;
            }
            if (probe.status == net::Network::ProbeStatus::kFiltered)
              ++partial.faults.surfaced;
            else
              ++partial.faults.recovered;
          }
          if (probe.status == net::Network::ProbeStatus::kOpen)
            partial.open_hosts.push_back(addr);
        }
      }
    });
    for (const auto& partial : partials) {  // canonical shard-order merge
      snapshot.addresses_probed += partial.probed;
      open_hosts.insert(open_hosts.end(), partial.open_hosts.begin(),
                        partial.open_hosts.end());
      snapshot.faults += partial.faults;
      sweep_span.add_sim(partial.sim_elapsed);
    }
  }
  snapshot.port_open = open_hosts.size();
  ScanMetrics::get().probes.add(snapshot.addresses_probed);
  ScanMetrics::get().open.add(snapshot.port_open);
  ScanMetrics::get().sweep_faults.add(snapshot.faults.injected);
  return open_hosts;
}

ScanSnapshot Scanner::scan_once(const util::Date& date) {
  ScanSnapshot snapshot;
  snapshot.date = date;
  const std::vector<util::Ipv4> open_hosts = sweep_once(date, snapshot);
  exec::PoolLease pool(config_.pool, config_.thread_count);

  // Phase 2: application-layer DoT probing of every open host, one task per
  // host with an address-derived rng stream (shard-count independent); the
  // final sort-by-address canonicalizes the output order.
  OBS_SPAN_VAR(probe_span, "scan.probe");
  const std::uint64_t probe_seed =
      config_.seed ^ (scan_serial_ * 0x9E3779B97F4A7C15ULL);
  const world::Vantage& probe_origin = origins_[scan_serial_ % origins_.size()];
  // The circuit breaker is read-only inside the parallel map; strikes are
  // recorded serially after the merge, in canonical address order, so the
  // breaker state entering the next scan is thread-count independent.
  const auto probe_results = exec::parallel_map(
      pool.get(), open_hosts,
      [&](const util::Ipv4 addr, std::size_t) -> std::optional<DotProbeResult> {
        if (breaker_.open(addr.value())) return std::nullopt;
        DotProber prober(*world_, probe_origin,
                         util::mix64(probe_seed ^ addr.value()),
                         config_.probe_attempts);
        return prober.probe(addr, date);
      });
  ScanMetrics::get().hosts.add(open_hosts.size());
  for (std::size_t i = 0; i < open_hosts.size(); ++i) {
    const util::Ipv4 addr = open_hosts[i];
    if (!probe_results[i]) {
      ++snapshot.breaker_skipped;
      continue;
    }
    const auto& result = *probe_results[i];
    ScanMetrics::get().attempts.add(static_cast<std::uint64_t>(result.attempts));
    ScanMetrics::get().latency.observe(result.latency.value);
    probe_span.add_sim(result.latency);
    if (result.attempts > 1) {
      ScanMetrics::get().probe_faults.add(
          static_cast<std::uint64_t>(result.attempts - 1));
      snapshot.faults.injected +=
          static_cast<std::uint64_t>(result.attempts - 1);
      if (result.recovered)
        ++snapshot.faults.recovered;
      else
        ++snapshot.faults.surfaced;
    }
    // A host the sweep saw open but the application probe could not reach
    // even with retries is flaky: strike it. A reachable probe (whatever it
    // spoke at the application layer) clears the strikes.
    if (result.port_open)
      breaker_.record_success(addr.value());
    else
      breaker_.record_failure(addr.value());
    if (result.tls_ok) ++snapshot.tls_responsive;
    if (!result.dot_ok) continue;
    DiscoveredResolver resolver;
    resolver.address = addr;
    resolver.cert_cn = result.chain.leaf_cn();
    resolver.provider = provider_key(resolver.cert_cn);
    resolver.cert_status = result.cert_status;
    resolver.answer_correct = result.answer_correct;
    resolver.probe_latency = result.latency;
    const auto it = geo_oracle_.find(addr.value());
    resolver.country = it == geo_oracle_.end() ? "ZZ" : it->second;
    snapshot.resolvers.push_back(std::move(resolver));
  }
  std::sort(snapshot.resolvers.begin(), snapshot.resolvers.end(),
            [](const DiscoveredResolver& a, const DiscoveredResolver& b) {
              return a.address < b.address;
            });
  ScanMetrics::get().breaker_skips.add(snapshot.breaker_skipped);
  ScanMetrics::get().tls_ok.add(snapshot.tls_responsive);
  ScanMetrics::get().dot_ok.add(snapshot.resolvers.size());
  ++scan_serial_;
  return snapshot;
}

std::vector<ScanSnapshot> Scanner::run_campaign() {
  CampaignState state;
  std::vector<ScanSnapshot>& snapshots = state.snapshots;
  snapshots.reserve(static_cast<std::size_t>(config_.scan_count));

  // One scan per block of a blocked pass (exec/blocked_pass.hpp): scan
  // boundaries are the campaign's checkpoint/cancellation points. Each scan
  // depends on the previous ones only through the breaker strikes and the
  // scan serial, so restoring those two resumes the campaign exactly.
  std::optional<ScanSnapshot> next;
  (void)exec::run_blocked_pass({
      .units = static_cast<std::size_t>(std::max(config_.scan_count, 0)),
      .cancel = config_.cancel, .checkpoint = config_.checkpoint,
      .run = [&](const exec::Block& scan) {
        next = scan_once(config_.start.plus_days(
            static_cast<std::int64_t>(scan.first) * config_.interval_days));
        return std::size_t{1};
      },
      .fold = [&](const exec::Block&, std::size_t) {
        snapshots.push_back(std::move(*next));
        return sim::Millis{0.0};
      },
      .encode = [&](util::ByteWriter& w, std::size_t) {
        state.scan_serial = scan_serial_;
        state.strikes = breaker_.export_strikes();
        util::write(w, state);
      },
      .decode = [&](util::ByteReader& r) {
        util::read(r, state);
        scan_serial_ = state.scan_serial;
        breaker_.restore_strikes(state.strikes);
        return snapshots.size();
      },
  });
  return std::move(state.snapshots);
}

}  // namespace encdns::scan
