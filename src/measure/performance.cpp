#include "measure/performance.hpp"

#include <algorithm>
#include <optional>

#include "exec/blocked_pass.hpp"
#include "http/url.hpp"
#include "measure/client_set.hpp"
#include "obs/span.hpp"
#include "util/fields.hpp"
#include "util/stats.hpp"

namespace encdns::measure {
namespace {

std::optional<double> median_of(const std::vector<double>& values) {
  return util::median(values);
}

/// One client's contribution: the latency row (when it survived) plus its
/// fault accounting, merged in canonical client order.
struct ClientPartial {
  std::optional<ClientLatency> latency;
  fault::LayerTally client_faults;
  fault::LayerTally proxy_faults;
};

}  // namespace

double PerformanceResults::overall(bool doh, bool median) const {
  std::vector<double> overheads;
  overheads.reserve(clients.size());
  for (const auto& c : clients)
    overheads.push_back(doh ? c.doh_overhead() : c.dot_overhead());
  if (median) return util::median(overheads).value_or(0.0);
  return util::mean(overheads).value_or(0.0);
}

std::vector<CountryLatency> PerformanceResults::by_country(
    std::size_t min_clients) const {
  std::map<std::string, std::vector<const ClientLatency*>> grouped;
  for (const auto& c : clients) grouped[c.country].push_back(&c);

  std::vector<CountryLatency> rows;
  rows.reserve(grouped.size());
  for (const auto& [country, list] : grouped) {
    if (list.size() < min_clients) continue;
    CountryLatency row;
    row.country = country;
    row.clients = list.size();
    std::vector<double> dot, doh;
    dot.reserve(list.size());
    doh.reserve(list.size());
    for (const auto* c : list) {
      dot.push_back(c->dot_overhead());
      doh.push_back(c->doh_overhead());
    }
    row.dot_overhead_mean = util::mean(dot).value_or(0.0);
    row.dot_overhead_median = util::median(dot).value_or(0.0);
    row.doh_overhead_mean = util::mean(doh).value_or(0.0);
    row.doh_overhead_median = util::median(doh).value_or(0.0);
    rows.push_back(std::move(row));
  }
  std::sort(rows.begin(), rows.end(),
            [](const CountryLatency& a, const CountryLatency& b) {
              return a.clients > b.clients;
            });
  return rows;
}

PerformanceTest::PerformanceTest(const world::World& world,
                                 proxy::ProxyNetwork& platform,
                                 PerformanceConfig config)
    : world_(&world), platform_(&platform), config_(config) {
  for (auto& candidate : default_targets())
    if (candidate.name == config_.target_name) target_ = candidate;
}

PerformanceResults PerformanceTest::run() {
  OBS_SPAN_VAR(perf_span, "measure.perf");
  // The accumulators live in the state a checkpoint saves.
  PerformanceState state;
  PerformanceResults& results = state.results;
  const auto tmpl = http::UriTemplate::parse(*target_.doh_template);

  // Serial batch acquisition fixes the vantage set independently of worker
  // scheduling; every client then runs on its own derived rng stream
  // (including its churn draws, which used to come from the platform's
  // shared stream) and yields one optional partial, merged in client order.
  // A resumed run re-acquires the same batch because the checkpoint rewound
  // the platform cursor.
  std::vector<proxy::ProxySession> sessions =
      platform_->acquire_batch(config_.client_count);
  results.clients_planned = sessions.size();

  const auto measure_client =
      [&](proxy::ProxySession& session, std::size_t i) -> ClientPartial {
        ClientPartial partial;
        util::Rng rng = exec::shard_rng(config_.seed ^ 0x9E2FULL, i);
        // Check the platform API for remaining uptime and discard nodes that
        // would rotate away mid-experiment (§4.1).
        const double expected_run_ms =
            3.0 * config_.queries_per_protocol * 400.0;  // generous estimate
        if (session.remaining_uptime().value < expected_run_ms) return partial;

        proxy::ProxySession current = session;
        fault::RetryPolicy policy = {};
        policy.max_attempts = config_.query_attempts;

        // Re-issue one query while it fails transiently (the successful
        // attempt's latency is the one recorded — a retried timeout is a
        // lost sample, not a 30 s data point). A well-formed non-answer
        // (SERVFAIL burst) counts as transient too: the target resolvers
        // answer unique probe names by construction, so fault-free runs
        // never take this branch.
        const auto transient_failure = [](const client::QueryOutcome& o) {
          return fault::should_retry(o.status) ||
                 (o.status == client::QueryStatus::kOk && !o.answered());
        };
        const auto with_retries = [&](auto&& issue,
                                      client::QueryOutcome& outcome) {
          issue(outcome);
          int transient = 0;
          while (transient_failure(outcome) &&
                 transient + 1 < policy.max_attempts) {
            (void)fault::backoff_delay(policy, transient, rng);
            ++transient;
            issue(outcome);
          }
          if (transient > 0) {
            partial.client_faults.injected +=
                static_cast<std::uint64_t>(transient);
            if (outcome.answered()) {
              ++partial.client_faults.recovered;
            } else {
              ++partial.client_faults.surfaced;
            }
          }
        };

        enum class Round { kOk, kChurn, kFailed };
        // Thread-resident scratch (DESIGN.md §12): the latency samples, the
        // three in-flight outcomes, the probe-name and the stub clients are
        // all reused across every measurement client this worker simulates.
        static thread_local std::vector<double> dns_times, dot_times, doh_times;
        static thread_local client::QueryOutcome r1, r2, r3;
        static thread_local dns::Name qname;
        static thread_local std::optional<ClientSet> clients;
        dns_times.reserve(static_cast<std::size_t>(config_.queries_per_protocol));
        dot_times.reserve(static_cast<std::size_t>(config_.queries_per_protocol));
        doh_times.reserve(static_cast<std::size_t>(config_.queries_per_protocol));
        const auto run_round = [&]() -> Round {
          dns_times.clear();
          dot_times.clear();
          doh_times.clear();
          const auto& vantage = current.vantage();
          // Seeds drawn in the declaration order the per-round client
          // definitions used, keeping the rng stream bit-identical.
          const std::uint64_t do53_seed = rng.next();
          const std::uint64_t dot_seed = rng.next();
          const std::uint64_t doh_seed = rng.next();
          if (!clients) {
            clients.emplace(world_->network(), vantage.context, do53_seed,
                            dot_seed, doh_seed);
          } else {
            clients->rebind(world_->network(), vantage.context, do53_seed,
                            dot_seed, doh_seed);
          }
          for (int q = 0; q < config_.queries_per_protocol; ++q) {
            // Exit node dropped unexpectedly (platform churn, or an injected
            // exit-node death under a fault profile).
            if (rng.chance(platform_->config().churn_per_query)) return Round::kChurn;
            if (world_->fault_injector().exit_node_dies(current.id(), rng))
              return Round::kChurn;

            with_retries(
                [&](client::QueryOutcome& out) {
                  client::Do53Client::Options do53_options;
                  do53_options.reuse_connection = true;
                  world_->unique_probe_name_into(rng, qname);
                  clients->do53.query_tcp_into(target_.do53_address, qname,
                                               dns::RrType::kA, config_.date,
                                               do53_options, out);
                },
                r1);
            with_retries(
                [&](client::QueryOutcome& out) {
                  client::DotClient::Options dot_options;
                  dot_options.profile = client::PrivacyProfile::kOpportunistic;
                  world_->unique_probe_name_into(rng, qname);
                  clients->dot.query_into(*target_.dot_address, qname,
                                          dns::RrType::kA, config_.date,
                                          dot_options, out);
                },
                r2);
            with_retries(
                [&](client::QueryOutcome& out) {
                  client::DohClient::Options doh_options;
                  doh_options.bootstrap_resolver =
                      world_->bootstrap_resolver(vantage.country);
                  world_->unique_probe_name_into(rng, qname);
                  clients->doh.query_into(*tmpl, qname, dns::RrType::kA,
                                          config_.date, doh_options, out);
                },
                r3);
            if (!r1.answered() || !r2.answered() || !r3.answered())
              return Round::kFailed;
            // T_R as observed at the measurement client: tunnel RTT + the DNS
            // transaction over the (possibly fresh) connection. The tunnel term
            // is identical across transports, so it cancels in differences.
            dns_times.push_back(current.tunnel_rtt().value + r1.latency.value);
            dot_times.push_back(current.tunnel_rtt().value + r2.latency.value);
            doh_times.push_back(current.tunnel_rtt().value + r3.latency.value);
            current.consume(sim::Millis{r1.latency.value + r2.latency.value +
                                        r3.latency.value});
          }
          return Round::kOk;
        };

        // On churn, fail over to a replacement session and restart the round
        // there (the vantage survives instead of silently dropping out).
        int failovers_left = config_.max_failovers;
        Round round;
        while ((round = run_round()) == Round::kChurn) {
          ++partial.proxy_faults.injected;
          if (failovers_left == 0) {
            ++partial.proxy_faults.surfaced;
            return partial;  // discarded: out of failover budget
          }
          --failovers_left;
          current = platform_->failover(current, rng);
          ++partial.proxy_faults.recovered;
        }
        if (round != Round::kOk || dns_times.empty()) return partial;
        ClientLatency latency;
        latency.country = current.vantage().country;
        latency.dns_ms = median_of(dns_times).value_or(0.0);
        latency.dot_ms = median_of(dot_times).value_or(0.0);
        latency.doh_ms = median_of(doh_times).value_or(0.0);
        partial.latency = std::move(latency);
        return partial;
      };

  auto& registry = obs::MetricsRegistry::global();
  static obs::Histogram& do53_ms =
      registry.histogram("measure.perf.do53_ms", obs::latency_buckets_ms());
  static obs::Histogram& dot_ms =
      registry.histogram("measure.perf.dot_ms", obs::latency_buckets_ms());
  static obs::Histogram& doh_ms =
      registry.histogram("measure.perf.doh_ms", obs::latency_buckets_ms());

  // Clients run in blocks of 512 on the shared blocked-pass loop
  // (exec/blocked_pass.hpp), so degradation and resume both cut on an exact
  // prefix of the canonical client order.
  std::uint64_t& sim_credit_us = state.sim_credit_us;
  std::vector<ClientPartial> partials;
  const std::size_t processed = exec::run_blocked_pass({
      .units = sessions.size(), .block = 512,
      .pool = config_.pool, .thread_count = config_.thread_count,
      .cancel = config_.cancel, .checkpoint = config_.checkpoint,
      .run = [&](const exec::Block& block) {
        partials = std::vector<ClientPartial>(block.count);
        return block.run_shards([&](std::size_t i) {
          partials[i] =
              measure_client(sessions[block.first + i], block.first + i);
        });
      },
      .fold = [&](const exec::Block&, std::size_t executed) {
        std::size_t surviving = 0;
        for (std::size_t i = 0; i < executed; ++i)
          surviving += partials[i].latency.has_value() ? 1 : 0;
        results.clients.reserve(results.clients.size() + surviving);

        sim::Millis block_sim{0.0};
        for (std::size_t i = 0; i < executed; ++i) {
          const auto& partial = partials[i];
          if (partial.latency) {
            results.clients.push_back(*partial.latency);
            do53_ms.observe(partial.latency->dns_ms);
            dot_ms.observe(partial.latency->dot_ms);
            doh_ms.observe(partial.latency->doh_ms);
            const sim::Millis client_sim{partial.latency->dns_ms +
                                         partial.latency->dot_ms +
                                         partial.latency->doh_ms};
            perf_span.add_sim(client_sim);
            sim_credit_us += obs::SpanScope::to_sim_us(client_sim);
            block_sim += client_sim;
          } else {
            ++results.discarded_clients;
          }
          results.client_faults += partial.client_faults;
          results.proxy_faults += partial.proxy_faults;
        }
        return block_sim;
      },
      .encode = [&](util::ByteWriter& w, std::size_t done) {
        state.done = done;
        util::write(w, state);
      },
      .decode = [&](util::ByteReader& r) {
        util::read(r, state);
        // The killed run's span sim time, in integer µs: add_sim rounds
        // per call, so only the integer sum replays its total exactly.
        perf_span.add_sim_us(sim_credit_us);
        return static_cast<std::size_t>(state.done);
      },
  });

  results.clients_processed = processed;
  registry.counter("measure.perf.sessions").add(processed);
  registry.counter("measure.perf.clients").add(results.clients.size());
  registry.counter("measure.perf.discarded").add(results.discarded_clients);
  registry.counter("measure.perf.client_faults")
      .add(results.client_faults.injected);
  registry.counter("measure.perf.proxy_faults")
      .add(results.proxy_faults.injected);
  return std::move(state.results);
}

std::vector<NoReuseRow> run_no_reuse_test(const world::World& world,
                                          NoReuseConfig config) {
  OBS_SPAN_VAR(no_reuse_span, "measure.no_reuse");
  std::vector<NoReuseRow> rows;
  util::Rng rng(util::mix64(config.seed ^ 0x70B1ULL));
  const ResolverTarget target = default_targets().back();  // self-built
  const auto tmpl = http::UriTemplate::parse(*target.doh_template);

  for (const auto& country : config.vantage_countries) {
    const world::Vantage vantage = world.make_clean_vantage(country);
    client::Do53Client do53(world.network(), vantage.context, rng.next());
    client::DotClient dot(world.network(), vantage.context, rng.next());
    client::DohClient doh(world.network(), vantage.context, rng.next());

    std::vector<double> dns_times, dot_times, doh_times;
    for (int q = 0; q < config.queries; ++q) {
      client::Do53Client::Options do53_options;
      do53_options.reuse_connection = false;
      auto r1 = do53.query_tcp(target.do53_address, world.unique_probe_name(rng),
                               dns::RrType::kA, config.date, do53_options);
      // query_tcp keeps the pooled connection when reuse is on; with reuse
      // off the pool entry is dropped after each lookup, so every query pays
      // the TCP (and TLS) setup.
      do53.reset_pool();

      client::DotClient::Options dot_options;
      dot_options.reuse_connection = false;
      dot_options.tls_version = config.tls_version;
      auto r2 = dot.query(*target.dot_address, world.unique_probe_name(rng),
                          dns::RrType::kA, config.date, dot_options);
      dot.reset_pool();

      client::DohClient::Options doh_options;
      doh_options.reuse_connection = false;
      doh_options.tls_version = config.tls_version;
      doh_options.server_address = target.do53_address;
      auto r3 = doh.query(*tmpl, world.unique_probe_name(rng), dns::RrType::kA,
                          config.date, doh_options);
      doh.reset_pool();

      if (r1.answered()) dns_times.push_back(r1.latency.value);
      if (r2.answered()) dot_times.push_back(r2.latency.value);
      if (r3.answered()) doh_times.push_back(r3.latency.value);
      no_reuse_span.add_sim(r1.latency + r2.latency + r3.latency);
      static obs::Counter& nr_queries =
          obs::MetricsRegistry::global().counter("measure.no_reuse.queries");
      nr_queries.add(3);
    }
    NoReuseRow row;
    row.vantage_country = country;
    row.dns_s = util::median(dns_times).value_or(0.0) / 1000.0;
    row.dot_s = util::median(dot_times).value_or(0.0) / 1000.0;
    row.doh_s = util::median(doh_times).value_or(0.0) / 1000.0;
    rows.push_back(std::move(row));
  }
  return rows;
}

}  // namespace encdns::measure
