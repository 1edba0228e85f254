#include "measure/reachability.hpp"

#include <algorithm>
#include <memory>
#include <optional>

#include "exec/blocked_pass.hpp"
#include "http/url.hpp"
#include "measure/client_set.hpp"
#include "obs/span.hpp"
#include "util/fields.hpp"

namespace encdns::measure {

double OutcomeCounts::fraction(Outcome outcome) const noexcept {
  const std::uint64_t n = total();
  if (n == 0) return 0.0;
  switch (outcome) {
    case Outcome::kCorrect: return static_cast<double>(correct) / n;
    case Outcome::kIncorrect: return static_cast<double>(incorrect) / n;
    case Outcome::kFailed: return static_cast<double>(failed) / n;
  }
  return 0.0;
}

const OutcomeCounts& ReachabilityResults::cell(const std::string& resolver,
                                               Protocol protocol) const {
  static const OutcomeCounts kEmpty;
  const auto it = cells.find({resolver, protocol});
  return it == cells.end() ? kEmpty : it->second;
}

ReachabilityTest::ReachabilityTest(const world::World& world,
                                   proxy::ProxyNetwork& platform,
                                   ReachabilityConfig config)
    : world_(&world),
      platform_(&platform),
      config_(config),
      targets_(default_targets()) {
  // Parse every DoH URI template once, not once per query attempt.
  doh_templates_.reserve(targets_.size());
  for (const auto& target : targets_) {
    doh_templates_.push_back(target.doh_template
                                 ? http::UriTemplate::parse(*target.doh_template)
                                 : std::nullopt);
  }
  // Enumerate the valid (target, protocol) combinations once; sessions tally
  // into flat vectors indexed by combination.
  cell_index_.assign(targets_.size() * 3, -1);
  for (std::size_t t = 0; t < targets_.size(); ++t) {
    for (const Protocol protocol :
         {Protocol::kDo53, Protocol::kDoT, Protocol::kDoH}) {
      if (protocol == Protocol::kDoT && !targets_[t].dot_address) continue;
      if (protocol == Protocol::kDoH && !targets_[t].doh_template) continue;
      cell_index_[t * 3 + static_cast<std::size_t>(protocol)] =
          static_cast<int>(cell_keys_.size());
      cell_keys_.emplace_back(targets_[t].name, protocol);
    }
  }
}

Outcome ReachabilityTest::classify(const client::QueryOutcome& outcome) const {
  if (outcome.status != client::QueryStatus::kOk || !outcome.response)
    return Outcome::kFailed;  // no DNS response packets at all
  // "Incorrect: we only see SERVFAIL responses and responses with 0 answers."
  if (outcome.response->header.rcode != dns::RCode::kNoError ||
      outcome.response->answers.empty())
    return Outcome::kIncorrect;
  return Outcome::kCorrect;
}

void ReachabilityTest::query_with_retries(
    const proxy::ProxySession& session, client::Do53Client& do53,
    client::DotClient& dot, client::DohClient& doh, std::size_t target_index,
    Protocol protocol, util::Rng& rng, ClientOutcome& out) {
  const ResolverTarget& target = targets_[target_index];
  out.outcome = Outcome::kFailed;
  out.attempts = 0;
  out.transient_failures = 0;
  fault::RetryPolicy policy = config_.retry;
  policy.max_attempts = config_.max_attempts;
  policy.per_attempt = config_.timeout;
  policy.total_budget =
      sim::Millis{config_.timeout.value * config_.max_attempts};
  sim::Millis spent{0.0};
  // Probe-name scratch: rebuilt in place for every attempt on this thread.
  static thread_local dns::Name qname;
  for (int attempt = 0; attempt < policy.max_attempts; ++attempt) {
    world_->unique_probe_name_into(rng, qname);
    switch (protocol) {
      case Protocol::kDo53: {
        // The platforms forward TCP only, so clear-text DNS runs over TCP.
        client::Do53Client::Options options;
        options.timeout = config_.timeout;
        do53.query_tcp_into(target.do53_address, qname, dns::RrType::kA,
                            config_.date, options, out.last);
        break;
      }
      case Protocol::kDoT: {
        client::DotClient::Options options;
        options.profile = client::PrivacyProfile::kOpportunistic;
        options.auth_name.clear();  // opportunistic: no name validation
        options.timeout = config_.timeout;
        dot.query_into(*target.dot_address, qname, dns::RrType::kA,
                       config_.date, options, out.last);
        break;
      }
      case Protocol::kDoH: {
        client::DohClient::Options options;
        options.timeout = config_.timeout;
        options.bootstrap_resolver =
            world_->bootstrap_resolver(session.vantage().country);
        doh.query_into(*doh_templates_[target_index], qname, dns::RrType::kA,
                       config_.date, options, out.last);
        break;
      }
    }
    out.attempts = attempt + 1;
    out.outcome = classify(out.last);
    if (out.outcome != Outcome::kFailed) return;  // retry failures only
    // Persistent failures (refused connect, no TLS, rejected certificate)
    // cannot change on a later attempt: stop early instead of burning the
    // remaining budget. Classification is per lookup, so Table 4 tallies
    // are unchanged — only wasted attempts disappear.
    if (!fault::is_transient(out.last.status)) return;
    ++out.transient_failures;
    spent += out.last.latency;
    if (attempt + 1 < policy.max_attempts) {
      spent += fault::backoff_delay(policy, attempt, rng);
      if (spent.value > policy.total_budget.value) return;
    }
  }
}

ReachabilityTest::SessionPartial ReachabilityTest::run_session(
    proxy::ProxySession session, util::Rng& rng) {
  SessionPartial partial;
  partial.cell_counts.assign(cell_keys_.size(), OutcomeCounts{});

  // The historical per-session code constructed the three clients inside one
  // std::tuple, whose argument evaluation order (right-to-left on this
  // toolchain) drew the DoH seed first. Draw in that same order so the
  // recruited rng streams — and the golden corpus — stay bit-identical.
  static thread_local std::optional<ClientSet> clients;
  auto rebind_clients = [&] {
    const auto& context = session.vantage().context;
    const std::uint64_t doh_seed = rng.next();
    const std::uint64_t dot_seed = rng.next();
    const std::uint64_t do53_seed = rng.next();
    if (!clients) {
      clients.emplace(world_->network(), context, do53_seed, dot_seed,
                      doh_seed);
    } else {
      clients->rebind(world_->network(), context, do53_seed, dot_seed,
                      doh_seed);
    }
  };
  rebind_clients();

  bool cloudflare_dot_failed = false;
  InterceptionRecord interception;
  bool saw_interception = false;
  int failovers_left = config_.max_failovers;
  bool session_dead = false;

  // Per-thread lookup scratch: the decoded response and certificate chain
  // storage inside `outcome.last` is reused across every lookup this worker
  // performs (DESIGN.md §12).
  static thread_local ClientOutcome outcome;
  for (std::size_t t = 0; t < targets_.size(); ++t) {
    const auto& target = targets_[t];
    for (const Protocol protocol :
         {Protocol::kDo53, Protocol::kDoT, Protocol::kDoH}) {
      if (protocol == Protocol::kDoT && !target.dot_address) continue;
      if (protocol == Protocol::kDoH && !target.doh_template) continue;
      auto& cell =
          partial.cell_counts[static_cast<std::size_t>(
              cell_index_[t * 3 + static_cast<std::size_t>(protocol)])];
      if (rng.chance(world_->config().flaky_client_rate)) {
        // Persistently flaky vantage (NAT/firewall quirk, dying node):
        // every attempt fails — the sub-percent floor of Table 4.
        ++cell.failed;
        if (target.name == "Cloudflare" && protocol == Protocol::kDoT)
          cloudflare_dot_failed = true;
        continue;
      }
      // Exit-node death: fail over to a replacement session (the paper's
      // node-discard-and-continue method) until the budget runs out.
      if (!session_dead &&
          world_->fault_injector().exit_node_dies(session.id(), rng)) {
        ++partial.proxy_faults.injected;
        if (failovers_left > 0) {
          --failovers_left;
          session = platform_->failover(session, rng);
          rebind_clients();
          ++partial.proxy_faults.recovered;
        } else {
          ++partial.proxy_faults.surfaced;
          session_dead = true;
        }
      }
      if (session_dead) {
        ++cell.failed;
        if (target.name == "Cloudflare" && protocol == Protocol::kDoT)
          cloudflare_dot_failed = true;
        continue;
      }
      query_with_retries(session, clients->do53, clients->dot, clients->doh, t,
                         protocol, rng, outcome);
      ++partial.queries;
      partial.sim_elapsed += outcome.last.latency;
      // Histogram adds are commutative integers, so recording straight from
      // the worker keeps the merged snapshot thread-count independent.
      static obs::Histogram& rtt = obs::MetricsRegistry::global().histogram(
          "measure.reach.rtt_ms", obs::latency_buckets_ms());
      rtt.observe(outcome.last.latency.value);
      if (outcome.transient_failures > 0) {
        partial.client_faults.injected +=
            static_cast<std::uint64_t>(outcome.transient_failures);
        if (outcome.outcome == Outcome::kFailed) {
          ++partial.client_faults.surfaced;
        } else {
          ++partial.client_faults.recovered;
        }
      }
      switch (outcome.outcome) {
        case Outcome::kCorrect: ++cell.correct; break;
        case Outcome::kIncorrect: ++cell.incorrect; break;
        case Outcome::kFailed: ++cell.failed; break;
      }
      if (target.name == "Cloudflare" && protocol == Protocol::kDoT &&
          outcome.outcome == Outcome::kFailed)
        cloudflare_dot_failed = true;

      // Table 6 evidence: a completed TLS handshake whose chain was
      // re-signed by an untrusted CA while other fields match the target.
      if (outcome.last.intercepted && outcome.last.cert_status) {
        saw_interception = true;
        interception.untrusted_ca_cn =
            outcome.last.presented_chain.certs.empty()
                ? ""
                : outcome.last.presented_chain.certs.front().issuer_cn;
        if (protocol == Protocol::kDoH) {
          interception.port_443 = true;
          interception.doh_lookup_succeeded =
              outcome.outcome == Outcome::kCorrect;
        } else if (protocol == Protocol::kDoT) {
          interception.port_853 = true;
          interception.dot_lookup_succeeded =
              outcome.outcome == Outcome::kCorrect;
        }
      }
      // Strict DoH aborts on a resigned chain; record that evidence too.
      if (protocol == Protocol::kDoH &&
          outcome.last.status == client::QueryStatus::kCertRejected &&
          outcome.last.intercepted) {
        saw_interception = true;
        interception.port_443 = true;
        interception.untrusted_ca_cn =
            outcome.last.presented_chain.certs.empty()
                ? ""
                : outcome.last.presented_chain.certs.front().issuer_cn;
      }
    }
  }

  const auto& vantage = session.vantage();
  if (saw_interception) {
    interception.client_address = vantage.address;
    interception.country = vantage.country;
    interception.asn = vantage.asn;
    partial.interception = std::move(interception);
  }

  // Diagnostics for clients that cannot use Cloudflare DoT (Fig. 7, last
  // step): port scan + webpage fetch of 1.1.1.1 from this client.
  if (cloudflare_dot_failed) {
    ConflictDiagnosis diagnosis;
    diagnosis.client_address = vantage.address;
    diagnosis.country = vantage.country;
    diagnosis.asn = vantage.asn;
    for (const std::uint16_t port : diagnostic_ports()) {
      const auto probe = world_->network().probe_tcp(
          vantage.context, rng, world::addrs::kCloudflarePrimary, port,
          config_.date, sim::Millis{3000.0});
      if (probe.status == net::Network::ProbeStatus::kOpen)
        diagnosis.open_ports.push_back(port);
    }
    auto connect = world_->network().tcp_connect(
        vantage.context, rng, world::addrs::kCloudflarePrimary, 80, config_.date,
        sim::Millis{3000.0});
    if (connect.status == net::Network::ConnectResult::Status::kConnected) {
      diagnosis.webpage_excerpt =
          connect.connection->endpoint().webpage(80).substr(0, 60);
    }
    partial.diagnosis = std::move(diagnosis);
  }

  return partial;
}

ReachabilityResults ReachabilityTest::run() {
  OBS_SPAN_VAR(reach_span, "measure.reach");
  // The accumulators live in the state a checkpoint saves.
  ReachabilityState state;
  ReachabilityResults& results = state.results;
  results.platform = platform_->config().name;

  // The platform's rng stream is consumed by a serial batch acquisition, so
  // the recruited vantage set is identical for every thread count; each
  // session then runs on its own derived rng stream and fills its own
  // partial, merged below in session order. A resumed run re-acquires the
  // same batch because the checkpoint rewound the platform cursor.
  std::vector<proxy::ProxySession> sessions =
      platform_->acquire_batch(config_.client_count);
  results.clients_planned = sessions.size();
  results.dataset =
      proxy::ProxyNetwork::summarize(platform_->config().name, sessions);

  // Sessions run in blocks of 512 on the shared blocked-pass loop
  // (exec/blocked_pass.hpp), so degradation and resume both cut on an exact
  // prefix of the canonical session order.
  std::uint64_t& queries = state.queries;
  std::uint64_t& sim_credit_us = state.sim_credit_us;
  std::vector<SessionPartial> partials;
  const std::size_t processed = exec::run_blocked_pass({
      .units = sessions.size(), .block = 512,
      .pool = config_.pool, .thread_count = config_.thread_count,
      .cancel = config_.cancel, .checkpoint = config_.checkpoint,
      .run = [&](const exec::Block& block) {
        partials = std::vector<SessionPartial>(block.count);
        return block.run_shards([&](std::size_t i) {
          util::Rng rng =
              exec::shard_rng(config_.seed ^ 0x4EAC4ULL, block.first + i);
          partials[i] = run_session(sessions[block.first + i], rng);
        });
      },
      .fold = [&](const exec::Block&, std::size_t executed) {
        // Reserve the report vectors before the merge: the
        // engaged-partial counts are known before any push_back, so
        // assembly never regrows.
        std::size_t interception_count = 0;
        std::size_t diagnosis_count = 0;
        for (std::size_t i = 0; i < executed; ++i) {
          interception_count += partials[i].interception.has_value() ? 1 : 0;
          diagnosis_count += partials[i].diagnosis.has_value() ? 1 : 0;
        }
        results.interceptions.reserve(results.interceptions.size() +
                                      interception_count);
        results.conflict_diagnoses.reserve(
            results.conflict_diagnoses.size() + diagnosis_count);

        sim::Millis block_sim{0.0};
        for (std::size_t i = 0; i < executed; ++i) {
          auto& partial = partials[i];
          for (std::size_t c = 0; c < partial.cell_counts.size(); ++c) {
            const OutcomeCounts& counts = partial.cell_counts[c];
            auto& cell = results.cells[cell_keys_[c]];
            cell.correct += counts.correct;
            cell.incorrect += counts.incorrect;
            cell.failed += counts.failed;
          }
          if (partial.interception)
            results.interceptions.push_back(std::move(*partial.interception));
          if (partial.diagnosis)
            results.conflict_diagnoses.push_back(std::move(*partial.diagnosis));
          results.client_faults += partial.client_faults;
          results.proxy_faults += partial.proxy_faults;
          queries += partial.queries;
          reach_span.add_sim(partial.sim_elapsed);
          sim_credit_us += obs::SpanScope::to_sim_us(partial.sim_elapsed);
          block_sim += partial.sim_elapsed;
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
        reach_span.add_sim_us(sim_credit_us);
        return static_cast<std::size_t>(state.done);
      },
  });

  results.clients = processed;
  auto& registry = obs::MetricsRegistry::global();
  registry.counter("measure.reach.sessions").add(processed);
  registry.counter("measure.reach.queries").add(queries);
  registry.counter("measure.reach.interceptions")
      .add(results.interceptions.size());
  registry.counter("measure.reach.diagnoses")
      .add(results.conflict_diagnoses.size());
  registry.counter("measure.reach.client_faults")
      .add(results.client_faults.injected);
  registry.counter("measure.reach.proxy_faults")
      .add(results.proxy_faults.injected);
  return std::move(state.results);
}

}  // namespace encdns::measure
