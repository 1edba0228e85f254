#include "core/phases.hpp"

#include <type_traits>
#include <utility>

#include "core/study.hpp"
#include "obs/span.hpp"
#include "tls/verify.hpp"
#include "util/env.hpp"
#include "util/fields.hpp"

namespace encdns::core {
namespace {

using Units = std::pair<std::size_t, std::size_t>;  // planned, completed

/// Completes `spec` with the operations bound to its result: `result`
/// caches it, its field list journals it (util/fields.hpp), `run` computes
/// it, and `coverage` counts its units (none: one unit, completed).
template <typename R>
PhaseSpec typed_row(
    PhaseSpec spec, std::optional<R> Study::*result,
    std::type_identity_t<R (*)(const Study&, const PhaseContext&)> run,
    std::type_identity_t<Units (*)(const StudyConfig&, const R&)> coverage =
        nullptr) {
  spec.cached = [result](const Study& study) {
    return (study.*result).has_value();
  };
  spec.run = [result, run](Study& study, const PhaseContext& context) {
    study.*result = run(study, context);
  };
  spec.encode = [result](const Study& study) {
    return util::encode(*(study.*result));
  };
  spec.decode = [result](Study& study, std::span<const std::uint8_t> state) {
    study.*result = util::decode<R>(state);
  };
  spec.coverage = [result, coverage](const Study& study) {
    const auto [planned, completed] =
        coverage ? coverage(study.config(), *(study.*result)) : Units{1, 1};
    return PhaseCoverage{.planned = planned, .completed = completed};
  };
  return spec;
}

/// `cfg` running on the context's pool, token and checkpoint hook.
template <typename Config>
Config in_context(Config cfg, const PhaseContext& context) {
  cfg.pool = context.pool;
  cfg.cancel = context.cancel;
  cfg.checkpoint = context.checkpoint;
  return cfg;
}

/// §3.2 certificate analysis of the final scan snapshot (Table 2 input):
/// a serial pass, so plain counter adds are already deterministic.
void run_certs(Study& study, const PhaseContext&) {
  OBS_SPAN("certs.analyze");
  auto& registry = obs::MetricsRegistry::global();
  const auto& snapshots = study.scans();
  if (snapshots.empty()) return;
  for (const auto& resolver : snapshots.back().resolvers) {
    registry.counter("certs.analyzed").add(1);
    if (resolver.cert_status == tls::CertStatus::kValid)
      registry.counter("certs.valid").add(1);
    else
      registry.counter("certs.invalid").add(1);
    if (resolver.cert_status == tls::CertStatus::kSelfSigned)
      registry.counter("certs.self_signed").add(1);
    if (resolver.cert_status == tls::CertStatus::kExpired)
      registry.counter("certs.expired").add(1);
  }
}

/// ENCDNS_NETFLOW_SCALE multiplies the configured scale (quick() runs at
/// 0.02; the soak and bench tiers push it back up) and ENCDNS_HLL_PRECISION
/// overrides the sketch width. Both change the deterministic output, so
/// both strings sit in the config fingerprint.
traffic::TrendStudyConfig trend_config(traffic::TrendStudyConfig cfg) {
  if (const auto scale = util::env_double("ENCDNS_NETFLOW_SCALE")) {
    if (!(*scale > 0.0)) {
      throw util::EnvError("ENCDNS_NETFLOW_SCALE=\"" +
                           *util::env_string("ENCDNS_NETFLOW_SCALE") +
                           "\": expected a multiplier > 0");
    }
    cfg.scale *= *scale;
  }
  if (const auto precision = util::env_int("ENCDNS_HLL_PRECISION")) {
    if (*precision < traffic::Hll::kMinPrecision ||
        *precision > traffic::Hll::kMaxPrecision) {
      throw util::EnvError("ENCDNS_HLL_PRECISION=\"" +
                           *util::env_string("ENCDNS_HLL_PRECISION") +
                           "\": expected a precision in [4, 16]");
    }
    cfg.hll_precision = static_cast<int>(*precision);
  }
  return cfg;
}

measure::ReachabilityResults run_reachability(
    const Study& study, const measure::ReachabilityConfig& config,
    const PhaseContext& context) {
  return measure::ReachabilityTest(study.world(), *context.platform,
                                   in_context(config, context))
      .run();
}

Units reachability_coverage(const StudyConfig&,
                            const measure::ReachabilityResults& r) {
  return {r.clients_planned, r.clients};
}

}  // namespace

const std::vector<PhaseSpec>& phase_table() {
  using enum PhaseId;
  using enum OwnedPlatform;
  using Context = const PhaseContext&;
  static const std::vector<PhaseSpec> table{
      typed_row(
          {.id = kScanCampaign, .name = "scan_campaign", .group = "scan",
           .budget = {"ENCDNS_DEADLINE_SCAN"}, .partials = true},
          &Study::scans_,
          [](const Study& s, Context c) {
            return scan::Scanner(s.world(), in_context(s.config().campaign, c))
                .run_campaign();
          },
          [](const StudyConfig& config, const auto& scans) {
            return Units{config.campaign.scan_count, scans.size()};
          }),
      typed_row({.id = kDohDiscovery, .name = "doh_discovery", .group = "scan"},
                &Study::doh_discovery_, [](const Study& s, Context) {
                  const auto& campaign = s.config().campaign;
                  scan::DohProber prober(s.world(),
                                         s.world().make_clean_vantage("US"),
                                         campaign.seed ^ 0xD0DULL);
                  return prober.discover(s.world().url_dataset(),
                                         campaign.start.plus_days(30));
                }),
      typed_row(
          {.id = kDohScan, .name = "doh_scan", .group = "scan",
           .budget = {"ENCDNS_DEADLINE_DOH_SCAN", "ENCDNS_DEADLINE_SCAN"}},
          &Study::doh_scan_,
          [](const Study& s, Context c) {
            const auto& campaign = s.config().campaign;
            scan::DohScanConfig cfg;
            cfg.seed = campaign.seed ^ 0xED0ULL;
            cfg.thread_count = s.config().thread_count;
            cfg.pool = c.pool;
            cfg.cancel = c.cancel;
            return scan::run_doh_scan(s.world(), cfg,
                                      campaign.start.plus_days(60));
          }),
      typed_row(
          {.id = kLocalProbe, .name = "local_probe", .group = "scan"},
          &Study::local_probe_,
          [](const Study& s, Context) {
            return measure::run_local_resolver_probe(s.world(),
                                                     s.config().local_probe);
          },
          [](const StudyConfig& config, const auto& results) {
            return Units{config.local_probe.probe_count, results.probes};
          }),
      {.id = kCerts, .name = "certs", .group = "certs",
       .deps = {kScanCampaign}, .run = run_certs},
      typed_row({.id = kReachabilityGlobal, .name = "reachability_global",
                 .group = "reachability", .platform = kGlobal,
                 .budget = {"ENCDNS_DEADLINE_REACH"}, .partials = true},
                &Study::reach_global_,
                [](const Study& s, Context c) {
                  return run_reachability(s, s.config().reachability_global,
                                          c);
                },
                reachability_coverage),
      // ENCDNS_DEADLINE_REACH is one budget for both platforms, so the two
      // reachability runs share its token; the edge serializes them.
      typed_row({.id = kReachabilityCn, .name = "reachability_cn",
                 .group = "reachability", .deps = {kReachabilityGlobal},
                 .platform = kCn, .budget = {"ENCDNS_DEADLINE_REACH"},
                 .partials = true},
                &Study::reach_cn_,
                [](const Study& s, Context c) {
                  return run_reachability(s, s.config().reachability_cn, c);
                },
                reachability_coverage),
      // The one phase that fills a resolver cache at paper scale (the
      // Cloudflare backend's, DESIGN.md §15): it starts only after every
      // other writer of that cache has finished, so its evictions do not
      // depend on thread timing. reachability_cn is a dependency, as in the
      // canonical order, so a lone accessor runs it first; the §3 writers
      // are ordering-only edges, so a lone performance() runs no sweep.
      typed_row(
          {.id = kPerformance, .name = "performance", .group = "performance",
           .deps = {kReachabilityGlobal, kReachabilityCn},
           .after = {kScanCampaign, kDohDiscovery, kDohScan},
           .platform = kGlobal, .budget = {"ENCDNS_DEADLINE_PERF"},
           .partials = true},
          &Study::performance_,
          [](const Study& s, Context c) {
            return measure::PerformanceTest(
                       s.world(), *c.platform,
                       in_context(s.config().performance, c))
                .run();
          },
          [](const StudyConfig&, const auto& p) {
            return Units{p.clients_planned, p.clients_processed};
          }),
      typed_row(
          {.id = kNoReuse, .name = "no_reuse", .group = "performance"},
          &Study::no_reuse_,
          [](const Study& s, Context) {
            return measure::run_no_reuse_test(s.world(), s.config().no_reuse);
          },
          [](const StudyConfig& config, const auto& rows) {
            return Units{config.no_reuse.vantage_countries.size(), rows.size()};
          }),
      typed_row(
          {.id = kNetflow, .name = "netflow", .group = "netflow",
           .budget = {"ENCDNS_DEADLINE_NETFLOW"}, .partials = true},
          &Study::netflow_,
          [](const Study& s, Context c) {
            return traffic::NetflowStudy(in_context(s.config().netflow, c),
                                         traffic::big_resolver_address_list())
                .run();
          },
          [](const StudyConfig&, const auto& n) {
            return Units{n.days_planned, n.days_processed};
          }),
      typed_row(
          {.id = kNetflowTrend, .name = "netflow_trend", .group = "netflow",
           .budget = {"ENCDNS_DEADLINE_NETFLOW_TREND",
                      "ENCDNS_DEADLINE_NETFLOW"},
           .partials = true},
          &Study::netflow_trend_,
          [](const Study& s, Context c) {
            return traffic::TrendStudy(
                       in_context(trend_config(s.config().trend), c))
                .run();
          },
          [](const StudyConfig&, const auto& t) {
            return Units{t.days_planned, t.days_processed};
          }),
      typed_row(
          {.id = kPassiveDns, .name = "passive_dns", .group = "passive_dns"},
          &Study::passive_dns_, [](const Study& s, Context) {
            return traffic::run_passive_dns_study(s.config().passive_dns);
          }),
  };
  return table;
}

const std::vector<std::string>& canonical_phases() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> journaled;
    for (const PhaseSpec& spec : phase_table())
      if (spec.journaled()) journaled.emplace_back(spec.name);
    return journaled;
  }();
  return names;
}

}  // namespace encdns::core
