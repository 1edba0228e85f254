#include "core/experiments.hpp"

#include <algorithm>
#include <map>
#include <unordered_map>
#include <unordered_set>

#include "core/implementation_survey.hpp"
#include "core/protocol_matrix.hpp"
#include "core/timeline.hpp"
#include "dns/query.hpp"
#include "http/message.hpp"
#include "http/url.hpp"
#include "util/base64.hpp"
#include "util/stats.hpp"

namespace encdns::core {
namespace {

using util::fmt;
using util::fmt_count;
using util::fmt_growth;
using util::fmt_pct;

std::string protocol_name(measure::Protocol protocol) {
  return measure::to_string(protocol);
}

// Annotate a study-backed table with any degraded phase coverage so a
// deadline-clipped run cannot be mistaken for a complete one. Fully covered
// phases add nothing: an undegraded run's tables keep their exact bytes.
void annotate_coverage(util::Table& table, Study& study,
                       std::initializer_list<PhaseId> phases) {
  std::string note;
  for (const PhaseId phase : phases) {
    const PhaseCoverage coverage = study.phase_coverage(phase);
    if (!coverage.degraded()) continue;
    note += note.empty() ? "degraded coverage: " : ", ";
    note += coverage.phase + " " + std::to_string(coverage.completed) + "/" +
            std::to_string(coverage.planned) + " (" +
            fmt_pct(coverage.fraction(), 1) + ")";
  }
  if (!note.empty()) table.set_note(std::move(note));
}

}  // namespace

util::Table experiment_table1() { return ProtocolMatrix().to_table(); }

util::Table experiment_figure1() { return timeline_table(); }

util::Table experiment_figure2() {
  // Reproduce Figure 2's two request shapes with the real codec: a
  // wire-format A query for example.com, carried by GET and by POST.
  const auto qname = *dns::Name::parse("example.com");
  dns::QueryOptions options;
  options.with_edns = false;
  const dns::Message query = dns::make_query(qname, dns::RrType::kA, 0, options);
  const auto wire = query.encode();

  const auto tmpl =
      *http::UriTemplate::parse("https://dns.example.com/dns-query{?dns}");
  const http::Url get_url = tmpl.expand_get(util::base64url_encode(wire));

  http::Request post;
  post.method = http::Method::kPost;
  post.target = tmpl.post_target().path;
  post.headers.set("Host", tmpl.base().host);
  post.headers.set("Content-Type", http::kDnsMessageType);
  post.body = wire;
  const auto post_wire = post.serialize();

  util::Table table("Figure 2: Two types of DoH requests (A query, example.com)",
                    {"Method", "Field", "Value"});
  table.add_row({"GET", "URL", get_url.to_string()});
  table.add_row({"GET", "dns parameter", util::base64url_encode(wire)});
  table.add_row({"POST", "target", post.target});
  table.add_row({"POST", "Content-Type", http::kDnsMessageType});
  table.add_row({"POST", "body bytes", std::to_string(wire.size())});
  table.add_row({"POST", "serialized request bytes", std::to_string(post_wire.size())});
  table.add_row({"-", "wire-format query bytes", std::to_string(wire.size())});
  return table;
}

util::Table experiment_figure3(Study& study) {
  util::Table table("Figure 3: Open DoT resolvers identified by each scan",
                    {"Scan date", "Hosts w/ 853 open", "DoT resolvers",
                     "Providers", "Large-provider address share"});
  annotate_coverage(table, study, {PhaseId::kScanCampaign});
  for (const auto& snapshot : study.scans()) {
    // Share of resolver addresses owned by providers with >= 20 addresses.
    util::Counter per_provider;
    for (const auto& resolver : snapshot.resolvers)
      per_provider.add(resolver.provider);
    double large = 0.0;
    for (const auto& [provider, count] : per_provider.sorted_desc())
      if (count >= 20.0) large += count;
    const double share =
        snapshot.resolvers.empty() ? 0.0 : large / snapshot.resolvers.size();
    table.add_row({snapshot.date.to_string(), fmt_count(snapshot.port_open),
                   fmt_count(static_cast<std::int64_t>(snapshot.resolvers.size())),
                   fmt_count(static_cast<std::int64_t>(snapshot.providers().size())),
                   fmt_pct(share, 1)});
  }
  return table;
}

util::Table experiment_table2(Study& study) {
  const auto& scans = study.scans();
  util::Table table("Table 2: Top countries of open DoT resolvers",
                    {"CC", "First scan", "Last scan", "Growth"});
  annotate_coverage(table, study, {PhaseId::kScanCampaign});
  if (scans.empty()) return table;
  util::Counter first, last;
  for (const auto& resolver : scans.front().resolvers) first.add(resolver.country);
  for (const auto& resolver : scans.back().resolvers) last.add(resolver.country);
  const auto top = last.sorted_desc();
  std::size_t shown = 0;
  for (const auto& [country, count] : top) {
    if (shown++ >= 10) break;
    table.add_row({country, fmt_count(static_cast<std::int64_t>(first.get(country))),
                   fmt_count(static_cast<std::int64_t>(count)),
                   fmt_growth(first.get(country), count)});
  }
  return table;
}

util::Table experiment_figure4(Study& study) {
  const auto& scans = study.scans();
  util::Table table("Figure 4: Providers of open DoT resolvers (last scan)",
                    {"Metric", "Value"});
  annotate_coverage(table, study, {PhaseId::kScanCampaign});
  if (scans.empty()) return table;
  const auto& last = scans.back();

  util::Counter per_provider;
  for (const auto& resolver : last.resolvers) per_provider.add(resolver.provider);
  const auto providers = per_provider.sorted_desc();
  std::size_t single = 0;
  for (const auto& [provider, count] : providers)
    if (count <= 1.0) ++single;

  std::unordered_set<std::string> invalid_providers;
  std::size_t invalid_resolvers = 0, expired = 0, self_signed = 0, bad_chain = 0;
  for (const auto& resolver : last.resolvers) {
    if (!tls::is_invalid(resolver.cert_status)) continue;
    ++invalid_resolvers;
    invalid_providers.insert(resolver.provider);
    switch (resolver.cert_status) {
      case tls::CertStatus::kExpired: ++expired; break;
      case tls::CertStatus::kSelfSigned: ++self_signed; break;
      case tls::CertStatus::kUntrustedChain: ++bad_chain; break;
      default: break;
    }
  }

  table.add_row({"Providers", fmt_count(static_cast<std::int64_t>(providers.size()))});
  table.add_row({"Providers with a single resolver address",
                 fmt_pct(providers.empty() ? 0.0
                                           : static_cast<double>(single) /
                                                 providers.size(),
                         1)});
  table.add_row({"Providers with >= 1 invalid certificate",
                 fmt_count(static_cast<std::int64_t>(invalid_providers.size())) +
                     " (" +
                     fmt_pct(providers.empty()
                                 ? 0.0
                                 : static_cast<double>(invalid_providers.size()) /
                                       providers.size(),
                             1) +
                     ")"});
  table.add_row({"Invalid-certificate resolvers",
                 fmt_count(static_cast<std::int64_t>(invalid_resolvers))});
  table.add_row({"  expired", fmt_count(static_cast<std::int64_t>(expired))});
  table.add_row({"  self-signed", fmt_count(static_cast<std::int64_t>(self_signed))});
  table.add_row({"  invalid chain", fmt_count(static_cast<std::int64_t>(bad_chain))});
  // Provider-size CDF points for the paper's yellow curve.
  for (const std::size_t k : {1, 2, 5, 10, 50}) {
    std::size_t at_most = 0;
    for (const auto& [provider, count] : providers)
      if (count <= static_cast<double>(k)) ++at_most;
    table.add_row({"Providers with <= " + std::to_string(k) + " addresses",
                   fmt_pct(providers.empty() ? 0.0
                                             : static_cast<double>(at_most) /
                                                   providers.size(),
                           1)});
  }
  return table;
}

util::Table experiment_doh_discovery(Study& study) {
  const auto& discovery = study.doh_discovery();
  util::Table table("DoH discovery from the URL dataset (Section 3.2)",
                    {"Metric", "Value"});
  annotate_coverage(table, study, {PhaseId::kDohDiscovery});
  table.add_row({"URLs in dataset",
                 fmt_count(static_cast<std::int64_t>(discovery.urls_in_dataset))});
  table.add_row({"URLs matching DoH path templates",
                 fmt_count(static_cast<std::int64_t>(discovery.path_candidates))});
  table.add_row({"Valid DoH URLs",
                 fmt_count(static_cast<std::int64_t>(discovery.valid_urls))});
  table.add_row({"Distinct DoH resolvers",
                 fmt_count(static_cast<std::int64_t>(discovery.resolvers.size()))});
  // Which discovered resolvers are beyond the public lists?
  std::unordered_map<std::string, bool> in_list;
  for (const auto& d : study.world().deployments().doh) {
    const auto tmpl = http::UriTemplate::parse(d.uri_template);
    if (tmpl) in_list[tmpl->base().host] = d.in_public_list;
  }
  std::size_t beyond = 0;
  std::string beyond_names;
  for (const auto& resolver : discovery.resolvers) {
    const auto it = in_list.find(resolver.host);
    if (it != in_list.end() && !it->second) {
      ++beyond;
      if (!beyond_names.empty()) beyond_names += ", ";
      beyond_names += resolver.host;
    }
  }
  table.add_row({"Resolvers beyond public lists",
                 fmt_count(static_cast<std::int64_t>(beyond)) + " (" + beyond_names +
                     ")"});
  std::size_t valid_certs = 0;
  for (const auto& resolver : discovery.resolvers)
    if (resolver.cert_valid) ++valid_certs;
  table.add_row({"Resolvers with valid certificates on 443",
                 fmt_count(static_cast<std::int64_t>(valid_certs)) + " / " +
                     fmt_count(static_cast<std::int64_t>(discovery.resolvers.size()))});
  return table;
}

util::Table experiment_figure5(Study& study) {
  // The URL-dataset workflow of §3.2 as a funnel: how many URLs survive each
  // filtering/probing stage on the way to distinct working DoH resolvers.
  const auto& discovery = study.doh_discovery();
  util::Table table("Figure 5: DoH discovery workflow (URL dataset funnel)",
                    {"Stage", "Count", "Share of dataset"});
  annotate_coverage(table, study, {PhaseId::kDohDiscovery});
  const auto total = static_cast<double>(discovery.urls_in_dataset);
  const auto share = [&](std::size_t n) {
    return total <= 0.0 ? fmt_pct(0.0, 2)
                        : fmt_pct(static_cast<double>(n) / total, 2);
  };
  table.add_row({"URLs in dataset",
                 fmt_count(static_cast<std::int64_t>(discovery.urls_in_dataset)),
                 share(discovery.urls_in_dataset)});
  table.add_row({"Match known DoH paths",
                 fmt_count(static_cast<std::int64_t>(discovery.path_candidates)),
                 share(discovery.path_candidates)});
  table.add_row({"Answer DoH probes correctly",
                 fmt_count(static_cast<std::int64_t>(discovery.valid_urls)),
                 share(discovery.valid_urls)});
  table.add_row({"Distinct (host, path) resolvers",
                 fmt_count(static_cast<std::int64_t>(discovery.resolvers.size())),
                 share(discovery.resolvers.size())});
  return table;
}

util::Table experiment_figure7(Study& study) {
  // The reachability workflow of §4.2: clients recruited, lookups issued,
  // and the diagnostic tail for clients that cannot use Cloudflare DoT
  // (port scan of 1.1.1.1 + webpage fetch).
  const auto& reach = study.reachability_global();
  util::Table table("Figure 7: Reachability test workflow (global platform)",
                    {"Step", "Count"});
  annotate_coverage(table, study, {PhaseId::kReachabilityGlobal});
  std::uint64_t lookups = 0;
  for (const auto& [key, counts] : reach.cells) lookups += counts.total();
  table.add_row(
      {"Clients recruited", fmt_count(static_cast<std::int64_t>(reach.clients))});
  table.add_row({"Lookups classified", fmt_count(static_cast<std::int64_t>(lookups))});
  table.add_row({"Clients diagnosed (Cloudflare DoT failed)",
                 fmt_count(static_cast<std::int64_t>(reach.conflict_diagnoses.size()))});
  std::size_t port_853_open = 0;
  std::size_t webpage_fetched = 0;
  for (const auto& diagnosis : reach.conflict_diagnoses) {
    for (const std::uint16_t port : diagnosis.open_ports)
      if (port == 853) ++port_853_open;
    if (!diagnosis.webpage_excerpt.empty()) ++webpage_fetched;
  }
  table.add_row({"Diagnosed clients with 853 open",
                 fmt_count(static_cast<std::int64_t>(port_853_open))});
  table.add_row({"Diagnosed clients fetching 1.1.1.1 webpage",
                 fmt_count(static_cast<std::int64_t>(webpage_fetched))});
  table.add_row({"TLS interceptions recorded",
                 fmt_count(static_cast<std::int64_t>(reach.interceptions.size()))});
  return table;
}

util::Table experiment_figure8(Study& study) {
  // The performance workflow of §4.3: vantage intake vs clients that
  // produced a complete latency row, plus the headline overheads.
  const auto& perf = study.performance();
  util::Table table("Figure 8: Performance test workflow (client funnel)",
                    {"Step", "Value"});
  annotate_coverage(table, study, {PhaseId::kPerformance});
  const std::size_t recruited = perf.clients.size() + perf.discarded_clients;
  table.add_row(
      {"Clients recruited", fmt_count(static_cast<std::int64_t>(recruited))});
  table.add_row({"Clients with complete measurements",
                 fmt_count(static_cast<std::int64_t>(perf.clients.size()))});
  table.add_row({"Clients discarded (churn/failure)",
                 fmt_count(static_cast<std::int64_t>(perf.discarded_clients))});
  table.add_row(
      {"Median DoT overhead vs Do53", fmt(perf.overall(false, true), 2) + " ms"});
  table.add_row(
      {"Median DoH overhead vs Do53", fmt(perf.overall(true, true), 2) + " ms"});
  return table;
}

util::Table experiment_local_probe(Study& study) {
  const auto& results = study.local_probe();
  util::Table table("Local-resolver DoT probe (Section 3.1, RIPE-Atlas-style)",
                    {"Metric", "Value"});
  annotate_coverage(table, study, {PhaseId::kLocalProbe});
  table.add_row({"Probes", fmt_count(static_cast<std::int64_t>(results.probes))});
  table.add_row({"DoT queries succeeded",
                 fmt_count(static_cast<std::int64_t>(results.dot_succeeded))});
  table.add_row({"Success rate", fmt_pct(results.success_rate(), 2)});
  return table;
}

util::Table experiment_figure6(Study& study) {
  // Geo-distribution of the global platform's endpoints: sample the
  // recruitment process and tabulate countries (the map of Figure 6).
  util::Table table("Figure 6: Geo-distribution of global proxy endpoints",
                    {"Rank", "CC", "Endpoints", "Share"});
  util::Rng rng(study.config().world.seed ^ 0xF16ULL);
  util::Counter counter;
  const std::size_t samples = 8000;
  for (std::size_t i = 0; i < samples; ++i)
    counter.add(study.world().sample_global_vantage(rng).country);
  std::size_t rank = 0;
  for (const auto& [country, count] : counter.sorted_desc()) {
    if (++rank > 15) break;
    table.add_row({std::to_string(rank), country,
                   fmt_count(static_cast<std::int64_t>(count)),
                   fmt_pct(count / counter.total(), 1)});
  }
  table.add_row({"-", "countries total", fmt_count(static_cast<std::int64_t>(
                                             counter.distinct())),
                 ""});
  return table;
}

util::Table experiment_table3(Study& study) {
  util::Table table("Table 3: Evaluation of client-side dataset",
                    {"Test", "Platform", "# Distinct IP", "# Country", "# AS"});
  annotate_coverage(table, study,
                    {PhaseId::kReachabilityGlobal, PhaseId::kReachabilityCn,
                     PhaseId::kPerformance});
  const auto& global = study.reachability_global();
  const auto& cn = study.reachability_cn();
  table.add_row({"Reachability", global.dataset.platform + " (Global)",
                 fmt_count(static_cast<std::int64_t>(global.dataset.distinct_ips)),
                 fmt_count(static_cast<std::int64_t>(global.dataset.countries)),
                 fmt_count(static_cast<std::int64_t>(global.dataset.ases))});
  table.add_row({"Reachability", cn.dataset.platform + " (Censored)",
                 fmt_count(static_cast<std::int64_t>(cn.dataset.distinct_ips)),
                 fmt_count(static_cast<std::int64_t>(cn.dataset.countries)),
                 fmt_count(static_cast<std::int64_t>(cn.dataset.ases))});
  const auto& perf = study.performance();
  std::unordered_set<std::string> perf_countries;
  for (const auto& client : perf.clients) perf_countries.insert(client.country);
  table.add_row({"Performance", global.dataset.platform + " (Global)",
                 fmt_count(static_cast<std::int64_t>(perf.clients.size())),
                 fmt_count(static_cast<std::int64_t>(perf_countries.size())), "-"});
  return table;
}

util::Table experiment_table4(Study& study) {
  util::Table table("Table 4: Reachability test results of public resolvers",
                    {"Platform", "Resolver", "Protocol", "Correct", "Incorrect",
                     "Failed"});
  annotate_coverage(table, study,
                    {PhaseId::kReachabilityGlobal, PhaseId::kReachabilityCn});
  const auto emit = [&](const measure::ReachabilityResults& results,
                        const std::string& platform) {
    for (const auto& resolver : {"Cloudflare", "Google", "Quad9", "Self-built"}) {
      for (const auto protocol :
           {measure::Protocol::kDo53, measure::Protocol::kDoT,
            measure::Protocol::kDoH}) {
        const auto& cell = results.cell(resolver, protocol);
        if (cell.total() == 0) {
          table.add_row({platform, resolver, protocol_name(protocol), "n/a", "n/a",
                         "n/a"});
          continue;
        }
        table.add_row({platform, resolver, protocol_name(protocol),
                       fmt_pct(cell.fraction(measure::Outcome::kCorrect)),
                       fmt_pct(cell.fraction(measure::Outcome::kIncorrect)),
                       fmt_pct(cell.fraction(measure::Outcome::kFailed))});
      }
    }
  };
  emit(study.reachability_global(), "ProxyRack (Global)");
  emit(study.reachability_cn(), "Zhima (Censored, CN)");
  return table;
}

util::Table experiment_table5(Study& study) {
  const auto& results = study.reachability_global();
  util::Table table(
      "Table 5: Ports open on 1.1.1.1, probed from clients failing Cloudflare DoT",
      {"Port", "# Clients", "Share of diagnosed clients"});
  annotate_coverage(table, study, {PhaseId::kReachabilityGlobal});
  const std::size_t total = results.conflict_diagnoses.size();
  std::map<std::uint16_t, std::size_t> per_port;
  std::size_t none = 0;
  for (const auto& diagnosis : results.conflict_diagnoses) {
    if (diagnosis.open_ports.empty()) ++none;
    for (const auto port : diagnosis.open_ports) ++per_port[port];
  }
  const auto share = [&](std::size_t n) {
    return total == 0 ? std::string("-")
                      : fmt_pct(static_cast<double>(n) / total, 1);
  };
  table.add_row({"None", fmt_count(static_cast<std::int64_t>(none)), share(none)});
  for (const auto& [port, count] : per_port)
    table.add_row({std::to_string(port), fmt_count(static_cast<std::int64_t>(count)),
                   share(count)});
  return table;
}

util::Table experiment_table6(Study& study) {
  const auto& results = study.reachability_global();
  util::Table table("Table 6: Example clients affected by TLS interception",
                    {"Client", "CC", "AS", "Untrusted CA CN", "443", "853",
                     "Opportunistic DoT answered"});
  annotate_coverage(table, study, {PhaseId::kReachabilityGlobal});
  for (const auto& record : results.interceptions) {
    // Anonymize the client like the paper: a.b.c.* form.
    const util::Ipv4 block = record.client_address.slash24();
    std::string anonymized = block.to_string();
    anonymized = anonymized.substr(0, anonymized.rfind('.') + 1) + "*";
    table.add_row({anonymized, record.country, "AS" + std::to_string(record.asn),
                   record.untrusted_ca_cn, record.port_443 ? "yes" : "no",
                   record.port_853 ? "yes" : "no",
                   record.dot_lookup_succeeded ? "yes" : "no"});
  }
  table.add_row({"TOTAL",
                 fmt_count(static_cast<std::int64_t>(results.interceptions.size())) +
                     " clients",
                 "", "", "", "", ""});
  return table;
}

util::Table experiment_figure9(Study& study) {
  const auto& results = study.performance();
  util::Table table(
      "Figure 9: Query performance per country (overhead vs DNS/TCP, reused "
      "connections, ms)",
      {"Country", "# Clients", "DoT mean", "DoT median", "DoH mean", "DoH median"});
  annotate_coverage(table, study, {PhaseId::kPerformance});
  table.add_row({"GLOBAL",
                 fmt_count(static_cast<std::int64_t>(results.clients.size())),
                 fmt(results.overall(false, false), 1),
                 fmt(results.overall(false, true), 1),
                 fmt(results.overall(true, false), 1),
                 fmt(results.overall(true, true), 1)});
  for (const auto& row : results.by_country(12)) {
    table.add_row({row.country, fmt_count(static_cast<std::int64_t>(row.clients)),
                   fmt(row.dot_overhead_mean, 1), fmt(row.dot_overhead_median, 1),
                   fmt(row.doh_overhead_mean, 1), fmt(row.doh_overhead_median, 1)});
  }
  return table;
}

util::Table experiment_figure10(Study& study) {
  const auto& results = study.performance();
  util::Table table(
      "Figure 10: Per-client query time, DNS vs DoT/DoH (scatter summary)",
      {"Statistic", "DNS (ms)", "DoT (ms)", "DoH (ms)"});
  annotate_coverage(table, study, {PhaseId::kPerformance});
  std::vector<double> dns, dot, doh;
  for (const auto& client : results.clients) {
    dns.push_back(client.dns_ms);
    dot.push_back(client.dot_ms);
    doh.push_back(client.doh_ms);
  }
  for (const double q : {0.10, 0.25, 0.50, 0.75, 0.90}) {
    table.add_row({"p" + std::to_string(static_cast<int>(q * 100)),
                   fmt(util::percentile(dns, q).value_or(0), 1),
                   fmt(util::percentile(dot, q).value_or(0), 1),
                   fmt(util::percentile(doh, q).value_or(0), 1)});
  }
  std::size_t near_dot = 0, near_doh = 0;
  for (const auto& client : results.clients) {
    if (std::abs(client.dot_overhead()) < 15.0) ++near_dot;
    if (std::abs(client.doh_overhead()) < 15.0) ++near_doh;
  }
  const double n = results.clients.empty() ? 1.0 : results.clients.size();
  table.add_row({"clients within 15ms of y=x", "-", fmt_pct(near_dot / n, 1),
                 fmt_pct(near_doh / n, 1)});
  return table;
}

util::Table experiment_table7(Study& study) {
  util::Table table(
      "Table 7: Performance test results w/o connection reuse (medians, s)",
      {"Vantage", "DNS/TCP", "DoT (overhead)", "DoH (overhead)"});
  annotate_coverage(table, study, {PhaseId::kNoReuse});
  for (const auto& row : study.no_reuse()) {
    table.add_row({row.vantage_country, fmt(row.dns_s, 3),
                   fmt(row.dot_s, 3) + " (" + fmt(row.dot_overhead_ms(), 0) + "ms)",
                   fmt(row.doh_s, 3) + " (" + fmt(row.doh_overhead_ms(), 0) + "ms)"});
  }
  return table;
}

util::Table experiment_figure11(Study& study) {
  const auto& results = study.netflow();
  util::Table table("Figure 11: Monthly DoT flows to Cloudflare and Quad9 (sampled)",
                    {"Month", "Cloudflare", "Quad9", "est. Do53 (sampled)"});
  annotate_coverage(table, study, {PhaseId::kNetflow});
  std::map<util::Date, std::pair<std::uint64_t, std::uint64_t>> merged;
  for (const auto& [month, count] : results.cloudflare_monthly)
    merged[month].first = count;
  for (const auto& [month, count] : results.quad9_monthly)
    merged[month].second = count;
  for (const auto& [month, counts] : merged) {
    const auto it = results.do53_monthly_estimate.find(month);
    table.add_row({month.month_label(),
                   fmt_count(static_cast<std::int64_t>(counts.first)),
                   fmt_count(static_cast<std::int64_t>(counts.second)),
                   it == results.do53_monthly_estimate.end()
                       ? "-"
                       : fmt_count(static_cast<std::int64_t>(it->second))});
  }
  const auto jul = results.cloudflare_monthly.find(util::Date{2018, 7, 1});
  const auto dec = results.cloudflare_monthly.find(util::Date{2018, 12, 1});
  if (jul != results.cloudflare_monthly.end() &&
      dec != results.cloudflare_monthly.end()) {
    table.add_row({"Growth Jul->Dec 2018",
                   fmt_growth(static_cast<double>(jul->second),
                              static_cast<double>(dec->second)),
                   "", ""});
  }
  return table;
}

util::Table experiment_figure12(Study& study) {
  const auto& results = study.netflow();
  util::Table table("Figure 12: DoT traffic to Cloudflare/Quad9 per /24 network",
                    {"Rank", "/24", "Records", "Share", "Active days"});
  annotate_coverage(table, study, {PhaseId::kNetflow});
  for (std::size_t i = 0; i < std::min<std::size_t>(10, results.netblocks.size());
       ++i) {
    const auto& nb = results.netblocks[i];
    table.add_row(
        {std::to_string(i + 1), nb.slash24.to_string() + "/24",
         fmt_count(static_cast<std::int64_t>(nb.records)),
         fmt_pct(static_cast<double>(nb.records) /
                     std::max<std::uint64_t>(1, results.total_dot_records),
                 1),
         std::to_string(nb.active_days)});
  }
  table.add_row({"-", "top-5 share", fmt_pct(results.top_share(5), 1), "", ""});
  table.add_row({"-", "top-20 share", fmt_pct(results.top_share(20), 1), "", ""});
  table.add_row({"-", "blocks active < 7 days",
                 fmt_pct(results.short_lived_block_fraction(7), 1), "", ""});
  table.add_row({"-", "traffic from those blocks",
                 fmt_pct(results.short_lived_traffic_share(7), 1), "", ""});
  table.add_row({"-", "client /24s observed",
                 fmt_count(static_cast<std::int64_t>(results.netblocks.size())), "",
                 ""});
  table.add_row({"-", "scanner-flagged client /24s",
                 fmt_count(static_cast<std::int64_t>(results.flagged_client_blocks)),
                 "", ""});
  // The streaming HLL sketch over the same /24 stream, next to the exact
  // count it is validated against (DESIGN.md §16).
  table.add_row({"-", "client /24s (HLL estimate)",
                 fmt_count(static_cast<std::int64_t>(results.distinct_block_estimate)),
                 "", ""});
  return table;
}

util::Table experiment_figure11_trend(Study& study) {
  // The Figure-11-style multi-year extension: per-provider sampled flow
  // volume and HLL distinct-client estimates at half-year checkpoints, the
  // adoption events that shaped the curves, and per-provider growth.
  const auto& results = study.netflow_trend();
  util::Table table(
      "Figure 11 (trend): Multi-year encrypted-DNS adoption by provider",
      {"Month", "Provider", "Flows (sampled)", "Distinct clients (est.)"});
  annotate_coverage(table, study, {PhaseId::kNetflowTrend});
  for (const auto& provider : results.providers) {
    for (const auto& month : provider.monthly) {
      if (month.month.month != 1 && month.month.month != 7) continue;
      table.add_row(
          {month.month.month_label(), provider.name,
           fmt_count(static_cast<std::int64_t>(month.records)),
           fmt_count(static_cast<std::int64_t>(month.clients_estimated))});
    }
  }
  for (const auto& event : results.events) {
    table.add_row({event.from.to_string(),
                   event.provider.empty() ? "(all)" : event.provider,
                   traffic::adoption_event_kind_label(event.kind),
                   event.label + " (x" + fmt(event.multiplier, 2) + ")"});
  }
  for (const auto& provider : results.providers) {
    if (provider.monthly.size() < 2) continue;
    const auto& first = provider.monthly.front();
    const auto& last = provider.monthly.back();
    table.add_row(
        {"Growth " + first.month.month_label() + " -> " + last.month.month_label(),
         provider.name,
         fmt_growth(static_cast<double>(first.records),
                    static_cast<double>(last.records)),
         fmt_count(static_cast<std::int64_t>(provider.clients_estimated))});
  }
  table.add_row({"-", "total flows",
                 fmt_count(static_cast<std::int64_t>(results.total_records)), ""});
  table.add_row(
      {"-", "distinct clients (est., all providers)",
       fmt_count(static_cast<std::int64_t>(results.clients_estimated_total())),
       ""});
  return table;
}

util::Table experiment_figure13(Study& study) {
  const auto& results = study.passive_dns();
  const std::vector<std::string> popular = {
      "dns.google.com", "mozilla.cloudflare-dns.com", "doh.cleanbrowsing.org",
      "doh.crypto.sx"};
  util::Table table("Figure 13: Monthly query volume of popular DoH domains",
                    {"Month", "Google", "Cloudflare (mozilla.*)", "CleanBrowsing",
                     "crypto.sx"});
  annotate_coverage(table, study, {PhaseId::kPassiveDns});
  std::map<util::Date, std::array<std::uint64_t, 4>> merged;
  for (std::size_t i = 0; i < popular.size(); ++i)
    for (const auto& [month, count] : results.daily_db.monthly_series(popular[i]))
      merged[month][i] = count;
  for (const auto& [month, counts] : merged) {
    if (month < util::Date{2018, 1, 1}) continue;  // the figure's x-range
    table.add_row({month.month_label(),
                   fmt_count(static_cast<std::int64_t>(counts[0])),
                   fmt_count(static_cast<std::int64_t>(counts[1])),
                   fmt_count(static_cast<std::int64_t>(counts[2])),
                   fmt_count(static_cast<std::int64_t>(counts[3]))});
  }
  return table;
}

util::Table experiment_table8() { return implementation_table(); }

util::Table experiment_doh_scan(Study& study) {
  // The E-DoH-style §3 variant: stateless-engine sweep of TCP/443 followed
  // by certificate-peek-directed RFC 8484 probes, compared against the URL
  // dataset's host set to show what IP-directed scanning adds.
  const auto& scan = study.doh_scan();
  util::Table table("IP-directed DoH discovery scan (Section 3 variant)",
                    {"Metric", "Value"});
  annotate_coverage(table, study, {PhaseId::kDohScan});
  table.add_row({"Addresses probed on TCP/443",
                 fmt_count(static_cast<std::int64_t>(scan.addresses_probed))});
  table.add_row({"Hosts with port 443 open",
                 fmt_count(static_cast<std::int64_t>(scan.port443_open))});
  table.add_row({"TLS handshakes (certificate peek)",
                 fmt_count(static_cast<std::int64_t>(scan.tls_established))});
  table.add_row({"Confirmed DoH endpoints",
                 fmt_count(static_cast<std::int64_t>(scan.endpoints.size()))});
  std::vector<std::string> url_hosts;
  for (const auto& resolver : study.doh_discovery().resolvers)
    url_hosts.push_back(resolver.host);
  table.add_row(
      {"Endpoint hosts beyond the URL dataset",
       fmt_count(static_cast<std::int64_t>(scan.hosts_beyond(url_hosts)))});
  std::size_t valid_certs = 0;
  for (const auto& endpoint : scan.endpoints)
    if (endpoint.cert_valid) ++valid_certs;
  table.add_row({"Endpoints with valid certificates",
                 fmt_count(static_cast<std::int64_t>(valid_certs)) + " / " +
                     fmt_count(static_cast<std::int64_t>(scan.endpoints.size()))});
  std::map<std::string, std::size_t> by_path;  // ordered for stable rows
  for (const auto& endpoint : scan.endpoints) ++by_path[endpoint.path];
  for (const auto& [path, count] : by_path)
    table.add_row({"Endpoints answering on " + path,
                   fmt_count(static_cast<std::int64_t>(count))});
  return table;
}

const std::vector<Experiment>& all_experiments() {
  static const std::vector<Experiment> experiments = {
      {"table1", "Comparison of DNS-over-Encryption protocols",
       [](Study&) { return experiment_table1(); },
       {"10 criteria under 5 categories: Protocol Design, Security, Usability,",
        "Deployability, Maturity. DoT and DoH emerge as the two leading and",
        "mature protocols; DoDTLS/DoQUIC have no implementations; DNSCrypt was",
        "never standardized."}},
      {"fig1", "Timeline of DNS privacy events",
       [](Study&) { return experiment_figure1(); },
       {"Earliest encryption proposal 2009; DPRIVE WG 2014; DoT RFC7858 2016;",
        "DoH RFC8484 2018; DNS-over-QUIC still a draft in 2019."}},
      {"fig2", "Two types of DoH requests",
       [](Study&) { return experiment_figure2(); },
       {"GET https://dns.example.com/dns-query?dns=<base64url(wire query)>",
        "POST /dns-query with Content-Type: application/dns-message body"}},
      {"fig3", "Open DoT resolvers identified by each scan",
       [](Study& s) { return experiment_figure3(s); },
       {"2-3M hosts with TCP/853 open per scan, the vast majority failing the",
        "DoT probe; >1.5K open DoT resolvers per scan, growing over the Feb 1 -",
        "May 1 2019 campaign; several large providers account for >75% of",
        "resolver addresses. (This reproduction's routable space is scaled",
        "~1:1000, so absolute open-host counts scale accordingly.)"}},
      {"table2", "Top countries of open DoT resolvers",
       [](Study& s) { return experiment_table2(s); },
       {"Feb 1 -> May 1 2019:  IE 456->951 (+108%)  CN 257->40 (-84%)",
        "US 100->531 (+431%)   DE 71->86 (+21%)     FR 59->56 (-5%)",
        "JP 34->27 (-20%)      NL 30->36 (+20%)     GB 25->21 (-16%)",
        "BR 22->49 (+122%)     RU 17->40 (+135%)"}},
      {"fig4", "Providers of open DoT resolvers",
       [](Study& s) { return experiment_figure4(s); },
       {"70% of providers operate a single resolver address. ~25% of providers",
        "install invalid certificates on at least one resolver; at May 1: 122",
        "resolvers of 62 providers — 27 expired (9 in 2018), 67 self-signed",
        "(47 FortiGate factory defaults acting as DoT proxies; 2 Perfect",
        "Privacy), 28 invalid chains."}},
      {"doh-discovery", "DoH discovery from the URL dataset",
       [](Study& s) { return experiment_doh_discovery(s); },
       {"61 valid URLs with common DoH paths (/dns-query, /resolve) in the",
        "crawler dataset; 17 public DoH resolvers in total, two of them beyond",
        "the public lists (dns.rubyfish.cn, dns.233py.com); no invalid",
        "certificates on any DoH port 443."}},
      {"fig5", "DoH discovery workflow (URL dataset funnel)",
       [](Study& s) { return experiment_figure5(s); }},
      {"local-probe", "ISP local-resolver DoT probe",
       [](Study& s) { return experiment_local_probe(s); },
       {"Only 24 of 6,655 probes (0.3%) complete a DoT query against their",
        "ISP's local resolver: ISP-side DoT deployment is scarce."}},
      {"fig6", "Geo-distribution of proxy endpoints",
       [](Study& s) { return experiment_figure6(s); },
       {"ProxyRack endpoints span 166 countries; residential-proxy-rich",
        "markets (Indonesia, Brazil, Russia, Vietnam, ...) are",
        "over-represented relative to internet population."}},
      {"table3", "Evaluation of client-side dataset",
       [](Study& s) { return experiment_table3(s); },
       {"Reachability: ProxyRack (Global) 29,622 IPs / 166 countries / 2,597",
        "ASes; Zhima (Censored) 85,112 IPs / 1 country / 5 ASes.",
        "Performance: ProxyRack 8,257 IPs / 132 countries / 1,098 ASes.",
        "(This reproduction recruits at quick scale; ratios carry over.)"}},
      {"table4", "Reachability test results of public resolvers",
       [](Study& s) { return experiment_table4(s); },
       {"Global: Cloudflare DNS 83.46/0.08/16.46, DoT 98.84/0.02/1.14,",
        "DoH 99.91/0.04/0.05; Google DNS 84.12/0.08/15.80, DoH 99.85/0/0.15;",
        "Quad9 DNS 99.78/0.11/0.11, DoT 99.78/0.06/0.15, DoH 85.99/13.09/0.92;",
        "Self-built ~99.9% across protocols.",
        "Censored(CN): Cloudflare DNS/DoT ~85/0/15, DoH 99.74/0/0.25;",
        "Google DoH 0.01/0/99.99 (blocked); Quad9 + self-built ~99%+."}},
      {"table5", "Ports open on the address 1.1.1.1",
       [](Study& s) { return experiment_table5(s); },
       {"Most conflicting destinations have no probed port open (blackholed /",
        "internal routing): None 155 clients. Others: 80 (131), 443 (93),",
        "53 (79), 23 (40), 22 (28), 179 (23), 161 (10), 67 (7), 123 (5),",
        "139 (3). Webpages identify routers, modems, auth portals; several",
        "crypto-hijacked MikroTik routers serve coin-mining scripts."}},
      {"table6", "Example clients affected by TLS interception",
       [](Study& s) { return experiment_table6(s); },
       {"17 of 29,622 global clients (0.06%) see resigned chains: untrusted CA",
        "CNs like 'SonicWall Firewall DPI-SSL', 'None', 'Sample CA 2'. 3 of 17",
        "intercept 443 only. Opportunistic DoT proceeds (queries visible to",
        "the interceptor); strict DoH aborts with a certificate error."}},
      {"fig7", "Reachability test workflow",
       [](Study& s) { return experiment_figure7(s); }},
      {"fig8", "Performance test workflow",
       [](Study& s) { return experiment_figure8(s); }},
      {"fig9", "Query performance per country",
       [](Study& s) { return experiment_figure9(s); },
       {"Global average/median overhead vs Cloudflare clear-text DNS:",
        "DoT +5ms/+9ms, DoH +8ms/+6ms. Indonesia (504 clients): DoT +25/+42ms,",
        "above average. India (282 clients): Cloudflare DoH is FASTER than",
        "clear-text by 99/96 ms (anycast/routing differences)."}},
      {"fig10", "Query time of DNS and DoH/DoT on individual clients",
       [](Study& s) { return experiment_figure10(s); },
       {"The majority of clients sit near the y=x line: with reused",
        "connections, encrypted DNS does not suffer significant performance",
        "downgrade relative to clear-text DNS/TCP."}},
      {"table7", "Performance test results w/o connection reuse",
       [](Study& s) { return experiment_table7(s); },
       {"Medians of 200 queries against the self-built resolver, fresh TCP+TLS",
        "per query: US 0.272s DNS, +77ms DoT, +89ms DoH; NL 0.449s, +258/+263;",
        "AU 0.569s, +386/+399; HK 0.636s, +470/+533. Overhead grows with",
        "distance — up to hundreds of milliseconds."}},
      {"fig11", "Traffic to Cloudflare and Quad9 DNS",
       [](Study& s) { return experiment_figure11(s); },
       {"Sampled (1/3000) monthly flows: Cloudflare DoT grows 4,674 (Jul 2018)",
        "-> 7,318 (Dec 2018), +56%; Quad9 fluctuates; DoT remains 2-3 orders",
        "of magnitude below traditional DNS."}},
      {"fig12", "DoT traffic per /24 network",
       [](Study& s) { return experiment_figure12(s); },
       {"5,623 /24 netblocks send DoT to Cloudflare; the top 5 account for 44%",
        "of traffic, the top 20 for 60%. 96% of netblocks are active for less",
        "than one week yet produce 25% of the traffic. No client network is",
        "flagged by the scan-detection system."}},
      {"fig13", "Query volume of popular DoH domains",
       [](Study& s) { return experiment_figure13(s); },
       {"Only 4 of 17 DoH domains exceed 10K total lookups in DNSDB. Google",
        "(serving since 2016) receives orders of magnitude more queries than",
        "the rest; Cloudflare grows with the Firefox experiments;",
        "CleanBrowsing grows ~10x from Sep 2018 (200/mo) to Mar 2019 (1,915)."}},
      {"table8", "Current implementations of DNS-over-Encryption",
       [](Study&) { return experiment_table8(); },
       {"DoT (2016) and DoH (2018) gained support far faster than DNSSEC",
        "(2005) or QNAME minimisation (2016): most large public resolvers,",
        "server software, stubs, Firefox/Chrome, Android 9 and systemd."}},
      // Registered last so the warmed-registry order of the experiments
      // above (and with it the golden corpus bytes) is unchanged.
      {"doh-scan", "IP-directed DoH discovery scan (E-DoH variant)",
       [](Study& s) { return experiment_doh_scan(s); },
       {"Sweeping the routable space on TCP/443 with the stateless engine,",
        "peeking each open host's certificate for a hostname and probing the",
        "well-known DoH paths directly at the address finds the deployed",
        "endpoints without a URL dataset — including at least one host the",
        "crawler dataset misses."}},
      {"fig11-trend", "Multi-year encrypted-DNS adoption trend",
       [](Study& s) { return experiment_figure11_trend(s); }},
  };
  return experiments;
}

}  // namespace encdns::core
