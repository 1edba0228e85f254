#include "world/world.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "dnscrypt/service.hpp"
#include "doq/doq.hpp"
#include "http/url.hpp"
#include "tls/trust_store.hpp"

namespace encdns::world {
namespace {

// Anycast PoP countries for the big public resolvers.
const std::vector<std::string>& anycast_pop_countries() {
  static const std::vector<std::string> pops = {"US", "NL", "DE", "GB", "FR", "JP",
                                                "SG", "HK", "AU", "BR", "IN", "ZA"};
  return pops;
}

net::Location centroid_of(const std::string& country) {
  const CountryInfo* info = find_country(country);
  net::Location loc;
  if (info != nullptr) {
    loc.geo = info->geo;
    loc.country = std::string(info->code);
  } else {
    loc.country = country;
  }
  return loc;
}

std::vector<net::Pop> pops_for(const std::shared_ptr<net::Service>& service,
                               const std::vector<std::string>& pop_countries) {
  std::vector<net::Pop> pops;
  pops.reserve(pop_countries.size());
  for (const auto& country : pop_countries) {
    net::Pop pop;
    pop.location = centroid_of(country);
    pop.service = service;
    pop.extra_processing = sim::Millis{0.3};
    pops.push_back(std::move(pop));
  }
  return pops;
}

/// Build the certificate chain a DoT deployment presents, from its kind.
tls::CertificateChain chain_for(const DotDeployment& d) {
  const util::Date issued{2018, 11, 1};
  switch (d.cert_kind) {
    case CertKind::kValid:
      return tls::make_chain(d.cert_cn, tls::kLetsEncryptCa, issued,
                             util::Date{2019, 12, 1}, {d.cert_cn});
    case CertKind::kExpired:
    case CertKind::kExpiredLong:
      return tls::make_chain(d.cert_cn, tls::kLetsEncryptCa,
                             d.cert_expiry.plus_days(-90), d.cert_expiry,
                             {d.cert_cn});
    case CertKind::kSelfSigned:
      return tls::make_self_signed(d.cert_cn, issued, util::Date{2021, 1, 1});
    case CertKind::kFortigateDefault:
      return tls::make_self_signed("FortiGate", util::Date{2016, 8, 1},
                                   util::Date{2026, 8, 1});
    case CertKind::kBadChain:
      return tls::make_untrusted_chain(d.cert_cn, "Internal Corporate Root CA",
                                       issued, util::Date{2020, 6, 1});
  }
  return {};
}

}  // namespace

World::World(WorldConfig config) : config_(config) {
  deployments_ = make_deployments(config_.seed);
  for (const auto& text : routable_prefixes()) {
    scan_prefixes_.push_back(*util::Cidr::parse(text));
    const std::uint32_t high16 = scan_prefixes_.back().base().value() >> 16;
    routable_high16_[high16 >> 6] |= std::uint64_t{1} << (high16 & 63);
  }
  background_salt_ = util::mix64(config_.seed ^ 0xBAC6ULL);
  probe_apex_ = *dns::Name::parse(kProbeDomain);

  // Country sampling weights for the global proxy platform: sub-linear in
  // internet population with multipliers for proxy-rich markets. Computed
  // before service construction because the builders sample from them.
  const std::unordered_map<std::string, double> multiplier = {
      {"ID", 4.0}, {"VN", 3.0}, {"BR", 2.0}, {"RU", 1.8}, {"TH", 1.6},
      {"UA", 1.6}, {"PH", 1.5}, {"TR", 1.4}, {"IN", 0.9}, {"US", 0.9},
      {"CN", 0.02}};
  country_weights_.reserve(countries().size());
  for (const auto& info : countries()) {
    const auto it = multiplier.find(std::string(info.code));
    const double mult = it == multiplier.end() ? 1.0 : it->second;
    country_weights_.push_back(std::pow(info.weight, 0.75) * mult);
  }
  port53_rates_ = {{"ID", 0.55}, {"VN", 0.50}, {"IN", 0.30}, {"PK", 0.17},
                   {"BD", 0.17}, {"TH", 0.12}, {"MY", 0.12}, {"PH", 0.12},
                   {"NG", 0.11}, {"EG", 0.10}, {"IR", 0.14}, {"TR", 0.08},
                   {"BR", 0.09}, {"MX", 0.07}, {"VE", 0.11}};

  // The injector must exist before the service builders run: every recursive
  // backend holds a pointer to it for the upstream-recursion fault channel.
  config_.fault_profile = fault::FaultProfile::from_env(config_.fault_profile);
  fault_injector_ = std::make_unique<fault::FaultInjector>(
      config_.fault_profile, util::mix64(config_.seed ^ 0xFA017ULL));
  network_.set_fault_injector(fault_injector_.get());

  build_universe();
  build_big_providers();
  build_catalogue_services();
  build_bootstrap_and_local();
  build_dnscrypt();
  build_middleboxes();
  build_urls();

  network_.set_background([this](util::Ipv4 addr, std::uint16_t port,
                                 const util::Date& date) {
    return port == dns::kDotPort && background_open_853(addr, date);
  });
}

std::shared_ptr<resolver::RecursiveBackend> World::make_backend(
    std::string label) {
  resolver::RecursiveConfig config;
  config.max_cache_entries = config_.resolver_cache_entries;
  config.cache.negative_ttl_s = config_.resolver_negative_ttl_s;
  config.cache.serve_stale = config_.resolver_serve_stale;
  auto backend = std::make_shared<resolver::RecursiveBackend>(
      universe_, std::move(label), config, fault_injector_.get());
  recursive_backends_.push_back(backend);
  return backend;
}

std::vector<std::vector<cache::ExportedEntry>> World::export_resolver_caches(
    const void* owner) const {
  std::vector<std::vector<cache::ExportedEntry>> caches;
  caches.reserve(recursive_backends_.size());
  for (const auto& backend : recursive_backends_)
    caches.push_back(backend->cache().export_entries(owner));
  return caches;
}

void World::merge_resolver_caches(
    const std::vector<std::vector<cache::ExportedEntry>>& caches) {
  if (caches.size() != recursive_backends_.size())
    throw std::runtime_error(
        "resolver-cache merge: backend count mismatch (journal written "
        "under a different world configuration)");
  for (std::size_t i = 0; i < caches.size(); ++i)
    recursive_backends_[i]->cache().merge_entries(caches[i]);
}

World::ResolverCacheTally World::resolver_cache_tally() const {
  ResolverCacheTally tally;
  for (const auto& backend : recursive_backends_) {
    tally.hits += backend->cache_hits();
    tally.misses += backend->cache_misses();
    tally.stale_served += backend->stale_served();
    tally.upstream_faults += backend->upstream_faults();
    tally.evictions += backend->cache().stats().evictions;
    tally.entries += backend->cache_size();
  }
  return tally;
}

double World::proxy_weight(const CountryInfo& info) const {
  for (std::size_t i = 0; i < countries().size(); ++i)
    if (countries()[i].code == info.code) return country_weights_[i];
  return 0.0;
}

double World::port53_rate(const std::string& country) const {
  const auto it = port53_rates_.find(country);
  return it == port53_rates_.end() ? config_.port53_base_rate : it->second;
}

bool World::background_open_853(util::Ipv4 addr, const util::Date& date) const {
  return background_sweep_853(date).open(addr);
}

World::Background853Sweep World::background_sweep_853(
    const util::Date& date) const {
  // Routable check first (every prefix is a /16), then a stable population
  // plus a slowly churning one (the paper's per-scan fluctuation between 2M
  // and 3M open hosts). The churn window advances every 30 days.
  Background853Sweep sweep;
  sweep.routable_ = &routable_high16_;
  const double d = config_.background_open853_density;
  sweep.stable_salt_ = background_salt_;
  sweep.stable_threshold_ = 750000.0 * d;
  const std::uint64_t window = static_cast<std::uint64_t>(date.to_days() / 30);
  sweep.churn_salt_ = background_salt_ ^ (window * 0x9E3779B9ULL);
  sweep.churn_threshold_ = 500000.0 * d;
  return sweep;
}

// ---------------------------------------------------------------------------
// Universe: probe zone + bootstrap zones for DoH hostnames.
// ---------------------------------------------------------------------------

void World::build_universe() {
  // The study's own domain: any uniquely prefixed name under the apex
  // resolves to one well-known address. Its authoritative servers sit in
  // Beijing and are occasionally slow (extra tail), which is what the Quad9
  // DoH frontend's 2-second forwarding timeout trips over.
  resolver::Zone probe;
  probe.apex = probe_apex_;
  probe.ns_location = net::Location{{39.9, 116.4}, "CN", 4538};
  const util::Ipv4 answer = probe_answer_;
  probe.answer_fn = [answer](const dns::Name& qname, dns::RrType type,
                             const util::Date&) {
    if (type != dns::RrType::kA) return resolver::Answer{};
    return resolver::Answer::a_record(qname, answer, 60);
  };
  probe.extra_tail_probability = config_.probe_zone_tail;
  universe_.add_zone(std::move(probe));

  // Our own service hostnames.
  resolver::Zone own;
  own.apex = *dns::Name::parse("dnsmeasure.net");
  own.ns_location = net::Location{{39.9, 116.4}, "CN", 4538};
  own.answer_fn = [](const dns::Name& qname, dns::RrType type, const util::Date&) {
    if (type != dns::RrType::kA) return resolver::Answer{};
    return resolver::Answer::a_record(qname, addrs::kSelfBuilt, 300);
  };
  own.popular = true;  // the platform's apex stays warm in resolver caches
  universe_.add_zone(std::move(own));

  // Bootstrap zones for every DoH hostname in the catalogue.
  for (const auto& doh : deployments_.doh) {
    const auto tmpl = http::UriTemplate::parse(doh.uri_template);
    if (!tmpl) continue;
    const auto host = dns::Name::parse(tmpl->base().host);
    if (!host) continue;
    resolver::Zone zone;
    zone.apex = *host;
    zone.ns_location = centroid_of(doh.pop_country);
    const std::vector<util::Ipv4> addresses = doh.addresses;
    zone.answer_fn = [addresses](const dns::Name& qname, dns::RrType type,
                                 const util::Date&) {
      resolver::Answer a;
      if (type != dns::RrType::kA) return a;
      for (const auto addr : addresses)
        a.answers.push_back(dns::ResourceRecord::a(qname, addr, 300));
      return a;
    };
    // Bootstrap hostnames are looked up constantly by every DoH client; they
    // are warm in every resolver cache (and the warm path keeps concurrent
    // bootstrap lookups order-independent).
    zone.popular = true;
    universe_.add_zone(std::move(zone));
  }
}

// ---------------------------------------------------------------------------
// Big anycast providers: Cloudflare, Google, Quad9, and the self-built
// resolver used as the study's control.
// ---------------------------------------------------------------------------

void World::build_big_providers() {
  const util::Date issued{2018, 10, 1};
  const util::Date good_until{2019, 12, 15};

  // Cloudflare: Do53 + DoT + DoH on the 1.1.1.1 family; DoH hostnames on
  // dedicated 104.16.x addresses.
  {
    resolver::ResolverServiceConfig cfg;
    cfg.label = "Cloudflare";
    cfg.backend = make_backend("cloudflare");
    cfg.serve_dot = true;
    cfg.serve_doh = true;
    cfg.dot_certificate = tls::make_chain(
        "cloudflare-dns.com", tls::kDigicertCa, issued, good_until,
        {"cloudflare-dns.com", "*.cloudflare-dns.com", "1.1.1.1"});
    cfg.doh_certificate = cfg.dot_certificate;
    cfg.doh.path = "/dns-query";
    cfg.extra_tcp_ports = {80};
    cfg.webpage_body = "<html><title>1.1.1.1 - the free app that makes your "
                       "Internet faster.</title></html>";
    auto service = std::make_shared<resolver::ResolverService>(std::move(cfg));
    // The 1.1.1.1 family is announced from a reduced PoP set (its anycast
    // routing famously misbehaves in some regions), while the DoH addresses
    // ride the full CDN — which is why DoH can beat clear-text DNS from,
    // e.g., India (§4.3 Finding 3.2).
    std::vector<std::string> reduced = anycast_pop_countries();
    std::erase(reduced, "IN");
    const auto legacy_pops = pops_for(service, reduced);
    const auto cdn_pops = pops_for(service, anycast_pop_countries());
    for (const auto addr : {addrs::kCloudflarePrimary, addrs::kCloudflareSecondary})
      network_.bind(net::Binding{addr, legacy_pops, {2017, 1, 1}, {2100, 1, 1}});
    for (const auto addr : {addrs::kCloudflareDohA, addrs::kCloudflareDohB})
      network_.bind(net::Binding{addr, cdn_pops, {2017, 1, 1}, {2100, 1, 1}});
  }

  // Google: Do53 + DoH (no DoT at the time of the study — Table 4's "n/a").
  {
    resolver::ResolverServiceConfig cfg;
    cfg.label = "GooglePublicDNS";
    cfg.backend = make_backend("google");
    cfg.serve_dot = false;
    cfg.serve_doh = true;
    cfg.doh_certificate =
        tls::make_chain("dns.google.com", tls::kGoogleTrustCa, issued, good_until,
                        {"dns.google.com", "*.google.com"});
    cfg.doh.path = "/resolve";
    cfg.extra_tcp_ports = {80};
    cfg.webpage_body = "<html><title>Google Public DNS</title></html>";
    auto service = std::make_shared<resolver::ResolverService>(std::move(cfg));
    const auto pops = pops_for(service, anycast_pop_countries());
    for (const auto addr : {addrs::kGooglePrimary, util::Ipv4{8, 8, 4, 4},
                            addrs::kGoogleDohA, addrs::kGoogleDohB}) {
      network_.bind(net::Binding{addr, pops, {2017, 1, 1}, {2100, 1, 1}});
    }
  }

  // Quad9: Do53 + DoT + DoH, where the DoH frontend forwards to the
  // provider's own Do53 with a tight timeout (Finding 2.4).
  {
    resolver::ResolverServiceConfig cfg;
    cfg.label = "Quad9";
    cfg.backend = make_backend("quad9");
    cfg.serve_dot = true;
    cfg.serve_doh = true;
    cfg.dot_certificate = tls::make_chain("dns.quad9.net", tls::kDigicertCa, issued,
                                          good_until, {"dns.quad9.net", "*.quad9.net"});
    cfg.doh_certificate = cfg.dot_certificate;
    cfg.doh.path = "/dns-query";
    cfg.doh.forward_to_do53 = true;
    cfg.doh.forward_timeout = config_.quad9_forward_timeout;
    cfg.doh.forward_loss_rate = config_.quad9_forward_loss;
    cfg.extra_tcp_ports = {80};
    cfg.webpage_body = "<html><title>Quad9</title></html>";
    auto service = std::make_shared<resolver::ResolverService>(std::move(cfg));
    const auto pops = pops_for(service, anycast_pop_countries());
    network_.bind(net::Binding{util::Ipv4{149, 112, 112, 112}, pops,
                               {2017, 1, 1}, {2100, 1, 1}});
    network_.bind(
        net::Binding{addrs::kQuad9Primary, pops, {2017, 1, 1}, {2100, 1, 1}});
  }

  // Self-built resolver (single PoP, Beijing) — Do53 + DoT + DoH.
  {
    resolver::ResolverServiceConfig cfg;
    cfg.label = "self-built";
    cfg.backend = make_backend("self-built");
    cfg.serve_dot = true;
    cfg.serve_doh = true;
    cfg.dot_certificate = tls::make_chain(kSelfBuiltDotName, tls::kLetsEncryptCa,
                                          issued, good_until,
                                          {kSelfBuiltDotName, "doh.dnsmeasure.net"});
    cfg.doh_certificate = cfg.dot_certificate;
    cfg.doh.path = "/dns-query";
    auto service = std::make_shared<resolver::ResolverService>(std::move(cfg));
    std::vector<net::Pop> pops;
    net::Pop pop;
    // Hosted on a US-East cloud machine; its recursions to the (Beijing)
    // probe-zone nameservers dominate the Table 7 baselines.
    pop.location = net::Location{{38.9, -77.0}, "US", 14618};
    pop.service = service;
    pops.push_back(pop);
    network_.bind(net::Binding{addrs::kSelfBuilt, pops, {2017, 1, 1}, {2100, 1, 1}});
  }
}

// ---------------------------------------------------------------------------
// The catalogue: every DoT deployment plus non-big DoH deployments.
// ---------------------------------------------------------------------------

void World::build_catalogue_services() {
  // One service per provider; unicast binding per deployed address.
  std::unordered_map<std::string, std::shared_ptr<resolver::ResolverService>> services;

  for (const auto& d : deployments_.dot) {
    // The big providers' primaries were bound with anycast PoPs already.
    const bool big_primary =
        (d.provider == "cloudflare-dns.com" &&
         (d.address == addrs::kCloudflarePrimary ||
          d.address == addrs::kCloudflareSecondary)) ||
        (d.provider == "quad9.net" &&
         (d.address == addrs::kQuad9Primary ||
          d.address == util::Ipv4{149, 112, 112, 112}));
    if (big_primary) continue;

    auto it = services.find(d.provider);
    if (it == services.end()) {
      resolver::ResolverServiceConfig cfg;
      cfg.label = d.provider;
      if (d.fixed_answer) {
        cfg.backend = std::make_shared<resolver::FixedAnswerBackend>(
            addrs::kDnsfilterFixedAnswer, d.provider);
      } else {
        cfg.backend = make_backend(d.provider);
      }
      cfg.serve_do53_udp = false;  // DoT-only small deployments
      cfg.serve_do53_tcp = false;
      cfg.serve_dot = true;
      cfg.dot_certificate = chain_for(d);
      it = services.emplace(d.provider, std::make_shared<resolver::ResolverService>(
                                            std::move(cfg)))
               .first;
    }
    net::Pop pop;
    pop.location = centroid_of(d.country);
    pop.service = it->second;
    pop.extra_processing = sim::Millis{0.5};
    network_.bind(net::Binding{d.address, {pop}, d.active_from, d.active_to});
  }

  // Non-big DoH deployments (cloudflare/google/quad9 handled above).
  for (const auto& doh : deployments_.doh) {
    if (doh.provider == "cloudflare" || doh.provider == "google" ||
        doh.provider == "quad9")
      continue;
    const auto tmpl = http::UriTemplate::parse(doh.uri_template);
    if (!tmpl) continue;
    resolver::ResolverServiceConfig cfg;
    cfg.label = "doh:" + doh.provider;
    cfg.backend = make_backend(doh.provider);
    cfg.serve_do53_udp = false;
    cfg.serve_do53_tcp = false;
    cfg.serve_doh = true;
    cfg.doh.path = tmpl->base().path;
    cfg.doh_certificate =
        tls::make_chain(tmpl->base().host, tls::kLetsEncryptCa,
                        util::Date{2018, 12, 1}, util::Date{2019, 11, 1},
                        {tmpl->base().host});
    auto service = std::make_shared<resolver::ResolverService>(std::move(cfg));
    net::Pop pop;
    pop.location = centroid_of(doh.pop_country);
    pop.service = service;
    for (const auto addr : doh.addresses)
      network_.bind(net::Binding{addr, {pop}, {2017, 6, 1}, {2100, 1, 1}});
  }
}

// ---------------------------------------------------------------------------
// ISP bootstrap resolvers and local (non-open) resolvers.
// ---------------------------------------------------------------------------

void World::build_bootstrap_and_local() {
  util::Rng rng(util::mix64(config_.seed ^ 0x150BULL));

  std::uint8_t index = 0;
  for (const auto& info : countries()) {
    resolver::ResolverServiceConfig cfg;
    cfg.label = "isp-" + std::string(info.code);
    cfg.backend = make_backend(cfg.label);
    auto service = std::make_shared<resolver::ResolverService>(std::move(cfg));
    net::Pop pop;
    pop.location = centroid_of(std::string(info.code));
    pop.service = service;
    const util::Ipv4 addr{100, 64, index++, 1};
    network_.bind(net::Binding{addr, {pop}, {2016, 1, 1}, {2100, 1, 1}});
    bootstrap_[std::string(info.code)] = addr;
    if (index == 255) break;
  }

  // ISP local resolvers (not in the scan space, not open to the world):
  // a handful expose DoT, most do not — the §3.1 RIPE-Atlas-style finding.
  for (std::size_t i = 0; i < config_.local_resolver_count; ++i) {
    const auto& info = countries()[rng.weighted(country_weights_)];
    LocalResolver lr;
    lr.country = std::string(info.code);
    lr.asn = asn_for(info.code, static_cast<std::uint32_t>(rng.below(20)));
    lr.dot_enabled = rng.chance(config_.local_resolver_dot_rate * 1.0);
    lr.address = util::Ipv4{100, 66, static_cast<std::uint8_t>(i / 250),
                            static_cast<std::uint8_t>(1 + i % 250)};

    resolver::ResolverServiceConfig cfg;
    cfg.label = "local-" + lr.country + "-" + std::to_string(i);
    cfg.backend = make_backend(cfg.label);
    cfg.serve_dot = lr.dot_enabled;
    if (lr.dot_enabled) {
      cfg.dot_certificate =
          tls::make_chain("dns." + lr.country + std::to_string(i) + ".example",
                          tls::kLetsEncryptCa, util::Date{2019, 1, 1},
                          util::Date{2019, 12, 1});
    }
    auto service = std::make_shared<resolver::ResolverService>(std::move(cfg));
    net::Pop pop;
    pop.location = centroid_of(lr.country);
    pop.service = service;
    network_.bind(net::Binding{lr.address, {pop}, {2016, 1, 1}, {2100, 1, 1}});
    local_resolvers_.push_back(lr);
  }
}

// ---------------------------------------------------------------------------
// DNSCrypt services (OpenDNS since 2011, Yandex since 2016 — Appendix A).
// ---------------------------------------------------------------------------

void World::build_dnscrypt() {
  const struct {
    const char* provider;
    util::Ipv4 address;
    const char* country;
  } deployments[] = {
      {"2.dnscrypt-cert.opendns.com", util::Ipv4{208, 67, 220, 220}, "US"},
      {"2.dnscrypt-cert.opendns.com", util::Ipv4{208, 67, 222, 222}, "US"},
      {"2.dnscrypt-cert.browser.yandex.net", util::Ipv4{77, 88, 8, 88}, "RU"},
  };
  std::unordered_map<std::string, std::shared_ptr<dnscrypt::DnscryptService>>
      services;
  for (const auto& row : deployments) {
    auto it = services.find(row.provider);
    if (it == services.end()) {
      dnscrypt::DnscryptServiceConfig cfg;
      cfg.label = std::string("dnscrypt:") + row.provider;
      cfg.provider_name = row.provider;
      cfg.backend = make_backend(cfg.label);
      cfg.resolver_secret_key = util::mix64(util::fnv1a(row.provider) ^ 0x5ECULL);
      it = services
               .emplace(row.provider,
                        std::make_shared<dnscrypt::DnscryptService>(std::move(cfg)))
               .first;
    }
    net::Pop pop;
    pop.location = centroid_of(row.country);
    pop.service = it->second;
    network_.bind(net::Binding{row.address, {pop}, {2011, 12, 6}, {2100, 1, 1}});
    dnscrypt_.push_back(DnscryptDeployment{row.provider, row.address, row.country});
  }

  // The self-built resolver also runs an experimental DoQ endpoint on the
  // draft's dedicated port 784 (Table 1 lists the protocol as unimplemented
  // in the wild; the study's own infrastructure prototypes it).
  doq::DoqServiceConfig doq_cfg;
  doq_cfg.label = "self-built-doq";
  doq_cfg.backend = make_backend(doq_cfg.label);
  doq_cfg.certificate =
      tls::make_chain(kDoqHostname, tls::kLetsEncryptCa, util::Date{2018, 10, 1},
                      util::Date{2019, 12, 15}, {kDoqHostname});
  auto doq_service = std::make_shared<doq::DoqService>(std::move(doq_cfg));
  net::Pop doq_pop;
  doq_pop.location = net::Location{{38.9, -77.0}, "US", 14618};
  doq_pop.service = doq_service;
  network_.bind(net::Binding{doq_address_, {doq_pop}, {2019, 1, 1}, {2100, 1, 1}});
}

// ---------------------------------------------------------------------------
// Client-path middleboxes.
// ---------------------------------------------------------------------------

void World::build_middleboxes() {
  const std::vector<util::Ipv4> prominent = {
      addrs::kCloudflarePrimary, addrs::kCloudflareSecondary, addrs::kGooglePrimary,
      util::Ipv4{8, 8, 4, 4}};
  port53_box_ = std::make_unique<Port53FilterBox>(prominent);
  cn_port53_box_ = std::make_unique<Port53FilterBox>(
      std::vector<util::Ipv4>{addrs::kGooglePrimary, util::Ipv4{8, 8, 4, 4}});
  spoofer_box_ =
      std::make_unique<Dns53SpooferBox>(prominent, util::Ipv4{31, 13, 64, 7});
  censor_box_ = std::make_unique<CensorBox>(
      std::vector<util::Ipv4>{addrs::kGoogleDohA, addrs::kGoogleDohB});
  cf_blackhole_box_ = std::make_unique<BlackholeBox>(
      std::vector<util::Ipv4>{addrs::kCloudflarePrimary, addrs::kCloudflareSecondary},
      "cn-cf-blackhole");

  // Conflicting-device archetypes (Table 5): each box hijacks 1.1.1.1 into a
  // device exposing its characteristic ports and webpage.
  const auto add_device = [&](const char* label,
                              std::vector<std::uint16_t> ports,
                              const char* webpage) {
    auto device =
        std::make_shared<DeviceService>(label, std::move(ports), webpage);
    conflict_boxes_.push_back(std::make_unique<AddressConflictBox>(
        addrs::kCloudflarePrimary, std::move(device)));
  };
  add_device("MikroTik RouterOS (crypto-hijacked)",
             {22, 23, 53, 80, 179, 443},
             "<html>RouterOS router configuration page"
             "<script src=\"/coinhive.min.js\"></script></html>");
  add_device("Powerbox Gvt Modem", {23, 53, 80, 443},
             "<html><title>Powerbox Gvt Modem</title></html>");
  add_device("Cisco Wireless LAN Controller", {53, 80, 443},
             "<html><title>WLC Virtual Interface</title></html>");
  add_device("Campus authentication portal", {80, 161, 443},
             "<html><title>Campus Network Login</title></html>");
  add_device("DHCP relay appliance", {53, 67}, "");
  add_device("NTP appliance", {123}, "");
  add_device("SMB NAS", {139, 161}, "");

  // Routers and modems dominate the conflicting-device population (Table 5's
  // port mix); appliances are rarer. Fixed at construction so per-vantage
  // sampling never rebuilds the weight vector.
  static constexpr double kDeviceWeights[] = {3.0, 2.5, 2.0, 1.0, 0.7, 0.4, 0.4};
  conflict_weights_.assign(conflict_boxes_.size(), 1.0);
  for (std::size_t i = 0;
       i < conflict_weights_.size() && i < std::size(kDeviceWeights); ++i)
    conflict_weights_[i] = kDeviceWeights[i];

  // TLS interception archetypes (Table 6). The last two intercept 443 only.
  intercept_boxes_.push_back(std::make_unique<TlsInterceptBox>(
      "SonicWall Firewall DPI-SSL", "SonicWall NSA", true));
  intercept_boxes_.push_back(
      std::make_unique<TlsInterceptBox>("None", "unbranded DPI middlebox", true));
  intercept_boxes_.push_back(
      std::make_unique<TlsInterceptBox>("Sample CA 2", "DPI gateway", true));
  intercept_boxes_.push_back(std::make_unique<TlsInterceptBox>(
      "NThmYzgyYT", "proxy appliance", false));
  intercept_boxes_.push_back(std::make_unique<TlsInterceptBox>(
      "c41618c762bf890f", "SSL inspector", false));
}

// ---------------------------------------------------------------------------
// URL dataset.
// ---------------------------------------------------------------------------

void World::build_urls() {
  util::Rng rng(util::mix64(config_.seed ^ 0x0417ULL));

  // Valid DoH endpoints appear under several crawled URL variants.
  for (const auto& doh : deployments_.doh) {
    const auto tmpl = http::UriTemplate::parse(doh.uri_template);
    if (!tmpl) continue;
    const auto& base = tmpl->base();
    urls_.push_back(base.to_string());
    urls_.push_back("https://" + base.host + ":443" + base.path);
    if (rng.chance(0.7)) urls_.push_back(base.to_string());  // crawl duplicates
    if (rng.chance(0.4))
      urls_.push_back("https://" + base.host + base.path);
  }

  // Decoys: DoH-looking paths on hosts that run no DoH service.
  static constexpr const char* kDecoyPaths[] = {"/dns-query", "/resolve"};
  for (int i = 0; i < 25; ++i) {
    char buf[96];
    std::snprintf(buf, sizeof(buf), "https://cdn%d.website-host%d.com%s", i,
                  i * 7 % 13, kDecoyPaths[i % 2]);
    urls_.push_back(buf);
  }

  // Crawler noise.
  static constexpr const char* kWords[] = {"news",  "shop",  "mail", "img",
                                           "video", "blog",  "api",  "cdn",
                                           "files", "login", "m",    "static"};
  for (std::size_t i = 0; i < config_.url_noise_count; ++i) {
    char buf[128];
    std::snprintf(buf, sizeof(buf), "%s://%s.site%llu.%s/%s/%llu",
                  rng.chance(0.85) ? "https" : "http",
                  kWords[rng.below(std::size(kWords))],
                  static_cast<unsigned long long>(rng.below(400000)),
                  rng.chance(0.5) ? "com" : "net",
                  kWords[rng.below(std::size(kWords))],
                  static_cast<unsigned long long>(rng.below(1000000)));
    urls_.push_back(buf);
  }
  rng.shuffle(urls_);
}

// ---------------------------------------------------------------------------
// Vantage sampling.
// ---------------------------------------------------------------------------

net::Location World::location_in(const CountryInfo& info, util::Rng& rng,
                                 std::uint32_t asn) const {
  net::Location loc;
  loc.geo.lat = std::clamp(info.geo.lat + rng.normal(0.0, 2.5), -85.0, 85.0);
  loc.geo.lon = info.geo.lon + rng.normal(0.0, 2.5);
  loc.country = std::string(info.code);
  loc.asn = asn;
  return loc;
}

Vantage World::sample_global_vantage(util::Rng& rng) const {
  const auto& info = countries()[rng.weighted(country_weights_)];
  Vantage v;
  v.country = std::string(info.code);
  const auto asn_buckets = static_cast<std::uint32_t>(
      std::clamp(3.0 + info.weight / 8.0, 3.0, 40.0));
  v.asn = asn_for(info.code, static_cast<std::uint32_t>(rng.below(asn_buckets)));
  v.context.location = location_in(info, rng, v.asn);
  v.context.link = default_link_profile(info.tier);
  v.context.link.last_mile = v.context.link.last_mile * rng.uniform(0.7, 1.5);
  // Some access networks deprioritize traffic to the dedicated DoT port,
  // concentrated in a few markets (Fig. 9's above-average DoT overheads).
  static const std::unordered_map<std::string, double> kDotPenaltyMedian = {
      {"ID", 28.0}, {"VN", 14.0}, {"PH", 10.0}, {"NG", 12.0},
      {"KH", 15.0}, {"BD", 10.0}};
  if (const auto it = kDotPenaltyMedian.find(v.country);
      it != kDotPenaltyMedian.end() && rng.chance(0.75)) {
    v.context.link.dot_port_penalty = sim::Millis{rng.lognormal(it->second, 0.4)};
  }
  v.address = util::Ipv4{static_cast<std::uint32_t>(
      0x62000000u | (rng.next() & 0x01FFFFFFu))};  // synthetic residential

  // Path assembly, client side outward.
  if (v.country == "CN") {
    v.context.path.push_back(censor_box_.get());
    if (rng.chance(config_.cn_cf_blackhole_rate)) {
      v.cn_cf_blackholed = true;
      v.context.path.push_back(cf_blackhole_box_.get());
    }
  }
  if (rng.chance(config_.conflict_rate)) {
    v.conflict_1111 = true;
    if (rng.chance(config_.conflict_blackhole_share)) {
      v.device_label.clear();  // address blackholed, no ports open
      v.context.path.push_back(cf_blackhole_box_.get());
    } else {
      const auto& box = conflict_boxes_[rng.weighted(conflict_weights_)];
      v.device_label = box->device().label();
      v.context.path.push_back(box.get());
    }
  }
  if (!v.conflict_1111 && rng.chance(port53_rate(v.country))) {
    v.port53_filtered = true;
    v.context.path.push_back(port53_box_.get());
  }
  if (rng.chance(config_.spoofer_rate)) {
    v.behind_spoofer = true;
    v.context.path.push_back(spoofer_box_.get());
  }
  if (rng.chance(config_.intercept_rate)) {
    v.tls_intercepted = true;
    const auto& box = intercept_boxes_[rng.below(intercept_boxes_.size())];
    v.intercept_ca = box->interceptor().ca_cn();
    v.intercept_853 = box->intercepts_853();
    v.context.path.push_back(box.get());
  }
  return v;
}

Vantage World::sample_cn_vantage(util::Rng& rng) const {
  static const std::uint32_t kZhimaAses[] = {4134, 4837, 4808, 9808, 4812};
  const auto& info = *find_country("CN");
  Vantage v;
  v.country = "CN";
  v.asn = kZhimaAses[rng.below(std::size(kZhimaAses))];
  v.context.location = location_in(info, rng, v.asn);
  v.context.link = default_link_profile(info.tier);
  v.context.link.last_mile = v.context.link.last_mile * rng.uniform(0.7, 1.5);
  v.address = util::Ipv4{static_cast<std::uint32_t>(
      0x72000000u | (rng.next() & 0x00FFFFFFu))};

  v.context.path.push_back(censor_box_.get());
  if (rng.chance(config_.cn_cf_blackhole_rate)) {
    v.cn_cf_blackholed = true;
    v.context.path.push_back(cf_blackhole_box_.get());
  }
  if (rng.chance(config_.cn_port53_rate)) {
    v.port53_filtered = true;
    v.context.path.push_back(cn_port53_box_.get());
  }
  return v;
}

Vantage World::make_clean_vantage(std::string_view country) const {
  const CountryInfo* info = find_country(country);
  Vantage v;
  v.country = std::string(country);
  v.asn = asn_for(country, 0);
  v.context.location.geo = info != nullptr ? info->geo : net::GeoPoint{};
  v.context.location.country = v.country;
  v.context.location.asn = v.asn;
  v.context.link.last_mile = sim::Millis{1.5};  // datacenter-grade
  v.context.link.jitter_sigma = 0.05;
  v.context.link.loss_rate = 0.0005;
  v.address = util::Ipv4{static_cast<std::uint32_t>(0x52000000u |
                                                    util::fnv1a(country) % 0xFFFFFF)};
  return v;
}

std::array<char, 17> probe_label(std::uint64_t value) noexcept {
  static constexpr char kHex[] = "0123456789abcdef";
  std::array<char, 17> label;
  label[0] = 'p';
  for (std::size_t i = label.size() - 1; i > 0; --i, value >>= 4)
    label[i] = kHex[value & 0xF];
  return label;
}

dns::Name World::unique_probe_name(util::Rng& rng) const {
  dns::Name name;
  unique_probe_name_into(rng, name);
  return name;
}

void World::unique_probe_name_into(util::Rng& rng, dns::Name& out) const {
  const auto label = probe_label(rng.next());
  if (!out.assign_prefixed(std::string_view(label.data(), label.size()), probe_apex_))
    out = probe_apex_;
}

util::Ipv4 World::bootstrap_resolver(const std::string& country) const {
  const auto it = bootstrap_.find(country);
  if (it != bootstrap_.end()) return it->second;
  return bootstrap_.at("US");
}

}  // namespace encdns::world
