#include "world/world.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <unordered_set>

#include "util/stats.hpp"
#include "world/countries.hpp"
#include "world/providers.hpp"

namespace encdns::world {
namespace {

const util::Date kFeb{2019, 2, 1};
const util::Date kMay{2019, 5, 1};

World& shared_world() {
  static World world;
  return world;
}

TEST(Countries, TableSaneAndLarge) {
  EXPECT_GE(countries().size(), 165u);  // the paper saw clients in 166 countries
  std::unordered_set<std::string> codes;
  for (const auto& info : countries()) {
    EXPECT_EQ(info.code.size(), 2u);
    EXPECT_TRUE(codes.insert(std::string(info.code)).second) << info.code;
    EXPECT_GE(info.geo.lat, -90.0);
    EXPECT_LE(info.geo.lat, 90.0);
    EXPECT_GE(info.geo.lon, -180.0);
    EXPECT_LE(info.geo.lon, 180.0);
    EXPECT_GT(info.weight, 0.0);
  }
  EXPECT_NE(find_country("CN"), nullptr);
  EXPECT_NE(find_country("ID"), nullptr);
  EXPECT_EQ(find_country("XX"), nullptr);
}

TEST(Countries, LinkTiersOrdered) {
  const auto excellent = default_link_profile(LinkTier::kExcellent);
  const auto poor = default_link_profile(LinkTier::kPoor);
  EXPECT_LT(excellent.last_mile.value, poor.last_mile.value);
  EXPECT_LT(excellent.loss_rate, poor.loss_rate);
}

TEST(Countries, AsnStable) {
  EXPECT_EQ(asn_for("US", 3), asn_for("US", 3));
  EXPECT_NE(asn_for("US", 3), asn_for("US", 4));
  EXPECT_NE(asn_for("US", 0), asn_for("DE", 0));
}

TEST(Deployments, Table2CountryQuotas) {
  const auto deployments = make_deployments(2019);
  util::Counter feb, may;
  for (const auto& d : deployments.dot) {
    if (kFeb.in_window(d.active_from, d.active_to)) feb.add(d.country);
    if (kMay.in_window(d.active_from, d.active_to)) may.add(d.country);
  }
  // Paper Table 2 values, exact by construction.
  EXPECT_EQ(feb.get("IE"), 456);
  EXPECT_EQ(may.get("IE"), 951);
  EXPECT_EQ(feb.get("CN"), 257);
  EXPECT_EQ(may.get("CN"), 40);
  EXPECT_EQ(feb.get("US"), 100);
  EXPECT_EQ(may.get("US"), 531);
  EXPECT_EQ(feb.get("DE"), 71);
  EXPECT_EQ(may.get("DE"), 86);
  EXPECT_EQ(feb.get("FR"), 59);
  EXPECT_EQ(may.get("FR"), 56);
  EXPECT_EQ(feb.get("JP"), 34);
  EXPECT_EQ(may.get("JP"), 27);
  EXPECT_EQ(feb.get("BR"), 22);
  EXPECT_EQ(may.get("BR"), 49);
  EXPECT_EQ(feb.get("RU"), 17);
  EXPECT_EQ(may.get("RU"), 40);
  // >1.5K resolvers per scan at the start, ~2K at the end.
  EXPECT_GT(feb.total(), 1300);
  EXPECT_GT(may.total(), 1900);
}

TEST(Deployments, DefectMixMatchesFinding12) {
  const auto deployments = make_deployments(2019);
  int expired = 0, expired_2018 = 0, self_signed = 0, fortigate = 0, bad_chain = 0;
  for (const auto& d : deployments.dot) {
    if (!kMay.in_window(d.active_from, d.active_to)) continue;
    switch (d.cert_kind) {
      case CertKind::kExpired: ++expired; break;
      case CertKind::kExpiredLong:
        ++expired;
        ++expired_2018;
        break;
      case CertKind::kSelfSigned: ++self_signed; break;
      case CertKind::kFortigateDefault: ++fortigate; break;
      case CertKind::kBadChain: ++bad_chain; break;
      case CertKind::kValid: break;
    }
  }
  // Paper: 122 invalid resolvers = 27 expired (9 from 2018) + 67 self-signed
  // (47 FortiGate) + 28 invalid chains.
  EXPECT_NEAR(expired, 27, 3);
  EXPECT_EQ(expired_2018, 9);
  EXPECT_NEAR(self_signed + fortigate, 67, 3);
  EXPECT_EQ(fortigate, 47);
  EXPECT_NEAR(bad_chain, 28, 3);
}

TEST(Deployments, SeventeenDohResolvers) {
  const auto deployments = make_deployments(2019);
  EXPECT_EQ(deployments.doh.size(), 17u);
  int beyond_list = 0, forwarding = 0;
  for (const auto& d : deployments.doh) {
    if (!d.in_public_list) ++beyond_list;
    if (d.forwarding_frontend) ++forwarding;
    EXPECT_FALSE(d.addresses.empty());
  }
  EXPECT_EQ(beyond_list, 2);  // rubyfish + 233py
  EXPECT_EQ(forwarding, 1);   // Quad9
}

TEST(Deployments, AddressesUniqueAndRoutable) {
  const auto deployments = make_deployments(2019);
  std::vector<util::Cidr> prefixes;
  for (const auto& text : routable_prefixes())
    prefixes.push_back(*util::Cidr::parse(text));
  std::unordered_set<std::uint32_t> seen;
  for (const auto& d : deployments.dot) {
    EXPECT_TRUE(seen.insert(d.address.value()).second)
        << "duplicate " << d.address.to_string();
    bool routable = false;
    for (const auto& p : prefixes) routable |= p.contains(d.address);
    EXPECT_TRUE(routable) << d.address.to_string();
  }
}

TEST(Deployments, DeterministicForSeed) {
  const auto a = make_deployments(7);
  const auto b = make_deployments(7);
  ASSERT_EQ(a.dot.size(), b.dot.size());
  for (std::size_t i = 0; i < a.dot.size(); ++i) {
    EXPECT_EQ(a.dot[i].address, b.dot[i].address);
    EXPECT_EQ(a.dot[i].provider, b.dot[i].provider);
  }
}

TEST(WorldModel, SpecialAddressesExist) {
  World& world = shared_world();
  const auto* cf = world.network().route(addrs::kCloudflarePrimary,
                                         net::Location{{39, -98}, "US", 1}, kFeb);
  ASSERT_NE(cf, nullptr);
  EXPECT_NE(world.network().route(addrs::kGooglePrimary,
                                  net::Location{{39, -98}, "US", 1}, kFeb),
            nullptr);
  EXPECT_NE(world.network().route(addrs::kQuad9Primary,
                                  net::Location{{39, -98}, "US", 1}, kFeb),
            nullptr);
  EXPECT_NE(world.network().route(addrs::kSelfBuilt,
                                  net::Location{{39, -98}, "US", 1}, kFeb),
            nullptr);
}

TEST(WorldModel, AnycastPicksNearbyPop) {
  World& world = shared_world();
  const auto* from_eu = world.network().route(
      addrs::kCloudflarePrimary, net::Location{{48.0, 10.0}, "DE", 1}, kFeb);
  ASSERT_NE(from_eu, nullptr);
  const double km =
      net::great_circle_km(net::GeoPoint{48.0, 10.0}, from_eu->location.geo);
  EXPECT_LT(km, 2000.0);
}

TEST(WorldModel, BackgroundPopulationDensity) {
  World& world = shared_world();
  util::Rng rng(5);
  int open = 0;
  const int samples = 40000;
  const auto& prefixes = world.scan_prefixes();
  for (int i = 0; i < samples; ++i) {
    const auto& prefix = prefixes[rng.below(prefixes.size())];
    const util::Ipv4 addr = prefix.at(rng.below(prefix.size()));
    if (world.background_open_853(addr, kFeb)) ++open;
  }
  const double density = static_cast<double>(open) / samples;
  EXPECT_GT(density, 0.003);
  EXPECT_LT(density, 0.03);
  // Stable across calls for the same date.
  const util::Ipv4 probe = prefixes[0].at(12345);
  EXPECT_EQ(world.background_open_853(probe, kFeb),
            world.background_open_853(probe, kFeb));
  // Outside the routable space: never open.
  EXPECT_FALSE(world.background_open_853(util::Ipv4{192, 0, 2, 1}, kFeb));
}

TEST(WorldModel, GlobalVantageRates) {
  World& world = shared_world();
  util::Rng rng(77);
  int conflicts = 0, intercepts = 0, port53 = 0;
  std::unordered_set<std::string> seen_countries;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const auto v = world.sample_global_vantage(rng);
    seen_countries.insert(v.country);
    if (v.conflict_1111) ++conflicts;
    if (v.tls_intercepted) ++intercepts;
    if (v.port53_filtered) ++port53;
  }
  EXPECT_NEAR(conflicts / static_cast<double>(n), world.config().conflict_rate,
              0.004);
  EXPECT_NEAR(intercepts / static_cast<double>(n), world.config().intercept_rate,
              0.001);
  EXPECT_GT(port53 / static_cast<double>(n), 0.08);
  EXPECT_LT(port53 / static_cast<double>(n), 0.25);
  EXPECT_GT(seen_countries.size(), 120u);  // broad geographic coverage
}

TEST(WorldModel, CnVantageProperties) {
  World& world = shared_world();
  util::Rng rng(78);
  std::unordered_set<std::uint32_t> ases;
  int blackholed = 0;
  const int n = 5000;
  for (int i = 0; i < n; ++i) {
    const auto v = world.sample_cn_vantage(rng);
    EXPECT_EQ(v.country, "CN");
    EXPECT_FALSE(v.context.path.empty());  // the censor is always in path
    ases.insert(v.asn);
    if (v.cn_cf_blackholed) ++blackholed;
  }
  EXPECT_EQ(ases.size(), 5u);  // the platform spans exactly 5 ASes
  EXPECT_NEAR(blackholed / static_cast<double>(n),
              world.config().cn_cf_blackhole_rate, 0.02);
}

TEST(WorldModel, UniqueProbeNamesDiffer) {
  World& world = shared_world();
  util::Rng rng(9);
  std::unordered_set<std::string> names;
  for (int i = 0; i < 1000; ++i) {
    const auto name = world.unique_probe_name(rng);
    EXPECT_TRUE(name.is_subdomain_of(world.probe_apex()));
    EXPECT_TRUE(names.insert(name.canonical()).second);
  }
}

TEST(WorldModel, ProbeLabelIsPFollowedBySixteenLowercaseHexDigits) {
  const auto text = [](std::uint64_t value) {
    const auto label = probe_label(value);
    return std::string(label.data(), label.size());
  };
  EXPECT_EQ(text(0), "p0000000000000000");
  EXPECT_EQ(text(UINT64_MAX), "pffffffffffffffff");
  EXPECT_EQ(text(0x00c0ffee1234abcdULL), "p00c0ffee1234abcd");
  // The printf form it replaces, over arbitrary draws.
  util::Rng rng(2019);
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t value = rng.next() >> rng.below(64);
    char reference[20];
    std::snprintf(reference, sizeof(reference), "p%016llx",
                  static_cast<unsigned long long>(value));
    EXPECT_EQ(text(value), reference);
  }
}

TEST(WorldModel, ProbeNamesPrefixOneDrawsLabelToTheApex) {
  World& world = shared_world();
  util::Rng rng(9), draws(9), into_rng(9);
  dns::Name into = *dns::Name::parse("stale.scratch.example");
  for (int i = 0; i < 100; ++i) {
    const auto label = probe_label(draws.next());
    const dns::Name name = world.unique_probe_name(rng);
    EXPECT_EQ(name.to_string(), std::string(label.data(), label.size()) + "." +
                                    world.probe_apex().to_string());
    world.unique_probe_name_into(into_rng, into);
    EXPECT_EQ(into.wire_labels(), name.wire_labels());
  }
}

TEST(WorldModel, UrlDatasetContainsDohAndNoise) {
  World& world = shared_world();
  const auto& urls = world.url_dataset();
  EXPECT_GT(urls.size(), 10000u);
  int doh_paths = 0;
  bool has_rubyfish = false;
  for (const auto& url : urls) {
    if (url.find("/dns-query") != std::string::npos ||
        url.find("/resolve") != std::string::npos ||
        url.find("/doh") != std::string::npos)
      ++doh_paths;
    has_rubyfish |= url.find("rubyfish") != std::string::npos;
  }
  EXPECT_GT(doh_paths, 40);
  EXPECT_LT(doh_paths, 200);
  EXPECT_TRUE(has_rubyfish);
}

TEST(WorldModel, LocalResolversMostlyWithoutDot) {
  World& world = shared_world();
  int dot = 0;
  for (const auto& lr : world.local_resolvers())
    if (lr.dot_enabled) ++dot;
  EXPECT_LT(dot, static_cast<int>(world.local_resolvers().size() / 20));
}

TEST(WorldModel, BootstrapResolverPerCountry) {
  World& world = shared_world();
  const auto us = world.bootstrap_resolver("US");
  const auto de = world.bootstrap_resolver("DE");
  EXPECT_NE(us, de);
  // Unknown country falls back gracefully.
  EXPECT_EQ(world.bootstrap_resolver("??"), world.bootstrap_resolver("US"));
}

}  // namespace
}  // namespace encdns::world
