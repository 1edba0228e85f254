// Differential tests for nearest-PoP routing (DESIGN.md §7): Network::route
// skips asin/sqrt for PoPs whose haversine term cannot beat the running best
// and reuses per-PoP cos(latitude) computed at bind(). It must pick exactly
// the PoP a reference copy of the full-haversine scan picks — the strictly
// nearest, ties to the first in binding order — including equidistant PoPs,
// expired windows and antipodal points. The anchored geo helpers must also
// reproduce the reference distance bit for bit.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "net/geo.hpp"
#include "net/network.hpp"
#include "net/service.hpp"
#include "util/rng.hpp"

namespace encdns::net {
namespace {

/// The haversine exactly as great_circle_km computed it before anchors.
double reference_km(const GeoPoint& a, const GeoPoint& b) {
  constexpr double kDegToRad = 3.14159265358979323846 / 180.0;
  const double lat1 = a.lat * kDegToRad;
  const double lat2 = b.lat * kDegToRad;
  const double dlat = (b.lat - a.lat) * kDegToRad;
  const double dlon = (b.lon - a.lon) * kDegToRad;
  const double s = std::sin(dlat / 2.0);
  const double t = std::sin(dlon / 2.0);
  const double h = s * s + std::cos(lat1) * std::cos(lat2) * t * t;
  return 2.0 * 6371.0 * std::asin(std::sqrt(std::min(1.0, h)));
}

/// The full scan: every PoP of every active binding, strict `<` on km.
const Pop* reference_route(const std::vector<Binding>& bindings,
                           const Location& from, const util::Date& date) {
  const Pop* best = nullptr;
  double best_km = std::numeric_limits<double>::max();
  for (const auto& binding : bindings) {
    if (!date.in_window(binding.active_from, binding.active_to)) continue;
    for (const auto& pop : binding.pops) {
      const double km = reference_km(from.geo, pop.location.geo);
      if (km < best_km) {
        best_km = km;
        best = &pop;
      }
    }
  }
  return best;
}

class NullService final : public Service {
 public:
  [[nodiscard]] std::string label() const override { return "null"; }
  [[nodiscard]] bool accepts(std::uint16_t, Transport) const override { return true; }
  [[nodiscard]] WireReply handle(const WireRequest&) override { return WireReply::none(); }
};

GeoPoint random_point(util::Rng& rng) {
  return {rng.uniform(-90.0, 90.0), rng.uniform(-180.0, 180.0)};
}

/// PoPs are told apart by a unique extra_processing value: Network copies
/// the bindings, so pointers differ while identities must match.
double id_of(const Pop* pop) { return pop == nullptr ? -1.0 : pop->extra_processing.value; }

TEST(RouteDifferential, MatchesFullHaversineScan) {
  const auto service = std::make_shared<NullService>();
  const util::Date day{2019, 3, 10};
  util::Rng rng(2019);
  for (int trial = 0; trial < 400; ++trial) {
    const util::Ipv4 addr{static_cast<std::uint32_t>(trial + 1)};
    std::vector<Binding> bindings(static_cast<std::size_t>(rng.range(1, 4)));
    double next_id = 0.0;
    for (auto& binding : bindings) {
      binding.addr = addr;
      if (rng.chance(0.3)) binding.active_to = {2019, 1, 1};  // expired
      const GeoPoint centre = random_point(rng);
      const auto pops = rng.range(1, 12);
      for (std::int64_t i = 0; i < pops; ++i) {
        GeoPoint at = random_point(rng);
        switch (rng.below(5)) {
          case 0:  // a duplicate of an earlier PoP: an exact tie
            if (!binding.pops.empty())
              at = binding.pops[rng.below(binding.pops.size())].location.geo;
            break;
          case 1:  // clustered near the binding's centre
            at = {std::clamp(centre.lat + rng.uniform(-0.01, 0.01), -90.0, 90.0),
                  centre.lon + rng.uniform(-0.01, 0.01)};
            break;
          default:
            break;
        }
        binding.pops.push_back(Pop{Location{at, "ZZ", 0}, service,
                                   sim::Millis{next_id++}});
      }
    }
    Network network;
    for (const auto& binding : bindings) network.bind(binding);
    for (int c = 0; c < 50; ++c) {
      Location from{random_point(rng), "ZZ", 0};
      if (c % 10 == 0) {  // antipode of a PoP: distances near the clamp
        const GeoPoint p = bindings[0].pops[0].location.geo;
        from.geo = {-p.lat, p.lon + 180.0};
      } else if (c % 10 == 1) {  // exactly at a PoP
        from.geo = bindings.back().pops.back().location.geo;
      }
      EXPECT_EQ(id_of(network.route(addr, from, day)),
                id_of(reference_route(bindings, from, day)))
          << "trial " << trial << " client " << c;
    }
  }
}

TEST(RouteDifferential, EquidistantPopsGoToTheFirstInBindingOrder) {
  const auto service = std::make_shared<NullService>();
  const util::Date day{2019, 3, 10};
  const util::Ipv4 addr{10, 0, 0, 1};
  // Mirror images about the client's meridian and equator are exactly
  // equidistant (sin is odd), whichever order they are bound in.
  const Location client{{0.0, 20.0}, "ZZ", 0};
  const std::vector<GeoPoint> ring = {
      {10.0, 30.0}, {-10.0, 30.0}, {10.0, 10.0}, {-10.0, 10.0}};
  for (std::size_t first = 0; first < ring.size(); ++first) {
    Network network;
    Binding binding{addr, {}, {2000, 1, 1}, {2100, 1, 1}};
    for (std::size_t i = 0; i < ring.size(); ++i)
      binding.pops.push_back(Pop{Location{ring[(first + i) % ring.size()], "ZZ", 0},
                                 service, sim::Millis{static_cast<double>(i)}});
    // A farther PoP first, so the tie is decided after a pruned candidate.
    binding.pops.insert(binding.pops.begin(),
                        Pop{Location{{60.0, 20.0}, "ZZ", 0}, service, sim::Millis{9.0}});
    network.bind(binding);
    const Pop* pop = network.route(addr, client, day);
    ASSERT_NE(pop, nullptr);
    EXPECT_EQ(id_of(pop), id_of(reference_route({binding}, client, day)));
    EXPECT_EQ(pop->extra_processing.value, 0.0) << "rotation " << first;
  }
}

TEST(RouteDifferential, AntipodalPopsTieAtTheClamp) {
  const auto service = std::make_shared<NullService>();
  const util::Date day{2019, 3, 10};
  const util::Ipv4 addr{10, 0, 0, 2};
  const Location client{{0.0, 0.0}, "ZZ", 0};
  Binding binding{addr, {}, {2000, 1, 1}, {2100, 1, 1}};
  binding.pops.push_back(Pop{Location{{0.0, 180.0}, "ZZ", 0}, service, sim::Millis{1.0}});
  binding.pops.push_back(Pop{Location{{0.0, -180.0}, "ZZ", 0}, service, sim::Millis{2.0}});
  Network network;
  network.bind(binding);
  EXPECT_EQ(id_of(network.route(addr, client, day)), 1.0);
  EXPECT_EQ(id_of(network.route(addr, client, day)),
            id_of(reference_route({binding}, client, day)));
}

TEST(RouteDifferential, ExpiredWindowsAreSkipped) {
  const auto service = std::make_shared<NullService>();
  const util::Ipv4 addr{10, 0, 0, 3};
  const Location client{{48.0, 11.0}, "DE", 0};
  const std::vector<Binding> bindings = {
      {addr, {Pop{Location{{48.1, 11.1}, "DE", 0}, service, sim::Millis{1.0}}},
       {2018, 1, 1}, {2019, 1, 1}},
      {addr, {Pop{Location{{40.0, -74.0}, "US", 0}, service, sim::Millis{2.0}}},
       {2019, 1, 1}, {2020, 1, 1}}};
  Network network;
  for (const auto& binding : bindings) network.bind(binding);
  for (const util::Date day : {util::Date{2018, 6, 1}, util::Date{2019, 6, 1},
                               util::Date{2021, 1, 1}}) {
    EXPECT_EQ(id_of(network.route(addr, client, day)),
              id_of(reference_route(bindings, client, day)));
  }
  EXPECT_EQ(network.route(addr, client, {2021, 1, 1}), nullptr);
}

TEST(RouteDifferential, AnchoredGeoMatchesReferenceBitForBit) {
  util::Rng rng(7);
  for (int i = 0; i < 100000; ++i) {
    const GeoPoint a = random_point(rng);
    const GeoPoint b = rng.chance(0.05) ? GeoPoint{-a.lat, a.lon + 180.0}
                                        : random_point(rng);
    const double km = reference_km(a, b);
    ASSERT_EQ(great_circle_km(a, b), km) << i;
    ASSERT_EQ(haversine_km(haversine(GeoAnchor(a), GeoAnchor(b))), km) << i;
    ASSERT_EQ(propagation_rtt(GeoAnchor(a), GeoAnchor(b)).value,
              propagation_rtt(a, b).value)
        << i;
    ASSERT_EQ(propagation_rtt_km(km).value, propagation_rtt(a, b).value) << i;
  }
  // A point's distance to itself is exactly zero, which the transports rely
  // on for in-path (client-local) round trips.
  for (int i = 0; i < 1000; ++i) {
    const GeoPoint a = random_point(rng);
    ASSERT_EQ(great_circle_km(a, a), 0.0) << i;
  }
}

}  // namespace
}  // namespace encdns::net
