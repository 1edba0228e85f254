#include "net/geo.hpp"

#include <algorithm>
#include <cmath>

namespace encdns::net {
namespace {

constexpr double kEarthRadiusKm = 6371.0;
constexpr double kDegToRad = 3.14159265358979323846 / 180.0;

// One-way speed in fiber ~ 204 km/ms * (1 / indirection). Empirical RTTs run
// ~1.5-2x the geodesic optimum; we fold that into the divisor.
constexpr double kEffectiveKmPerMsOneWay = 125.0;
constexpr double kRttFloorMs = 0.3;

}  // namespace

GeoAnchor::GeoAnchor(const GeoPoint& point) noexcept
    : geo(point), cos_lat(std::cos(point.lat * kDegToRad)) {}

double haversine(const GeoAnchor& a, const GeoAnchor& b) noexcept {
  const double dlat = (b.geo.lat - a.geo.lat) * kDegToRad;
  const double dlon = (b.geo.lon - a.geo.lon) * kDegToRad;
  const double s = std::sin(dlat / 2.0);
  const double t = std::sin(dlon / 2.0);
  return s * s + a.cos_lat * b.cos_lat * t * t;
}

double haversine_km(double h) noexcept {
  return 2.0 * kEarthRadiusKm * std::asin(std::sqrt(std::min(1.0, h)));
}

double great_circle_km(const GeoPoint& a, const GeoPoint& b) noexcept {
  return haversine_km(haversine(GeoAnchor(a), GeoAnchor(b)));
}

sim::Millis propagation_rtt_km(double km) noexcept {
  return sim::Millis{kRttFloorMs + 2.0 * km / kEffectiveKmPerMsOneWay};
}

sim::Millis propagation_rtt(const GeoPoint& a, const GeoPoint& b) noexcept {
  return propagation_rtt_km(great_circle_km(a, b));
}

sim::Millis propagation_rtt(const GeoAnchor& a, const GeoAnchor& b) noexcept {
  return propagation_rtt_km(haversine_km(haversine(a, b)));
}

}  // namespace encdns::net
