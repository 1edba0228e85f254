// Geography-driven latency model.
//
// Simulated hosts carry coordinates; round-trip time between two points is
// derived from great-circle distance at optical-fiber propagation speed with
// a routing-indirection factor, plus per-endpoint last-mile terms. This gives
// the country-level latency structure that §4.3 (Figure 9) measures.
#pragma once

#include <cstdint>
#include <string>

#include "sim/duration.hpp"

namespace encdns::net {

struct GeoPoint {
  double lat = 0.0;  // degrees, +N
  double lon = 0.0;  // degrees, +E
};

/// Great-circle distance in kilometres (haversine).
[[nodiscard]] double great_circle_km(const GeoPoint& a, const GeoPoint& b) noexcept;

/// Propagation round-trip time between two points: light in fiber covers
/// roughly 100 km per millisecond one-way; real paths detour, so an
/// indirection factor is applied, with a small floor for serialization.
[[nodiscard]] sim::Millis propagation_rtt(const GeoPoint& a, const GeoPoint& b) noexcept;

/// `propagation_rtt` for an already computed great-circle distance.
[[nodiscard]] sim::Millis propagation_rtt_km(double km) noexcept;

/// A point with its per-endpoint haversine factor cos(latitude) computed
/// once. Endpoints fixed for a world's lifetime (anycast PoPs, zone
/// nameservers) keep one, so each distance to them costs one cosine less;
/// the results are bit-identical to `great_circle_km`.
struct GeoAnchor {
  GeoAnchor() = default;
  explicit GeoAnchor(const GeoPoint& point) noexcept;

  GeoPoint geo;
  double cos_lat = 1.0;
};

/// The haversine term h = sin²(Δlat/2) + cos(lat_a)·cos(lat_b)·sin²(Δlon/2),
/// evaluated exactly as `great_circle_km` does.
[[nodiscard]] double haversine(const GeoAnchor& a, const GeoAnchor& b) noexcept;

/// The distance for a haversine term, 2R·asin(√min(1, h)):
/// `great_circle_km(a, b) == haversine_km(haversine(GeoAnchor(a), GeoAnchor(b)))`.
[[nodiscard]] double haversine_km(double h) noexcept;

/// `propagation_rtt` between anchored points (bit-identical).
[[nodiscard]] sim::Millis propagation_rtt(const GeoAnchor& a, const GeoAnchor& b) noexcept;

/// Where a simulated actor (client, PoP, middlebox) sits.
struct Location {
  GeoPoint geo;
  std::string country;  // ISO 3166-1 alpha-2
  std::uint32_t asn = 0;
};

/// Last-mile and quality parameters of a client's access link.
struct LinkProfile {
  sim::Millis last_mile{8.0};   // added to every RTT (both directions combined)
  double jitter_sigma = 0.12;   // lognormal sigma on the per-connection RTT
  double loss_rate = 0.003;     // per-round-trip packet loss probability
  /// Extra queueing delay some access networks impose on traffic to
  /// non-standard ports (notably 853) — behind the above-average DoT
  /// overhead the paper measures in a few countries (Fig. 9, Indonesia).
  sim::Millis dot_port_penalty{0.0};
};

}  // namespace encdns::net
