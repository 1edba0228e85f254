#include "resolver/universe.hpp"

#include "util/rng.hpp"
#include "util/strings.hpp"

namespace encdns::resolver {

Answer Answer::a_record(const dns::Name& name, util::Ipv4 addr, std::uint32_t ttl) {
  Answer a;
  a.answers.push_back(dns::ResourceRecord::a(name, addr, ttl));
  return a;
}

namespace {

/// The deterministic pseudo-content hash for names no zone owns.
[[nodiscard]] std::uint64_t synthesized_hash(const dns::Name& qname) {
  return util::fnv1a(qname.canonical());
}

[[nodiscard]] Answer synthesized_a(const dns::Name& qname, std::uint64_t h) {
  return Answer::a_record(
      qname, util::Ipv4{static_cast<std::uint32_t>(0x0B000000u | (h & 0x00FFFFFF))});
}

}  // namespace

void AuthoritativeUniverse::add_zone(Zone zone) {
  const std::size_t size = zone.apex.wire_labels().size();
  if (by_apex_size_.size() <= size) by_apex_size_.resize(size + 1);
  by_apex_size_[size].push_back(static_cast<std::uint32_t>(zones_.size()));
  ns_anchors_.emplace_back(zone.ns_location.geo);
  zones_.push_back(std::move(zone));
}

const Zone* AuthoritativeUniverse::find_zone(const dns::Name& qname) const {
  // The apexes `qname` is at or under are its label-aligned suffixes, and
  // more labels means a longer suffix: probing suffixes longest first, the
  // first equal apex in its bucket's add order is the owner. Wire-form
  // suffixes, never '.'-split text: a decoded label may itself contain '.'.
  const std::string_view wire = qname.wire_labels();
  for (std::size_t at = 0;; at = dns::Name::next_label(wire, at)) {
    const std::string_view suffix = wire.substr(at);
    if (suffix.size() < by_apex_size_.size()) {
      for (const std::uint32_t i : by_apex_size_[suffix.size()])
        if (util::iequals(suffix, zones_[i].apex.wire_labels())) return &zones_[i];
    }
    if (at == wire.size()) return nullptr;
  }
}

Answer AuthoritativeUniverse::authoritative_answer(const Zone* zone,
                                                   const dns::Name& qname,
                                                   dns::RrType type,
                                                   const util::Date& date) const {
  if (zone != nullptr) return zone->answer_fn(qname, type, date);
  if (synthesize_unknown_) {
    if (type == dns::RrType::kA) return synthesized_a(qname, synthesized_hash(qname));
    return Answer{};
  }
  return Answer::nxdomain();
}

AuthoritativeUniverse::Upstream AuthoritativeUniverse::query(
    const Zone* zone, const dns::Name& qname, dns::RrType type,
    const net::Location& from, const util::Date& date, util::Rng& rng) const {
  Upstream up;
  net::GeoAnchor ns;
  sim::Millis extra{0.0};
  double extra_tail = 0.0;
  if (zone != nullptr) {
    up.answer = zone->answer_fn(qname, type, date);
    ns = ns_anchors_[static_cast<std::size_t>(zone - zones_.data())];
    extra = zone->extra_latency;
    extra_tail = zone->extra_tail_probability;
  } else if (synthesize_unknown_) {
    // Deterministic pseudo-content: the same name always maps to the same
    // address, so repeated background lookups are cache-coherent.
    const std::uint64_t h = synthesized_hash(qname);
    if (type == dns::RrType::kA) up.answer = synthesized_a(qname, h);
    // Synthesized nameservers are scattered: derive a stable location.
    ns = net::GeoAnchor(net::GeoPoint{static_cast<double>((h >> 24) % 120) - 60.0,
                                      static_cast<double>((h >> 32) % 360) - 180.0});
  } else {
    up.answer = Answer::nxdomain();
    ns = net::GeoAnchor(from.geo);  // negative answer synthesized nearby (root/TLD cache)
  }

  const sim::Millis ns_rtt =
      net::propagation_rtt(net::GeoAnchor(from.geo), ns) + sim::Millis{2.0};
  const double round_trips =
      rng.uniform(latency_.min_round_trips, latency_.max_round_trips);
  sim::Millis latency =
      (ns_rtt * round_trips) * rng.lognormal(1.0, latency_.jitter_sigma) + extra;
  if (rng.chance(latency_.tail_probability + extra_tail)) {
    latency += ns_rtt * rng.uniform(latency_.tail_rtt_multiplier_min,
                                    latency_.tail_rtt_multiplier_max);
  }
  up.latency = latency;
  return up;
}

}  // namespace encdns::resolver
