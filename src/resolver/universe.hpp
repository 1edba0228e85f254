// The authoritative DNS universe.
//
// Recursive resolvers in the simulation do not walk the real delegation tree;
// instead they query this universe, which owns every zone's content and
// models the *latency* of a full cold recursion from the resolver's location
// to the zone's nameservers. This is the substrate behind the Quad9 DoH
// timeout defect (§4.2 Finding 2.4): recursions to faraway or slow
// nameservers legitimately exceed 2 seconds for a tail of queries.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "dns/message.hpp"
#include "dns/name.hpp"
#include "dns/types.hpp"
#include "net/geo.hpp"
#include "sim/duration.hpp"
#include "util/date.hpp"
#include "util/rng.hpp"

namespace encdns::resolver {

/// Authoritative answer content for one query.
struct Answer {
  dns::RCode rcode = dns::RCode::kNoError;
  std::vector<dns::ResourceRecord> answers;

  [[nodiscard]] static Answer nxdomain() {
    Answer a;
    a.rcode = dns::RCode::kNxDomain;
    return a;
  }
  [[nodiscard]] static Answer a_record(const dns::Name& name, util::Ipv4 addr,
                                       std::uint32_t ttl = 300);
};

/// One authoritative zone: everything at or under `apex`.
struct Zone {
  dns::Name apex;
  net::Location ns_location;  // where its nameservers sit
  /// Produces the answer for any name under the apex. Invoked with the full
  /// query name, the type, and the simulation date.
  std::function<Answer(const dns::Name&, dns::RrType, const util::Date&)> answer_fn;
  /// Additional fixed serving delay (slow/overloaded nameservers).
  sim::Millis extra_latency{0.0};
  /// Added to the model's tail probability for this zone only — expresses a
  /// modest, occasionally slow authoritative deployment (like the study's
  /// own probe domain).
  double extra_tail_probability = 0.0;
  /// Popular content (bootstrap hostnames, the platform's own apex): every
  /// recursive resolver keeps it warm, so lookups are answered from cache
  /// without touching the resolver's shared cache state.
  bool popular = false;
};

/// Latency knobs for cold recursions. Tail episodes (retries over a congested
/// path) scale with the resolver-to-nameserver RTT, so a resolver close to
/// the zone's nameservers rarely sees multi-second recursions while a distant
/// one does — the geometry behind Finding 2.4.
struct RecursionLatencyModel {
  double min_round_trips = 1.0;   // zone NS cached: one round trip
  double max_round_trips = 1.8;   // occasional partial TLD re-walk
  double jitter_sigma = 0.22;     // lognormal sigma on the total
  double tail_probability = 0.015;  // congestion / retry episodes
  double tail_rtt_multiplier_min = 8.0;
  double tail_rtt_multiplier_max = 22.0;
};

class AuthoritativeUniverse {
 public:
  void add_zone(Zone zone);

  /// When set, names matching no zone get a deterministic synthesized A
  /// record (hash-derived) instead of NXDOMAIN — convenient for background
  /// traffic over arbitrary domains.
  void set_synthesize_unknown(bool on) noexcept { synthesize_unknown_ = on; }

  void set_latency_model(const RecursionLatencyModel& model) noexcept {
    latency_ = model;
  }
  [[nodiscard]] const RecursionLatencyModel& latency_model() const noexcept {
    return latency_;
  }

  struct Upstream {
    Answer answer;
    sim::Millis latency{0.0};  // resolver-observed cold recursion time
  };

  /// The zone owning `qname`, if any: of the zones whose apex `qname` is at
  /// or under, the one with the most labels, the first added among equal
  /// apexes (a root apex matches last). Indexed, not scanned: one probe per
  /// label of `qname` into the apexes bucketed by wire size (DESIGN.md §10).
  /// The pointer stays valid until the next add_zone.
  [[nodiscard]] const Zone* find_zone(const dns::Name& qname) const;

  /// Resolve `qname` authoritatively as seen from a resolver at `from`;
  /// `zone` is `find_zone(qname)`, which the caller resolves once per query.
  [[nodiscard]] Upstream query(const Zone* zone, const dns::Name& qname,
                               dns::RrType type, const net::Location& from,
                               const util::Date& date, util::Rng& rng) const;

  /// The authoritative answer content for `qname` in `zone` (again
  /// `find_zone(qname)`), with no latency draw and no rng: a pure function
  /// of (name, type, date). Used for cache-warm answers, where only content
  /// matters.
  [[nodiscard]] Answer authoritative_answer(const Zone* zone,
                                            const dns::Name& qname,
                                            dns::RrType type,
                                            const util::Date& date) const;

  [[nodiscard]] std::size_t zone_count() const noexcept { return zones_.size(); }

 private:
  std::vector<Zone> zones_;
  /// `ns_anchors_[i]` is `zones_[i].ns_location.geo` with its cos(lat).
  std::vector<net::GeoAnchor> ns_anchors_;
  /// Zone indices by apex wire size (`Name::wire_labels().size()`), each
  /// bucket in add order.
  std::vector<std::vector<std::uint32_t>> by_apex_size_;
  bool synthesize_unknown_ = true;
  RecursionLatencyModel latency_;
};

}  // namespace encdns::resolver
