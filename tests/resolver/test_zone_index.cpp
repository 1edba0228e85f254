// Differential tests for the indexed zone lookup (DESIGN.md §10):
// AuthoritativeUniverse::find_zone probes a query name's label-aligned
// suffixes against apexes bucketed by wire size. It must return exactly the
// zone a reference copy of the linear scan returns — of the apexes the name
// is at or under, the one with the most labels, the first added among equal
// apexes, a root apex last — over random mixed-case names.
#include <gtest/gtest.h>

#include <cctype>
#include <cstdint>
#include <string>
#include <vector>

#include "dns/name.hpp"
#include "resolver/universe.hpp"
#include "util/rng.hpp"

namespace encdns::resolver {
namespace {

bool reference_label_equals(const std::string& a, const std::string& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (std::tolower(static_cast<unsigned char>(a[i])) !=
        std::tolower(static_cast<unsigned char>(b[i])))
      return false;
  return true;
}

/// The linear scan find_zone replaced, over label vectors: index of the
/// owning apex, -1 for none.
int reference_find_zone(const std::vector<std::vector<std::string>>& apexes,
                        const std::vector<std::string>& qname) {
  int best = -1;
  std::size_t best_labels = 0;
  for (std::size_t z = 0; z < apexes.size(); ++z) {
    const auto& apex = apexes[z];
    if (apex.size() > qname.size()) continue;
    const std::size_t offset = qname.size() - apex.size();
    bool under = true;
    for (std::size_t i = 0; i < apex.size(); ++i)
      under = under && reference_label_equals(qname[offset + i], apex[i]);
    if (!under) continue;
    if (best < 0 || apex.size() > best_labels) {
      best = static_cast<int>(z);
      best_labels = apex.size();
    }
  }
  return best;
}

/// Zones are told apart by a unique extra_latency value.
int id_of(const Zone* zone) {
  return zone == nullptr ? -1 : static_cast<int>(zone->extra_latency.value);
}

Zone zone_with(const dns::Name& apex, int id) {
  Zone zone;
  zone.apex = apex;
  zone.extra_latency = sim::Millis{static_cast<double>(id)};
  zone.answer_fn = [](const dns::Name&, dns::RrType, const util::Date&) {
    return Answer{};
  };
  return zone;
}

std::string random_label(util::Rng& rng) {
  // Few distinct labels, so names and apexes share suffixes; mixed case; a
  // '.' inside a label (legal on the wire) must not split it.
  static const std::vector<std::string> kPool = {
      "a", "A", "b", "B", "probe", "PROBE", "net", "Net", "x.y", "X.Y", "y", "ab",
      "x\x01" "b", "\x01" "a"};
  return kPool[rng.below(kPool.size())];
}

std::vector<std::string> random_labels(util::Rng& rng, std::int64_t max) {
  std::vector<std::string> labels(static_cast<std::size_t>(rng.range(0, max)));
  for (auto& label : labels) label = random_label(rng);
  return labels;
}

TEST(ZoneIndex, MatchesLinearScanOverRandomMixedCaseNames) {
  util::Rng rng(2019);
  for (int trial = 0; trial < 300; ++trial) {
    AuthoritativeUniverse universe;
    std::vector<std::vector<std::string>> apexes;
    const auto zones = rng.range(0, 12);
    for (std::int64_t z = 0; z < zones; ++z) {
      std::vector<std::string> apex;
      if (!apexes.empty() && rng.chance(0.2)) {
        apex = apexes[rng.below(apexes.size())];  // duplicate apex, maybe recased
        for (auto& label : apex)
          if (rng.chance(0.5)) label[0] = static_cast<char>(std::toupper(label[0]));
      } else {
        apex = random_labels(rng, 3);  // includes the root apex
      }
      universe.add_zone(zone_with(*dns::Name::from_labels(apex), static_cast<int>(z)));
      apexes.push_back(apex);
    }
    for (int q = 0; q < 200; ++q) {
      std::vector<std::string> qname = random_labels(rng, 5);
      if (!apexes.empty() && rng.chance(0.2)) qname = apexes[rng.below(apexes.size())];
      const dns::Name name = *dns::Name::from_labels(qname);
      EXPECT_EQ(id_of(universe.find_zone(name)), reference_find_zone(apexes, qname))
          << "trial " << trial << " qname " << name.to_string();
    }
  }
}

TEST(ZoneIndex, TieRulesAndEdgeCases) {
  AuthoritativeUniverse universe;
  universe.add_zone(zone_with(dns::Name{}, 0));                         // root
  universe.add_zone(zone_with(*dns::Name::parse("Probe.NET"), 1));
  universe.add_zone(zone_with(*dns::Name::parse("probe.net"), 2));      // duplicate
  universe.add_zone(zone_with(*dns::Name::parse("deep.probe.net"), 3));
  universe.add_zone(zone_with(*dns::Name::from_labels({"b", "c"}), 4));

  const auto find = [&](const dns::Name& name) { return id_of(universe.find_zone(name)); };
  EXPECT_EQ(find(*dns::Name::parse("x.PROBE.net")), 1);  // first added wins
  EXPECT_EQ(find(*dns::Name::parse("probe.net")), 1);    // a name equal to its apex
  EXPECT_EQ(find(*dns::Name::parse("Deep.Probe.Net")), 3);
  EXPECT_EQ(find(*dns::Name::parse("a.deep.probe.net")), 3);
  EXPECT_EQ(find(*dns::Name::parse("unrelated.org")), 0);  // root matches last
  EXPECT_EQ(find(dns::Name{}), 0);
  // {"a.b", "c"} is two labels, not under b.c; {"a", "b", "c"} is. Nor is
  // {"x\1b", "c"}, whose tail octets spell b.c's wire form unaligned.
  EXPECT_EQ(find(*dns::Name::from_labels({"a.b", "c"})), 0);
  EXPECT_EQ(find(*dns::Name::from_labels({"x\x01" "b", "c"})), 0);
  EXPECT_EQ(find(*dns::Name::from_labels({"a", "b", "c"})), 4);

  AuthoritativeUniverse no_root;
  no_root.add_zone(zone_with(*dns::Name::parse("probe.net"), 7));
  EXPECT_EQ(no_root.find_zone(*dns::Name::parse("net")), nullptr);
  EXPECT_EQ(no_root.find_zone(dns::Name{}), nullptr);
  EXPECT_EQ(id_of(no_root.find_zone(*dns::Name::parse("p.probe.net"))), 7);
}

}  // namespace
}  // namespace encdns::resolver
