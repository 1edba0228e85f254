// The ISP backbone traffic model behind §5.2: 18 months (Jul 2017 – Jan
// 2019) of flows crossing a large Chinese ISP's border routers, including
// the DoT sessions of early adopters, heavy NAT/proxy egress netblocks, a
// long tail of short-lived client netblocks, and port-853 scanner noise.
#pragma once

#include <algorithm>
#include <array>
#include <string>
#include <utility>
#include <vector>

#include "traffic/netflow.hpp"
#include "util/date.hpp"
#include "util/ipv4.hpp"
#include "util/rng.hpp"

namespace encdns::traffic {

/// Raw (pre-sampling) DoT flow volume per day for one resolver, following
/// the adoption trends the paper observes: Cloudflare launches Apr 2018 and
/// grows ~56% between Jul and Dec 2018; Quad9 is earlier but flat and noisy.
class AdoptionCurve {
 public:
  explicit AdoptionCurve(std::uint64_t seed);

  /// Expected raw client flows per day toward the resolver at `date`.
  [[nodiscard]] double daily_raw_flows(const std::string& resolver,
                                       const util::Date& date) const;

 private:
  std::uint64_t seed_;
};

struct NetblockInfo {
  util::Ipv4 slash24;
  util::Date active_from;
  util::Date active_to;  // exclusive
  double weight = 0.0;   // share of daily DoT flow volume while active
  bool heavy = false;    // NAT/proxy egress
};

struct BackboneConfig {
  util::Date start{2017, 7, 1};
  util::Date end{2019, 2, 1};  // exclusive: Jul 2017 .. Jan 2019
  std::uint64_t seed = 31;
  /// Netblock population shaping (Figure 12): a handful of heavy egress
  /// blocks, some mid-size blocks, and a ~96% tail active under a week.
  std::size_t heavy_blocks = 8;
  std::size_t mid_blocks = 12;
  std::size_t medium_blocks = 200;
  std::size_t tail_blocks = 5400;
  /// Lone-SYN scanner probes per day toward port 853 (excluded by §5.2).
  double scanner_probes_per_day = 160.0;
  /// Ratio of traditional Do53 flows to DoT flows (2-3 orders of magnitude).
  double do53_to_dot_ratio = 1500.0;
};

class BackboneModel {
 public:
  explicit BackboneModel(BackboneConfig config);

  /// Hands each raw flow of `day` (days since 1970-01-01) to
  /// `visit(const FlowHeader&)`, in generation order. Each day draws from its
  /// own rng stream derived from the seed and the day, so days are
  /// independent — parallel consumers can shard the date range and still see
  /// exactly the flows a serial pass would. `const`: safe to call
  /// concurrently from several threads on disjoint days. Generation
  /// allocates nothing; the visitor sees each flow as it is drawn. Returns
  /// the number of flows visited.
  template <typename Visit>
  std::uint64_t generate_day(std::int64_t day, Visit&& visit) const;

  [[nodiscard]] const std::vector<NetblockInfo>& netblocks() const noexcept {
    return netblocks_;
  }
  [[nodiscard]] const BackboneConfig& config() const noexcept { return config_; }
  [[nodiscard]] const AdoptionCurve& adoption() const noexcept { return adoption_; }

 private:
  /// A DoT resolver the backbone carries flows to; the adoption curve knows
  /// it by `name`.
  struct DotTarget {
    std::string name;
    std::array<util::Ipv4, 2> addresses;
    std::size_t address_count = 0;
  };
  struct DayRange {
    std::int64_t from = 0;
    std::int64_t to = 0;  // exclusive
  };

  BackboneConfig config_;
  AdoptionCurve adoption_;
  std::vector<NetblockInfo> netblocks_;
  std::vector<DayRange> active_;  // netblocks_[i]'s active days
  std::array<DotTarget, 2> targets_;
  std::vector<util::Ipv4> scanner_sources_;

  void build_netblocks();
};

template <typename Visit>
std::uint64_t BackboneModel::generate_day(std::int64_t day,
                                          Visit&& visit) const {
  // Per-day rng stream: each day's flows are a pure function of (seed, day),
  // independent of every other day — the property day-sharded parallel
  // aggregation relies on.
  util::Rng rng(util::mix64(config_.seed ^ 0xF10A7ULL ^
                            static_cast<std::uint64_t>(day)));
  const auto active = [&](std::size_t b) {
    return day >= active_[b].from && day < active_[b].to;
  };
  // Active blocks and their weight mass today.
  double mass = 0.0;
  for (std::size_t b = 0; b < netblocks_.size(); ++b)
    if (active(b)) mass += netblocks_[b].weight;
  if (mass <= 0.0) return 0;

  const util::Date date = util::Date::from_days(day);
  std::uint64_t visited = 0;
  FlowHeader flow;
  flow.dst_port = 853;
  for (const DotTarget& target : targets_) {
    const double daily = adoption_.daily_raw_flows(target.name, date);
    if (daily <= 0.0) continue;
    for (std::size_t b = 0; b < netblocks_.size(); ++b) {
      if (!active(b)) continue;
      const NetblockInfo& nb = netblocks_[b];
      const auto flows = rng.poisson(daily * nb.weight / mass);
      visited += flows;
      for (std::uint64_t f = 0; f < flows; ++f) {
        flow.src = util::Ipv4{nb.slash24.value() |
                              static_cast<std::uint32_t>(1 + rng.below(254))};
        flow.dst = target.addresses[rng.below(target.address_count)];
        flow.src_port = static_cast<std::uint16_t>(20000 + rng.below(40000));
        flow.packets = static_cast<std::uint32_t>(
            std::clamp(rng.lognormal(18.0, 0.5), 4.0, 120.0));
        flow.bytes = static_cast<std::uint64_t>(flow.packets) * 110;
        visit(std::as_const(flow));
      }
    }
  }

  // Port-853 scanner probes: lone SYNs toward random destinations.
  FlowHeader probe;
  probe.dst_port = 853;
  probe.packets = 1;
  probe.bytes = 60;
  probe.complete_session = false;
  const auto probes = rng.poisson(config_.scanner_probes_per_day);
  for (std::uint64_t p = 0; p < probes; ++p) {
    probe.src = scanner_sources_[rng.below(scanner_sources_.size())];
    probe.dst = util::Ipv4{static_cast<std::uint32_t>(rng.next())};
    probe.src_port = static_cast<std::uint16_t>(40000 + rng.below(20000));
    visit(std::as_const(probe));
  }
  return visited + probes;
}

}  // namespace encdns::traffic
