// The ISP backbone traffic model behind §5.2: 18 months (Jul 2017 – Jan
// 2019) of flows crossing a large Chinese ISP's border routers, including
// the DoT sessions of early adopters, heavy NAT/proxy egress netblocks, a
// long tail of short-lived client netblocks, and port-853 scanner noise.
#pragma once

#include <string>
#include <vector>

#include "traffic/flow_batch.hpp"
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

  /// Append one day's raw flows to `batch`. Each day draws from its own rng
  /// stream derived from the seed and the day, so days are independent —
  /// parallel consumers can shard the date range and still see exactly the
  /// flows a serial pass would. `const`: safe to call concurrently from
  /// several threads on disjoint days. The streaming engines call this with
  /// a shard-local batch they clear() and refill day after day, so
  /// steady-state generation allocates nothing (the ScratchArena warm-reuse
  /// discipline, columnar).
  void generate_day_into(const util::Date& day, FlowBatch& batch) const;

  [[nodiscard]] const std::vector<NetblockInfo>& netblocks() const noexcept {
    return netblocks_;
  }
  [[nodiscard]] const BackboneConfig& config() const noexcept { return config_; }
  [[nodiscard]] const AdoptionCurve& adoption() const noexcept { return adoption_; }

 private:
  BackboneConfig config_;
  AdoptionCurve adoption_;
  std::vector<NetblockInfo> netblocks_;
  std::vector<util::Ipv4> scanner_sources_;

  void build_netblocks();
};

}  // namespace encdns::traffic
