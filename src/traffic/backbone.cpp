#include "traffic/backbone.hpp"

#include <algorithm>
#include <cmath>

#include "world/providers.hpp"

namespace encdns::traffic {
namespace {

constexpr util::Date kCloudflareDotLaunch{2018, 4, 1};
constexpr util::Date kQuad9DotLaunch{2017, 11, 1};

}  // namespace

AdoptionCurve::AdoptionCurve(std::uint64_t seed) : seed_(seed) {}

double AdoptionCurve::daily_raw_flows(const std::string& resolver,
                                      const util::Date& date) const {
  if (resolver == "cloudflare") {
    if (date < kCloudflareDotLaunch) return 0.0;
    const int m = util::months_between(kCloudflareDotLaunch, date);
    // Ramp over the first months, then the steady ~9%/month growth that
    // yields +56% between Jul and Dec 2018.
    static constexpr double kRamp[] = {6000, 12000, 19000, 26000};
    double flows;
    if (m < 4) {
      flows = kRamp[m];
    } else {
      flows = 26000.0 * std::pow(1.0935, m - 3);
    }
    // Mild day-of-month noise.
    const std::uint64_t h = util::mix64(seed_ ^ static_cast<std::uint64_t>(
                                                    date.to_days()));
    return flows * (0.92 + 0.16 * static_cast<double>(h % 1000) / 1000.0);
  }
  if (resolver == "quad9") {
    if (date < kQuad9DotLaunch) return 0.0;
    // Flat but fluctuating: each month draws its own level.
    const std::uint64_t h =
        util::mix64(seed_ ^ 0x99ULL ^ static_cast<std::uint64_t>(date.month_index()));
    return 6000.0 + static_cast<double>(h % 9000);
  }
  return 0.0;
}

BackboneModel::BackboneModel(BackboneConfig config)
    : config_(config),
      adoption_(config.seed),
      targets_{{{"cloudflare",
                  {world::addrs::kCloudflarePrimary,
                   world::addrs::kCloudflareSecondary},
                  2},
                 {"quad9", {world::addrs::kQuad9Primary}, 1}}} {
  build_netblocks();
  active_.reserve(netblocks_.size());
  for (const NetblockInfo& nb : netblocks_)
    active_.push_back({nb.active_from.to_days(), nb.active_to.to_days()});
}

void BackboneModel::build_netblocks() {
  util::Rng rng(util::mix64(config_.seed ^ 0xB10CULL));
  const std::int64_t period_days = util::days_between(config_.start, config_.end);
  std::uint32_t next_block = 0;
  const auto block_addr = [&next_block]() {
    const std::uint32_t b = next_block++;
    return util::Ipv4{static_cast<std::uint32_t>((114u << 24) | (b << 8))};
  };

  // Heavy NAT/proxy egress blocks: most of the volume, active for months.
  static constexpr double kHeavyWeights[] = {0.125, 0.115, 0.080, 0.065,
                                             0.055, 0.040, 0.035, 0.025};
  for (std::size_t i = 0; i < config_.heavy_blocks; ++i) {
    NetblockInfo nb;
    nb.slash24 = block_addr();
    nb.heavy = true;
    nb.weight = i < std::size(kHeavyWeights) ? kHeavyWeights[i] : 0.02;
    nb.active_from = config_.start.plus_days(rng.range(0, period_days / 3));
    nb.active_to = config_.end;
    netblocks_.push_back(nb);
  }
  // Mid blocks: a few months each.
  for (std::size_t i = 0; i < config_.mid_blocks; ++i) {
    NetblockInfo nb;
    nb.slash24 = block_addr();
    nb.weight = 0.005;
    nb.active_from = config_.start.plus_days(rng.range(0, period_days * 2 / 3));
    nb.active_to = nb.active_from.plus_days(rng.range(45, 180));
    netblocks_.push_back(nb);
  }
  // Medium blocks: one to eight weeks.
  for (std::size_t i = 0; i < config_.medium_blocks; ++i) {
    NetblockInfo nb;
    nb.slash24 = block_addr();
    nb.weight = 0.00075;
    nb.active_from = config_.start.plus_days(rng.range(0, period_days - 8));
    nb.active_to = nb.active_from.plus_days(rng.range(7, 56));
    netblocks_.push_back(nb);
  }
  // The short-lived tail: ~96% of blocks, active under a week (Fig. 12).
  for (std::size_t i = 0; i < config_.tail_blocks; ++i) {
    NetblockInfo nb;
    nb.slash24 = block_addr();
    nb.weight = 0.0074;
    nb.active_from = config_.start.plus_days(rng.range(0, period_days - 7));
    nb.active_to = nb.active_from.plus_days(rng.range(1, 6));
    netblocks_.push_back(nb);
  }

  // Scanner sources live outside the client space.
  scanner_sources_ = {util::Ipv4{162, 142, 125, 7}, util::Ipv4{74, 120, 14, 33},
                      util::Ipv4{167, 94, 138, 2}};
}

}  // namespace encdns::traffic
