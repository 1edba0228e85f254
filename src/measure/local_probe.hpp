// The §3.1 local-resolver check: from RIPE-Atlas-like probes, issue DoT
// queries to each probe's ISP local resolver; only a sliver succeed (24 of
// 6,655 probes, ~0.3%), showing ISP-side DoT deployment is scarce.
#pragma once

#include <cstddef>

#include "world/world.hpp"

namespace encdns::measure {

struct LocalProbeConfig {
  std::size_t probe_count = 6655;
  util::Date date{2019, 4, 10};
  std::uint64_t seed = 23;
};

struct LocalProbeResults {
  std::size_t probes = 0;
  std::size_t dot_succeeded = 0;

  static void fields(auto& self, auto&& visit) {
    visit(self.probes, self.dot_succeeded);
  }

  [[nodiscard]] double success_rate() const noexcept {
    return probes == 0 ? 0.0
                       : static_cast<double>(dot_succeeded) /
                             static_cast<double>(probes);
  }
};

[[nodiscard]] LocalProbeResults run_local_resolver_probe(
    const world::World& world, LocalProbeConfig config = {});

}  // namespace encdns::measure
