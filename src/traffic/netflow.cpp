#include "traffic/netflow.hpp"

#include <cmath>

namespace encdns::traffic {

NetflowCollector::NetflowCollector(double sampling_rate)
    : rate_(sampling_rate) {
  for (std::uint32_t m = 1; m < kPoissonTable; ++m) {
    // The same expression Rng::poisson evaluates for lambda = m * rate.
    const double lambda = static_cast<double>(m) * rate_;
    if (!(lambda > 0.0 && lambda <= 64.0)) break;
    limit_[m] = std::exp(-lambda);
    tabled_ = m;
  }
}

}  // namespace encdns::traffic
