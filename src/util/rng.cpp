#include "util/rng.hpp"

#include <cmath>

namespace encdns::util {

std::uint64_t fnv1a(std::string_view s) noexcept {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001B3ULL;
  }
  return h;
}

Rng::Rng(std::uint64_t seed) noexcept {
  for (auto& word : state_) word = splitmix64(seed);
}

std::int64_t Rng::range(std::int64_t lo, std::int64_t hi) noexcept {
  const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
  return lo + static_cast<std::int64_t>(below(span));
}

double Rng::uniform(double lo, double hi) noexcept {
  return lo + (hi - lo) * uniform();
}

double Rng::normal() noexcept {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return cached_normal_;
  }
  double u1 = uniform();
  while (u1 <= 0.0) u1 = uniform();
  const double u2 = uniform();
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * 3.14159265358979323846 * u2;
  cached_normal_ = r * std::sin(theta);
  has_cached_normal_ = true;
  return r * std::cos(theta);
}

double Rng::normal(double mean, double stddev) noexcept {
  return mean + stddev * normal();
}

double Rng::exponential(double mean) noexcept {
  if (mean <= 0.0) return 0.0;
  double u = uniform();
  while (u <= 0.0) u = uniform();
  return -mean * std::log(u);
}

double Rng::lognormal(double median, double sigma) noexcept {
  if (median <= 0.0) return 0.0;
  return median * std::exp(sigma * normal());
}

double Rng::pareto(double xm, double alpha) noexcept {
  if (xm <= 0.0 || alpha <= 0.0) return 0.0;
  double u = uniform();
  while (u <= 0.0) u = uniform();
  return xm / std::pow(u, 1.0 / alpha);
}

std::uint64_t Rng::poisson(double lambda) noexcept {
  if (lambda <= 0.0) return 0;
  if (lambda > 64.0) {
    // Normal approximation with continuity correction.
    const double v = normal(lambda, std::sqrt(lambda));
    return v <= 0.0 ? 0 : static_cast<std::uint64_t>(v + 0.5);
  }
  const double limit = std::exp(-lambda);
  std::uint64_t k = 0;
  double p = 1.0;
  do {
    ++k;
    p *= uniform();
  } while (p > limit);
  return k - 1;
}

std::size_t Rng::weighted(const std::vector<double>& weights) noexcept {
  double total = 0.0;
  for (double w : weights) total += (w > 0.0 ? w : 0.0);
  if (total <= 0.0) return 0;
  double pick = uniform() * total;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    const double w = weights[i] > 0.0 ? weights[i] : 0.0;
    if (pick < w) return i;
    pick -= w;
  }
  return weights.size() - 1;
}

Rng Rng::fork(std::uint64_t stream) const noexcept {
  std::uint64_t s = state_[0] ^ mix64(stream + 0x5EEDF00DULL);
  return Rng{mix64(s)};
}

}  // namespace encdns::util
