#include "traffic/hll.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

namespace encdns::traffic {
namespace {

double alpha_for(std::size_t m) noexcept {
  // Flajolet et al. bias-correction constants.
  if (m == 16) return 0.673;
  if (m == 32) return 0.697;
  if (m == 64) return 0.709;
  return 0.7213 / (1.0 + 1.079 / static_cast<double>(m));
}

}  // namespace

Hll::Hll(int precision, std::uint64_t seed)
    : precision_(precision), seed_(seed) {
  if (precision < kMinPrecision || precision > kMaxPrecision) {
    throw std::invalid_argument("Hll precision out of range: " +
                                std::to_string(precision));
  }
  registers_.assign(std::size_t{1} << precision, 0);
}

double Hll::estimate() const noexcept {
  const auto m = static_cast<double>(registers_.size());
  double sum = 0.0;
  std::size_t zeros = 0;
  for (const std::uint8_t reg : registers_) {
    sum += std::ldexp(1.0, -static_cast<int>(reg));
    if (reg == 0) ++zeros;
  }
  const double raw = alpha_for(registers_.size()) * m * m / sum;
  if (raw <= 2.5 * m && zeros != 0) {
    // Linear counting dominates in the small range where the raw estimator
    // is biased.
    return m * std::log(m / static_cast<double>(zeros));
  }
  return raw;
}

std::uint64_t Hll::estimate_u64() const noexcept {
  return static_cast<std::uint64_t>(std::llround(estimate()));
}

void Hll::merge(const Hll& other) {
  if (precision_ != other.precision_) {
    throw std::invalid_argument("Hll merge: precision mismatch");
  }
  if (seed_ != other.seed_) {
    throw std::invalid_argument("Hll merge: hash seed mismatch");
  }
  for (std::size_t i = 0; i < registers_.size(); ++i)
    registers_[i] = std::max(registers_[i], other.registers_[i]);
}

void Hll::clear() noexcept {
  std::fill(registers_.begin(), registers_.end(), 0);
}

double Hll::relative_error_bound() const noexcept {
  return 1.04 / std::sqrt(static_cast<double>(registers_.size()));
}

void Hll::restore_registers(std::vector<std::uint8_t> registers) {
  if (registers.size() != (std::size_t{1} << precision_)) {
    throw std::invalid_argument("Hll restore: register count mismatch");
  }
  registers_ = std::move(registers);
}

}  // namespace encdns::traffic
