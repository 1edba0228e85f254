#include "scan/permutation.hpp"

#include <algorithm>

#include "util/rng.hpp"

namespace encdns::scan {

std::uint64_t pow_mod(std::uint64_t base, std::uint64_t exp,
                      std::uint64_t mod) noexcept {
  if (mod <= 1) return 0;
  __uint128_t result = 1;
  __uint128_t b = base % mod;
  while (exp > 0) {
    if (exp & 1) result = result * b % mod;
    b = b * b % mod;
    exp >>= 1;
  }
  return static_cast<std::uint64_t>(result);
}

bool is_prime(std::uint64_t n) noexcept {
  if (n < 2) return false;
  for (std::uint64_t small : {2ULL, 3ULL, 5ULL, 7ULL, 11ULL, 13ULL, 17ULL,
                              19ULL, 23ULL, 29ULL, 31ULL, 37ULL}) {
    if (n == small) return true;
    if (n % small == 0) return false;
  }
  // Miller-Rabin with a base set deterministic for all 64-bit integers.
  std::uint64_t d = n - 1;
  int r = 0;
  while ((d & 1) == 0) {
    d >>= 1;
    ++r;
  }
  for (std::uint64_t a : {2ULL, 3ULL, 5ULL, 7ULL, 11ULL, 13ULL, 17ULL, 19ULL,
                          23ULL, 29ULL, 31ULL, 37ULL}) {
    std::uint64_t x = pow_mod(a, d, n);
    if (x == 1 || x == n - 1) continue;
    bool witness = true;
    for (int i = 0; i < r - 1; ++i) {
      x = static_cast<std::uint64_t>(
          static_cast<__uint128_t>(x) * x % n);
      if (x == n - 1) {
        witness = false;
        break;
      }
    }
    if (witness) return false;
  }
  return true;
}

std::uint64_t next_prime(std::uint64_t n) noexcept {
  if (n <= 2) return 2;
  std::uint64_t candidate = n | 1;  // odd
  while (!is_prime(candidate)) candidate += 2;
  return candidate;
}

std::vector<std::uint64_t> prime_factors(std::uint64_t n) {
  std::vector<std::uint64_t> factors;
  for (std::uint64_t f = 2; f * f <= n; f += (f == 2 ? 1 : 2)) {
    if (n % f == 0) {
      factors.push_back(f);
      while (n % f == 0) n /= f;
    }
  }
  if (n > 1) factors.push_back(n);
  return factors;
}

Montgomery::Montgomery(std::uint64_t p) noexcept : p_(p) {
  // Newton's iteration for p^-1 mod 2^64: p*p == 1 mod 8 gives three correct
  // bits to start, and every round doubles them (3 -> 6 -> ... -> 96).
  std::uint64_t inverse = p;
  for (int i = 0; i < 5; ++i) inverse *= 2 - p * inverse;
  inverse_ = inverse;
}

std::uint64_t Montgomery::form(std::uint64_t c) const noexcept {
  return static_cast<std::uint64_t>((static_cast<__uint128_t>(c % p_) << 64) %
                                    p_);
}

CyclicPermutation::CyclicPermutation(std::uint64_t n, std::uint64_t seed) : n_(n) {
  // Degenerate sizes: fall back to a trivial walk over a 2-element group.
  p_ = next_prime(n_ < 2 ? 3 : n_ + 1);
  const auto factors = prime_factors(p_ - 1);

  util::Rng rng(util::mix64(seed ^ p_));
  // Find a primitive root: g is a generator of Z_p^* iff g^((p-1)/q) != 1
  // for every prime factor q of p-1.
  for (;;) {
    const std::uint64_t candidate = 2 + rng.below(p_ - 3);
    bool primitive = true;
    for (const std::uint64_t q : factors) {
      if (pow_mod(candidate, (p_ - 1) / q, p_) == 1) {
        primitive = false;
        break;
      }
    }
    if (primitive) {
      g_ = candidate;
      break;
    }
  }
  start_ = 1 + rng.below(p_ - 1);  // any element of [1, p-1]
  reset();
}

std::uint64_t CyclicPermutation::element_at(std::uint64_t step) const noexcept {
  return static_cast<std::uint64_t>(
      static_cast<__uint128_t>(start_) * pow_mod(g_, step, p_) % p_);
}

CyclicPermutation::Walker CyclicPermutation::walk(
    std::uint64_t first_step, std::uint64_t last_step) const noexcept {
  first_step = std::min(first_step, steps());
  last_step = std::min(last_step, steps());
  const std::uint64_t count = last_step > first_step ? last_step - first_step : 0;
  return Walker(*this, first_step, count);
}

CyclicPermutation::Walker::Walker(const CyclicPermutation& permutation,
                                  std::uint64_t first_step,
                                  std::uint64_t count) noexcept
    : n_(permutation.n_),
      modulus_(permutation.p_),
      stride_(modulus_.form(pow_mod(permutation.g_, kLanes, permutation.p_))),
      remaining_(count) {
  const std::uint64_t g = modulus_.form(permutation.g_);
  lane_[0] = permutation.element_at(first_step);
  for (std::size_t j = 1; j < kLanes; ++j)
    lane_[j] = modulus_.mul(lane_[j - 1], g);
}

namespace {

/// Emits one lane's element (when it maps into [0, n)) and advances the lane.
void emit_and_advance(std::uint64_t& lane, const Montgomery& modulus,
                      std::uint64_t stride, std::uint64_t n,
                      std::uint64_t* out, std::size_t& written) noexcept {
  const std::uint64_t value = lane - 1;  // group element -> index
  out[written] = value;
  written += value < n ? 1 : 0;
  lane = modulus.mul(lane, stride);
}

}  // namespace

std::size_t CyclicPermutation::Walker::fill(std::uint64_t* out,
                                            std::size_t capacity) noexcept {
  std::uint64_t steps = std::min<std::uint64_t>(capacity, remaining_);
  remaining_ -= steps;
  std::size_t written = 0;
  // Finish the row a previous call stopped inside.
  for (; steps > 0 && next_lane_ != 0; --steps) {
    emit_and_advance(lane_[next_lane_], modulus_, stride_, n_, out, written);
    next_lane_ = (next_lane_ + 1) % kLanes;
  }
  if (steps >= kLanes) {
    // Whole rows, on local copies so the lanes and constants stay in
    // registers instead of being reloaded after every store to `out`; each
    // lane's multiply is independent of the others.
    const Montgomery modulus = modulus_;
    const std::uint64_t n = n_;
    const std::uint64_t stride = stride_;
    std::array<std::uint64_t, kLanes> lane = lane_;
    for (; steps >= kLanes; steps -= kLanes) {
#pragma GCC unroll 8
      for (std::size_t j = 0; j < kLanes; ++j)
        emit_and_advance(lane[j], modulus, stride, n, out, written);
    }
    lane_ = lane;
  }
  // Start the next row.
  for (; steps > 0; --steps)
    emit_and_advance(lane_[next_lane_++], modulus_, stride_, n_, out, written);
  return written;
}

void CyclicPermutation::reset() noexcept { cursor_ = walk(0, steps()); }

std::optional<std::uint64_t> CyclicPermutation::next() {
  std::uint64_t index = 0;
  while (!cursor_.done())
    if (cursor_.fill(&index, 1) == 1) return index;
  return std::nullopt;
}

}  // namespace encdns::scan
