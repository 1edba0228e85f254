// ZMap's address-ordering trick (Durumeric et al., USENIX Security 2013):
// iterate the multiplicative group of integers modulo a prime p > n using a
// primitive root g, so every index in [0, n) is visited exactly once in an
// order that looks random — spreading probe load across networks without
// keeping per-address state.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

namespace encdns::scan {

/// Deterministic Miller-Rabin for 64-bit integers.
[[nodiscard]] bool is_prime(std::uint64_t n) noexcept;

/// Smallest prime >= n.
[[nodiscard]] std::uint64_t next_prime(std::uint64_t n) noexcept;

/// Distinct prime factors (trial division; intended for p-1 of scan-sized p).
[[nodiscard]] std::vector<std::uint64_t> prime_factors(std::uint64_t n);

/// (base^exp) mod m without overflow.
[[nodiscard]] std::uint64_t pow_mod(std::uint64_t base, std::uint64_t exp,
                                    std::uint64_t mod) noexcept;

/// Multiplication modulo an odd p by Montgomery reduction with R = 2^64: a
/// 64x64->128 product plus one low and one high multiply, no division. The
/// product of two values below p is below p * 2^64, so its high word and
/// that of the correction m * p both lie in [0, p) and their difference
/// needs at most one add of p — exact for every odd p, including the scan
/// primes just above 2^32 whose products overflow 64 bits.
class Montgomery {
 public:
  /// Requires p odd.
  explicit Montgomery(std::uint64_t p) noexcept;

  /// c * 2^64 mod p: the Montgomery form of c (setup only; divides).
  [[nodiscard]] std::uint64_t form(std::uint64_t c) const noexcept;

  /// x * y * 2^-64 mod p for x, y < p. With y = form(c) this is the plain
  /// x * c mod p, so a value kept in normal form stays in normal form.
  [[nodiscard]] std::uint64_t mul(std::uint64_t x,
                                  std::uint64_t y) const noexcept {
    const __uint128_t t = static_cast<__uint128_t>(x) * y;
    const std::uint64_t m = static_cast<std::uint64_t>(t) * inverse_;
    const auto t_hi = static_cast<std::uint64_t>(t >> 64);
    const auto mp_hi = static_cast<std::uint64_t>(
        (static_cast<__uint128_t>(m) * p_) >> 64);
    return t_hi >= mp_hi ? t_hi - mp_hi : t_hi - mp_hi + p_;
  }

 private:
  std::uint64_t p_ = 1;
  std::uint64_t inverse_ = 1;  // p^-1 mod 2^64
};

/// A full-cycle permutation of [0, n).
class CyclicPermutation {
 public:
  /// `seed` selects the generator and the starting point.
  CyclicPermutation(std::uint64_t n, std::uint64_t seed);

  /// The next index, or nullopt when the cycle has completed. Every value in
  /// [0, n) is produced exactly once.
  [[nodiscard]] std::optional<std::uint64_t> next();

  /// Restart the cycle from the beginning.
  void reset() noexcept;

  [[nodiscard]] std::uint64_t size() const noexcept { return n_; }
  [[nodiscard]] std::uint64_t prime() const noexcept { return p_; }
  [[nodiscard]] std::uint64_t generator() const noexcept { return g_; }

  /// Group steps in one full cycle (= p-1). Only steps whose element-1 falls
  /// below n emit an index, so steps() >= size().
  [[nodiscard]] std::uint64_t steps() const noexcept { return p_ - 1; }

  /// The group element visited at `step` (start * g^step mod p), computed in
  /// O(log step) — the jump that makes sharded sweeps possible.
  [[nodiscard]] std::uint64_t element_at(std::uint64_t step) const noexcept;

  /// A read-only cursor over the step range [first, last) of the cycle.
  /// Walking every shard of a partition of [0, steps()) visits exactly the
  /// indices the serial cycle visits, each exactly once.
  ///
  /// The walk runs kLanes independent multiply chains: lane j holds the
  /// element of step first + j + kLanes*r and advances by g^kLanes, one
  /// Montgomery multiply per step, so consecutive steps never wait on each
  /// other's reduction.
  class Walker {
   public:
    static constexpr std::size_t kLanes = 8;
    /// Steps per fill() call in the sweeps that walk a range block by block.
    static constexpr std::size_t kBlock = 512;

    /// Walks up to `capacity` steps and writes the index of each one whose
    /// element-1 falls below n to `out`, in step order. Returns the number
    /// written, which is below the steps walked only where an element lands
    /// in [n+1, p-1]; done() says whether the range is exhausted.
    std::size_t fill(std::uint64_t* out, std::size_t capacity) noexcept;

    [[nodiscard]] bool done() const noexcept { return remaining_ == 0; }

   private:
    friend class CyclicPermutation;
    Walker() = default;
    Walker(const CyclicPermutation& permutation, std::uint64_t first_step,
           std::uint64_t count) noexcept;

    std::uint64_t n_ = 0;
    Montgomery modulus_{1};
    std::uint64_t stride_ = 0;  // Montgomery form of g^kLanes
    std::array<std::uint64_t, kLanes> lane_{};
    std::size_t next_lane_ = 0;  // lane of the next step
    std::uint64_t remaining_ = 0;
  };
  [[nodiscard]] Walker walk(std::uint64_t first_step,
                            std::uint64_t last_step) const noexcept;

 private:
  std::uint64_t n_;
  std::uint64_t p_;      // prime > n
  std::uint64_t g_;      // primitive root mod p
  std::uint64_t start_;  // first group element
  Walker cursor_;  // next() walks [0, steps()) one step at a time
};

}  // namespace encdns::scan
