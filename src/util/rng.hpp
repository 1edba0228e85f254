// Deterministic pseudo-random number generation for the simulation.
//
// Every stochastic decision in encdns flows from a seeded generator so that a
// whole measurement study is reproducible bit-for-bit from a single seed.
// We use xoshiro256++ (Blackman & Vigna) seeded through splitmix64, which is
// the customary way to expand a 64-bit seed into xoshiro's 256-bit state.
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <limits>
#include <string_view>
#include <vector>

namespace encdns::util {

/// One step of the splitmix64 sequence starting at `x`. Also usable as a
/// high-quality 64-bit integer mixer/finalizer.
[[nodiscard]] inline std::uint64_t splitmix64(std::uint64_t& x) noexcept {
  x += 0x9E3779B97F4A7C15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// Stateless mix of a 64-bit value (splitmix64 finalizer). Used to derive
/// independent child seeds and for procedural "is this address special?"
/// predicates that must not consume generator state. Inline: the sweep's
/// closed-verdict oracle calls it once or twice per probe.
[[nodiscard]] inline std::uint64_t mix64(std::uint64_t x) noexcept {
  return splitmix64(x);
}

/// FNV-1a hash of a byte string, for deterministic keyed lookups.
[[nodiscard]] std::uint64_t fnv1a(std::string_view s) noexcept;

/// The complete serializable state of an Rng: the xoshiro256++ words plus
/// the Box-Muller spare. Restoring a saved state resumes the exact deviate
/// stream, which is what the study checkpoint's RNG cursors rely on.
struct RngState {
  std::array<std::uint64_t, 4> words{};
  double cached_normal = 0.0;
  bool has_cached_normal = false;

  static void fields(auto& self, auto&& visit) {
    visit(self.words, self.cached_normal, self.has_cached_normal);
  }
};

/// xoshiro256++ generator. Satisfies UniformRandomBitGenerator.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0xEC0DD5EC0DD5ULL) noexcept;

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept {
    return std::numeric_limits<result_type>::max();
  }

  result_type operator()() noexcept { return next(); }
  // next/below/uniform/chance are inline: the traffic passes draw several
  // per generated flow.
  result_type next() noexcept {
    const std::uint64_t result =
        std::rotl(state_[0] + state_[3], 23) + state_[0];
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = std::rotl(state_[3], 45);
    return result;
  }

  /// Uniform integer in [0, bound) using Lemire's multiply-shift rejection.
  /// bound == 0 returns 0.
  [[nodiscard]] std::uint64_t below(std::uint64_t bound) noexcept {
    if (bound == 0) return 0;
    // Lemire's nearly-divisionless method.
    std::uint64_t x = next();
    __uint128_t m = static_cast<__uint128_t>(x) * bound;
    auto lo = static_cast<std::uint64_t>(m);
    if (lo < bound) {
      const std::uint64_t threshold = -bound % bound;
      while (lo < threshold) {
        x = next();
        m = static_cast<__uint128_t>(x) * bound;
        lo = static_cast<std::uint64_t>(m);
      }
    }
    return static_cast<std::uint64_t>(m >> 64);
  }

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  [[nodiscard]] std::int64_t range(std::int64_t lo, std::int64_t hi) noexcept;

  /// Uniform double in [0, 1).
  [[nodiscard]] double uniform() noexcept {
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  [[nodiscard]] double uniform(double lo, double hi) noexcept;

  /// Bernoulli trial with success probability p (clamped to [0,1]); draws
  /// nothing when p <= 0 or p >= 1.
  [[nodiscard]] bool chance(double p) noexcept {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return uniform() < p;
  }

  /// Standard normal deviate (Box-Muller, cached second value).
  [[nodiscard]] double normal() noexcept;

  /// Normal deviate with mean/stddev.
  [[nodiscard]] double normal(double mean, double stddev) noexcept;

  /// Exponential deviate with the given mean (mean <= 0 returns 0).
  [[nodiscard]] double exponential(double mean) noexcept;

  /// Log-normal deviate parameterized by the median and a multiplicative
  /// sigma (log-space stddev). Handy for heavy-tailed latency components.
  [[nodiscard]] double lognormal(double median, double sigma) noexcept;

  /// Pareto (power-law) deviate with scale xm > 0 and shape alpha > 0.
  [[nodiscard]] double pareto(double xm, double alpha) noexcept;

  /// Poisson deviate (Knuth for small lambda, normal approx for large).
  [[nodiscard]] std::uint64_t poisson(double lambda) noexcept;

  /// Index drawn according to non-negative `weights` (all-zero -> 0).
  [[nodiscard]] std::size_t weighted(const std::vector<double>& weights) noexcept;

  /// Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) noexcept {
    for (std::size_t i = v.size(); i > 1; --i) {
      using std::swap;
      swap(v[i - 1], v[below(i)]);
    }
  }

  /// Derive an independent child generator; `stream` distinguishes siblings.
  [[nodiscard]] Rng fork(std::uint64_t stream) const noexcept;

  /// Capture the full generator state (checkpoint cursor).
  [[nodiscard]] RngState state() const noexcept {
    return RngState{state_, cached_normal_, has_cached_normal_};
  }

  /// Resume from a captured state, bypassing the seed expansion.
  void restore(const RngState& state) noexcept {
    state_ = state.words;
    cached_normal_ = state.cached_normal;
    has_cached_normal_ = state.has_cached_normal;
  }

 private:
  std::array<std::uint64_t, 4> state_{};
  double cached_normal_ = 0.0;
  bool has_cached_normal_ = false;
};

}  // namespace encdns::util
