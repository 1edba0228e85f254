// Simulated-time units. All latencies in encdns are carried as Millis, a
// strong double-millisecond type, so latency arithmetic cannot be silently
// mixed with other scalars (counts, bytes, ...).
#pragma once

#include <compare>
#include <string>

namespace encdns::sim {

/// A span of simulated time in milliseconds.
struct Millis {
  double value = 0.0;

  constexpr Millis() = default;
  constexpr explicit Millis(double ms) noexcept : value(ms) {}

  static void fields(auto& self, auto&& visit) { visit(self.value); }

  [[nodiscard]] static constexpr Millis seconds(double s) noexcept {
    return Millis{s * 1000.0};
  }
  [[nodiscard]] constexpr double to_seconds() const noexcept { return value / 1000.0; }

  constexpr Millis& operator+=(Millis other) noexcept {
    value += other.value;
    return *this;
  }
  constexpr Millis& operator-=(Millis other) noexcept {
    value -= other.value;
    return *this;
  }
  constexpr Millis& operator*=(double k) noexcept {
    value *= k;
    return *this;
  }

  auto operator<=>(const Millis&) const = default;

  [[nodiscard]] std::string to_string() const;
};

[[nodiscard]] constexpr Millis operator+(Millis a, Millis b) noexcept {
  return Millis{a.value + b.value};
}
[[nodiscard]] constexpr Millis operator-(Millis a, Millis b) noexcept {
  return Millis{a.value - b.value};
}
[[nodiscard]] constexpr Millis operator*(Millis a, double k) noexcept {
  return Millis{a.value * k};
}
[[nodiscard]] constexpr Millis operator*(double k, Millis a) noexcept {
  return Millis{a.value * k};
}

namespace literals {
[[nodiscard]] constexpr Millis operator""_ms(long double v) noexcept {
  return Millis{static_cast<double>(v)};
}
[[nodiscard]] constexpr Millis operator""_ms(unsigned long long v) noexcept {
  return Millis{static_cast<double>(v)};
}
}  // namespace literals

}  // namespace encdns::sim
