// HyperLogLog distinct-value sketches for the traffic layer (DESIGN.md §16).
//
// The adoption-scale NetFlow engine counts distinct clients over multi-year
// horizons; exact std::set tracking would grow with the client population and
// break the fixed-memory contract. A HyperLogLog register file is a constant
// 2^p bytes regardless of cardinality, and two sketches built from the same
// (precision, seed) merge by per-register max — so exec shards can sketch
// their day ranges independently and the canonical ascending-shard merge
// reproduces the single-threaded register file bit for bit.
//
// Determinism rules:
//  - hashing is seed-keyed mix64, no std::hash, no address-dependent state;
//  - merge is a pure register max, commutative and associative, so any
//    merge tree over the same shard set yields identical registers;
//  - estimate() depends only on the registers, so thread count can never
//    change a reported count.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/bytes.hpp"
#include "util/rng.hpp"

namespace encdns::traffic {

/// Seed-keyed HyperLogLog with the standard bias-corrected estimator and
/// linear-counting small-range correction (no large-range correction: the
/// 64-bit hash space makes collisions at measurable scale negligible).
class Hll {
 public:
  static constexpr int kMinPrecision = 4;
  static constexpr int kMaxPrecision = 16;
  /// p=14 → m=16384 registers, σ ≈ 1.04/√m ≈ 0.81% relative error.
  static constexpr int kDefaultPrecision = 14;
  static constexpr std::uint64_t kDefaultSeed = 0x5EED0DD5ULL;

  explicit Hll(int precision = kDefaultPrecision,
               std::uint64_t seed = kDefaultSeed);

  /// Fold one value into the sketch. Adding the same value twice is a no-op
  /// on the registers (rank max), which is what makes self-merge idempotent.
  /// Inline: the trend pass adds every generated record.
  void add(std::uint64_t value) noexcept {
    // Double mixing decorrelates the seed from structured inputs (sequential
    // client addresses differ in a handful of low bits).
    const std::uint64_t hash = util::mix64(util::mix64(value) ^ seed_);
    const std::size_t index =
        static_cast<std::size_t>(hash >> (64 - precision_));
    // The rank is the 1-based position of the leftmost set bit among the
    // 64 - p bits below the index, and 64 - p + 1 when they are all zero.
    const std::uint64_t rest = hash << precision_ >> precision_;
    const auto rank =
        static_cast<std::uint8_t>(std::countl_zero(rest) - precision_ + 1);
    if (rank > registers_[index]) registers_[index] = rank;
  }

  /// Bias-corrected cardinality estimate.
  [[nodiscard]] double estimate() const noexcept;
  /// `estimate()` rounded to the nearest integer (what reports print).
  [[nodiscard]] std::uint64_t estimate_u64() const noexcept;

  /// Per-register max. Throws std::invalid_argument if the sketches were
  /// built with different precision or hash seed — merging those would
  /// silently produce garbage counts.
  void merge(const Hll& other);

  /// Zero every register (capacity untouched): the day-retirement loop
  /// reuses one day sketch across the whole horizon.
  void clear() noexcept;

  /// One-sigma relative error of the estimator at this precision.
  [[nodiscard]] double relative_error_bound() const noexcept;

  [[nodiscard]] int precision() const noexcept { return precision_; }
  [[nodiscard]] std::uint64_t seed() const noexcept { return seed_; }
  [[nodiscard]] std::size_t register_count() const noexcept {
    return registers_.size();
  }
  [[nodiscard]] const std::vector<std::uint8_t>& registers() const noexcept {
    return registers_;
  }
  /// Codec restore path: replaces the register file. Throws
  /// std::invalid_argument if the size does not match 2^precision.
  void restore_registers(std::vector<std::uint8_t> registers);

  /// Journal codec (traffic/codec.cpp): precision as a u8, seed and
  /// registers in a checksummed envelope; decoding also rejects a precision,
  /// register count or rank that add() cannot produce.
  static constexpr std::uint8_t kCodecVersion = 1;
  static void encode(util::ByteWriter& w, const Hll& sketch);
  static void decode(util::ByteReader& r, Hll& sketch);

  /// Bytes of live state (the register file); used by the streaming engine's
  /// deterministic peak-memory accounting.
  [[nodiscard]] std::size_t memory_bytes() const noexcept {
    return registers_.size();
  }

  [[nodiscard]] bool operator==(const Hll& other) const noexcept {
    return precision_ == other.precision_ && seed_ == other.seed_ &&
           registers_ == other.registers_;
  }

 private:
  int precision_;
  std::uint64_t seed_;
  std::vector<std::uint8_t> registers_;
};

}  // namespace encdns::traffic
