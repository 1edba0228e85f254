// The blocked sweep kernel's building blocks (DESIGN.md §14 "transmit
// kernel"): the permutation walker's block/lane stepping, its Montgomery
// reduction, and the engine's exact test-hook cut and scan identity.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "exec/cancel.hpp"
#include "fault/fault.hpp"
#include "scan/engine.hpp"
#include "scan/permutation.hpp"
#include "scan/space.hpp"
#include "support/scan_identity.hpp"
#include "util/rng.hpp"
#include "world/world.hpp"

namespace encdns::scan {
namespace {

constexpr std::size_t kLanes = CyclicPermutation::Walker::kLanes;

/// Drains `walker` in calls of `block` steps each.
void drain(CyclicPermutation::Walker walker, std::size_t block,
           std::vector<std::uint64_t>& out) {
  std::vector<std::uint64_t> buffer(block);
  while (!walker.done()) {
    const std::size_t written = walker.fill(buffer.data(), buffer.size());
    ASSERT_LE(written, block);
    out.insert(out.end(), buffer.begin(),
               buffer.begin() + static_cast<long>(written));
  }
  EXPECT_EQ(walker.fill(buffer.data(), buffer.size()), 0u);  // stays done
}

class WalkerPartition : public ::testing::TestWithParam<std::uint64_t> {};

// Shards of walk() over a partition of [0, steps()) concatenate to exactly
// the serial next() sequence, however many shards and however the walk is
// cut into fill() calls — including calls that stop inside a lane row.
TEST_P(WalkerPartition, ShardsConcatenateToTheSerialCycle) {
  const std::uint64_t n = GetParam();
  CyclicPermutation permutation(n, 0xFEED + n);
  std::vector<std::uint64_t> serial;
  while (const auto index = permutation.next()) serial.push_back(*index);
  ASSERT_EQ(serial.size(), n);

  for (const std::uint64_t shards : {1u, 7u, 64u}) {
    for (const std::size_t block : {std::size_t{1}, kLanes - 1, kLanes + 1,
                                    CyclicPermutation::Walker::kBlock}) {
      std::vector<std::uint64_t> walked;
      for (std::uint64_t s = 0; s < shards; ++s) {
        const std::uint64_t first = permutation.steps() * s / shards;
        const std::uint64_t last = permutation.steps() * (s + 1) / shards;
        drain(permutation.walk(first, last), block, walked);
      }
      EXPECT_EQ(walked, serial) << "shards " << shards << ", block " << block;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, WalkerPartition,
                         ::testing::Values(0, 1, 2, 3, 10, 97, 100, 1021, 4096,
                                           65536));

// At the IPv4 ceiling the prime is 2^32 + 15, so the group elements need 33
// bits and their products overflow 64: sampled windows around every shard
// boundary (and the cycle's end) must still match element_at() exactly.
TEST(WalkerPartition, FullIpv4SpaceMatchesElementAtAroundShardBoundaries) {
  for (const std::uint64_t n : {(1ULL << 32) - 1, 1ULL << 32}) {
    const CyclicPermutation permutation(n, 2019);
    ASSERT_EQ(permutation.prime(), 4294967311ULL);
    constexpr std::uint64_t kShards = 64;
    constexpr std::uint64_t kRadius = 3 * kLanes + 5;
    for (std::uint64_t s = 0; s <= kShards; ++s) {
      const std::uint64_t boundary = permutation.steps() * s / kShards;
      const std::uint64_t first = boundary >= kRadius ? boundary - kRadius : 0;
      const std::uint64_t last =
          std::min(boundary + kRadius, permutation.steps());
      std::vector<std::uint64_t> expected;
      for (std::uint64_t step = first; step < last; ++step) {
        const std::uint64_t index = permutation.element_at(step) - 1;
        if (index < n) expected.push_back(index);
      }
      for (const std::size_t block : {std::size_t{1}, kLanes + 1,
                                      CyclicPermutation::Walker::kBlock}) {
        std::vector<std::uint64_t> walked;
        drain(permutation.walk(first, last), block, walked);
        EXPECT_EQ(walked, expected) << "n " << n << ", boundary " << boundary;
      }
    }
  }
}

// Montgomery::mul against a 128-bit reference on random operands, for small,
// scan-sized (33-bit), and near-64-bit odd moduli.
TEST(Montgomery, MatchesA128BitReference) {
  util::Rng rng(0x3057);
  std::vector<std::uint64_t> moduli = {3, 5, 4194319, 4294967291ULL,
                                       4294967311ULL, (1ULL << 33) - 9,
                                       18446744073709551557ULL,
                                       ~std::uint64_t{0}};
  for (int i = 0; i < 8; ++i) moduli.push_back(rng.next() | 1);
  for (int i = 0; i < 8; ++i) moduli.push_back((rng.next() >> 30) | 1);
  for (const std::uint64_t p : moduli) {
    const Montgomery modulus(p);
    const auto reduce = [p](__uint128_t x) {
      return static_cast<std::uint64_t>(x % p);
    };
    for (int i = 0; i < 2000; ++i) {
      std::uint64_t x = rng.below(p), c = rng.below(p);
      if (i < 4) {  // the edges of the operand range
        x = (i & 1) ? p - 1 : 0;
        c = (i & 2) ? p - 1 : 0;
      }
      const __uint128_t product = static_cast<__uint128_t>(x) * c;
      // Normal form times Montgomery form is the plain modular product.
      ASSERT_EQ(modulus.mul(x, modulus.form(c)), reduce(product))
          << x << " * " << c << " mod " << p;
      // Two plain operands give x * c * 2^-64: times 2^64 it is x * c again.
      const std::uint64_t r = modulus.mul(x, c);
      ASSERT_LT(r, p);
      ASSERT_EQ(reduce(static_cast<__uint128_t>(r) << 64), reduce(product))
          << x << " * " << c << " mod " << p;
    }
  }
}

// ---------------------------------------------------------------------------
// Engine: the test hook's cut point and the scan identity.

struct CutCase {
  bool faults;
  std::size_t window;
  std::uint64_t cancel_after_tx;
  std::uint64_t transmitted;
  std::uint64_t probed;
  std::size_t open_hosts;
  std::uint64_t open_digest;  // fnv-style fold of the open addresses in order
};

std::uint64_t digest(const std::vector<util::Ipv4>& hosts) {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (const util::Ipv4 addr : hosts) h = (h ^ addr.value()) * 0x100000001B3ULL;
  return h;
}

// Values recorded from the per-probe transmit loop the block kernel
// replaced: at one thread the hook must cut after exactly the same
// transmission, fault-free and under the canonical fault profile, on both
// sides of the old 4096-transmission poll stride.
TEST(ScanEngine, TestHookCutsAfterTheSameTransmission) {
  constexpr std::uint64_t kNoOpens = 0xCBF29CE484222325ULL;
  constexpr std::size_t kWide = EngineConfig::kDefaultWindow;
  const CutCase cases[] = {
      // Fault-free, nothing is classified before the cut: the ~1% open
      // background hosts still sit in the 256-credit window and are
      // dropped by the cancelled drain.
      {false, kWide, 1, 1, 1, 0, kNoOpens},
      {false, kWide, 1000, 1000, 1000, 0, kNoOpens},
      {false, kWide, 4096, 4096, 4096, 0, kNoOpens},
      {false, kWide, 4097, 4097, 4097, 0, kNoOpens},
      // A one-credit window classifies each open host as the next arrives.
      {false, 1, 1, 1, 1, 0, kNoOpens},
      {false, 1, 1000, 1000, 1000, 5, 0xFE4774060DD236D4ULL},
      {false, 1, 4096, 4096, 4096, 41, 0xDDF887E8D92A327EULL},
      {false, 1, 4097, 4097, 4097, 41, 0xDDF887E8D92A327EULL},
      // Faults on: retransmits land inside an address's transmission, so
      // the cut can overshoot the hook by one (4097 -> 4098).
      {true, kWide, 1, 1, 1, 0, kNoOpens},
      {true, kWide, 1000, 1000, 998, 3, 0xD6D30575FD7745F5ULL},
      {true, kWide, 4096, 4096, 4087, 29, 0x26D0CE2BA21B3381ULL},
      {true, kWide, 4097, 4098, 4088, 29, 0x26D0CE2BA21B3381ULL},
  };
  for (const CutCase& expected : cases) {
    world::WorldConfig world_config;
    if (expected.faults)
      world_config.fault_profile = fault::FaultProfile::canonical();
    world::World world(world_config);
    const auto& all = world.scan_prefixes();
    const ScanSpace space(std::vector<util::Cidr>(all.begin(), all.begin() + 8));
    const CyclicPermutation permutation(space.size(), 41);
    exec::CancelToken cancel;
    EngineConfig config;
    config.seed = 4242;
    config.thread_count = 1;
    config.cancel = &cancel;
    config.cancel_after_tx = expected.cancel_after_tx;
    config.window = expected.window;
    const ScanEngine engine(world, config);
    const SweepResult result = engine.sweep(
        space, permutation, {world.make_clean_vantage("US")}, {2019, 2, 1});
    SCOPED_TRACE(::testing::Message()
                 << (expected.faults ? "faults" : "fault-free") << ", window "
                 << expected.window
                 << ", cancel_after_tx " << expected.cancel_after_tx);
    EXPECT_TRUE(cancel.cancelled());
    EXPECT_EQ(result.tally.transmitted, expected.transmitted);
    EXPECT_EQ(result.tally.probed, expected.probed);
    EXPECT_EQ(result.open_hosts.size(), expected.open_hosts);
    EXPECT_EQ(digest(result.open_hosts), expected.open_digest);
    expect_scan_identity(result.tally);
  }
}

}  // namespace
}  // namespace encdns::scan
