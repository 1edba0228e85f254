// Unit tests for exec::CreditWindow, the bounded in-flight window joining
// the scan engine's transmit and receive loops (DESIGN.md §14). The window
// is flow control only — correctness rests on two invariants the engine
// asserts after every sweep: no credit leaks (in_flight returns to zero)
// and no double releases. These tests pin the primitive itself; the
// engine-level invariants (including the cancelled-with-queued-responses
// path) are covered in tests/scan/test_scan.cpp.
#include <gtest/gtest.h>

#include <vector>

#include "exec/cancel.hpp"
#include "exec/window.hpp"
#include "fault/fault.hpp"
#include "scan/engine.hpp"
#include "scan/permutation.hpp"
#include "scan/space.hpp"
#include "support/scan_identity.hpp"
#include "world/world.hpp"

namespace encdns::exec {
namespace {

TEST(CreditWindow, AcquireReleaseRoundTrip) {
  CreditWindow window(2);
  EXPECT_EQ(window.capacity(), 2u);
  EXPECT_EQ(window.in_flight(), 0u);
  EXPECT_TRUE(window.try_acquire());
  EXPECT_TRUE(window.try_acquire());
  EXPECT_EQ(window.in_flight(), 2u);
  window.release();
  EXPECT_EQ(window.in_flight(), 1u);
  window.release();
  EXPECT_EQ(window.in_flight(), 0u);
  EXPECT_EQ(window.double_releases(), 0u);
}

TEST(CreditWindow, RefusesWhenFull) {
  CreditWindow window(1);
  EXPECT_TRUE(window.try_acquire());
  EXPECT_FALSE(window.try_acquire());
  EXPECT_EQ(window.in_flight(), 1u);
  window.release();
  EXPECT_TRUE(window.try_acquire());
}

TEST(CreditWindow, CapacityClampedToOne) {
  // A zero-capacity window would deadlock the transmit loop on its first
  // probe; the constructor clamps instead of trusting the caller.
  CreditWindow window(0);
  EXPECT_EQ(window.capacity(), 1u);
  EXPECT_TRUE(window.try_acquire());
  EXPECT_FALSE(window.try_acquire());
}

TEST(CreditWindow, TracksHighWater) {
  CreditWindow window(8);
  EXPECT_EQ(window.high_water(), 0u);
  ASSERT_TRUE(window.try_acquire());
  ASSERT_TRUE(window.try_acquire());
  ASSERT_TRUE(window.try_acquire());
  EXPECT_EQ(window.high_water(), 3u);
  window.release();
  window.release();
  ASSERT_TRUE(window.try_acquire());
  // High water is a maximum, not the current depth.
  EXPECT_EQ(window.high_water(), 3u);
  EXPECT_EQ(window.in_flight(), 2u);
}

TEST(CreditWindow, CountsDoubleReleasesWithoutUnderflow) {
  CreditWindow window(4);
  ASSERT_TRUE(window.try_acquire());
  window.release();
  EXPECT_EQ(window.in_flight(), 0u);
  // Releasing a credit nobody holds is the bug the engine's accounting
  // exists to catch: it is counted, and in_flight never wraps.
  window.release();
  window.release();
  EXPECT_EQ(window.double_releases(), 2u);
  EXPECT_EQ(window.in_flight(), 0u);
  // The window still works normally afterwards.
  EXPECT_TRUE(window.try_acquire());
  EXPECT_EQ(window.in_flight(), 1u);
}

// Regression for the deadline × in-flight interaction (sits with the other
// cancellation tests): when a sweep is cancelled while probes are still
// queued in the receive ring, every queued response's credit must be
// released exactly once — the drain must neither leak credits (a probe
// cancelled with its response in flight) nor double-release (a duplicate or
// stale ghost, which never held a credit, being "released" too).
TEST(CreditWindow, EngineCancelDrainReleasesEveryCreditExactlyOnce) {
  const auto cancelled_sweep = [] {
    world::WorldConfig world_config;
    // Faults on, so the receive ring holds a mix of credited responses and
    // credit-less duplicates/stale ghosts at the moment the cut lands.
    world_config.fault_profile = fault::FaultProfile::canonical();
    world::World world(world_config);
    const auto& all = world.scan_prefixes();
    scan::ScanSpace space(
        std::vector<util::Cidr>(all.begin(), all.begin() + 2));
    scan::CyclicPermutation permutation(space.size(), 41);
    CancelToken cancel;
    scan::EngineConfig config;
    config.seed = 4242;
    config.thread_count = 1;  // the per-shard cut point is deterministic
    config.cancel = &cancel;
    config.cancel_after_tx = 1000;  // trip mid-shard, ring non-empty
    scan::ScanEngine engine(world, config);
    return engine.sweep(space, permutation, {world.make_clean_vantage("US")},
                        util::Date{2019, 2, 1});
  };
  const world::World probe_world;
  const auto& prefixes = probe_world.scan_prefixes();
  const scan::ScanSpace full(
      std::vector<util::Cidr>(prefixes.begin(), prefixes.begin() + 2));
  const scan::SweepResult result = cancelled_sweep();
  EXPECT_GT(result.tally.probed, 0u);
  EXPECT_LT(result.tally.probed, full.size());  // genuinely cut short
  EXPECT_EQ(result.tally.credit_leaks, 0u);
  EXPECT_EQ(result.tally.double_releases, 0u);
  scan::expect_scan_identity(result.tally);
  // And the cut itself is deterministic at one thread: a rerun produces the
  // identical truncated tally.
  const scan::SweepResult again = cancelled_sweep();
  EXPECT_EQ(result.tally.probed, again.tally.probed);
  EXPECT_EQ(result.tally.transmitted, again.tally.transmitted);
  EXPECT_EQ(result.open_hosts, again.open_hosts);
}

}  // namespace
}  // namespace encdns::exec
