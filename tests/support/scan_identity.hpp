// The scan engine's accounting identities, asserted after every engine
// sweep in the tests: each transmission is an address's first probe or a
// retransmit, and the in-flight window neither leaks a credit nor releases
// one twice — on every path, cancellation with queued responses included.
#pragma once

#include <gtest/gtest.h>

#include "scan/engine.hpp"

namespace encdns::scan {

inline void expect_scan_identity(const scan::EngineTally& tally) {
  EXPECT_EQ(tally.transmitted, tally.probed + tally.retransmits);
  EXPECT_EQ(tally.credit_leaks, 0u);
  EXPECT_EQ(tally.double_releases, 0u);
}

}  // namespace encdns::scan
