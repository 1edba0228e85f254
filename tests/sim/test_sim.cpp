#include <gtest/gtest.h>

#include "sim/duration.hpp"

namespace encdns::sim {
namespace {

using namespace encdns::sim::literals;

TEST(Millis, Arithmetic) {
  EXPECT_EQ((5_ms + 3_ms).value, 8.0);
  EXPECT_EQ((5_ms - 3_ms).value, 2.0);
  EXPECT_EQ((5_ms * 2.0).value, 10.0);
  EXPECT_EQ((2.0 * 5_ms).value, 10.0);
  Millis m{1.0};
  m += Millis{2.0};
  m *= 3.0;
  EXPECT_EQ(m.value, 9.0);
}

TEST(Millis, SecondsConversion) {
  EXPECT_EQ(Millis::seconds(2.5).value, 2500.0);
  EXPECT_EQ(Millis{1500.0}.to_seconds(), 1.5);
}

TEST(Millis, Comparisons) {
  EXPECT_LT(1_ms, 2_ms);
  EXPECT_EQ(3_ms, Millis{3.0});
}

TEST(Millis, ToString) {
  EXPECT_EQ(Millis{12.3456}.to_string(), "12.35ms");
  EXPECT_EQ(Millis{2500.0}.to_string(), "2.50s");
}

}  // namespace
}  // namespace encdns::sim
