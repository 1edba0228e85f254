#include "util/bytes.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace encdns::util {
namespace {

TEST(Bytes, RoundTripsEveryFieldType) {
  ByteWriter w;
  w.u8(0xAB);
  w.u16(0xBEEF);
  w.u32(0xDEADBEEFu);
  w.u64(0x0123456789ABCDEFull);
  w.i64(-42);
  w.f64(-1234.5678);
  w.boolean(true);
  w.boolean(false);
  w.str("checkpoint");
  w.str("");
  w.blob({1, 2, 3});

  ByteReader r(w.data());
  EXPECT_EQ(r.u8(), 0xAB);
  EXPECT_EQ(r.u16(), 0xBEEF);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(r.i64(), -42);
  EXPECT_DOUBLE_EQ(r.f64(), -1234.5678);
  EXPECT_TRUE(r.boolean());
  EXPECT_FALSE(r.boolean());
  EXPECT_EQ(r.str(), "checkpoint");
  EXPECT_EQ(r.str(), "");
  EXPECT_EQ(r.blob(), (std::vector<std::uint8_t>{1, 2, 3}));
  EXPECT_NO_THROW(r.expect_done());
}

// The journal's on-disk layout: every fixed-width field little-endian, in
// exactly its width, whatever the host's byte order.
TEST(Bytes, FixedWidthFieldsAreLittleEndian) {
  ByteWriter w;
  w.u16(0x0102);
  w.u32(0x03040506u);
  w.u64(0x0708090A0B0C0D0Eull);
  w.i64(-2);
  w.f64(1.0);  // IEEE-754 0x3FF0000000000000
  const std::vector<std::uint8_t> expected = {
      0x02, 0x01,                                      // u16
      0x06, 0x05, 0x04, 0x03,                          // u32
      0x0E, 0x0D, 0x0C, 0x0B, 0x0A, 0x09, 0x08, 0x07,  // u64
      0xFE, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF,  // i64
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xF0, 0x3F,  // f64
  };
  EXPECT_EQ(w.data(), expected);
}

TEST(Bytes, DoubleBitPatternSurvivesExactly) {
  for (const double v : {0.0, -0.0, 1.0 / 3.0,
                         std::numeric_limits<double>::denorm_min(),
                         std::numeric_limits<double>::max()}) {
    ByteWriter w;
    w.f64(v);
    ByteReader r(w.data());
    EXPECT_EQ(std::bit_cast<std::uint64_t>(r.f64()),
              std::bit_cast<std::uint64_t>(v));
  }
}

TEST(Bytes, TruncatedInputFailsClosed) {
  ByteWriter w;
  w.u64(7);
  const auto& bytes = w.data();
  ByteReader r(bytes.data(), bytes.size() - 1);
  EXPECT_THROW((void)r.u64(), CodecError);
}

TEST(Bytes, OversizedLengthPrefixFailsClosed) {
  ByteWriter w;
  w.u32(0xFFFFFFFFu);  // str length claiming 4 GiB with no payload
  ByteReader r(w.data());
  EXPECT_THROW((void)r.str(), CodecError);
}

TEST(Bytes, MalformedBooleanFailsClosed) {
  ByteWriter w;
  w.u8(2);
  ByteReader r(w.data());
  EXPECT_THROW((void)r.boolean(), CodecError);
}

TEST(Bytes, CountGuardRejectsHostilePrefix) {
  ByteWriter w;
  w.u32(1000);  // claims 1000 elements of >= 8 bytes with 8 bytes remaining
  w.u64(0);
  ByteReader r(w.data());
  EXPECT_THROW((void)r.count(8), CodecError);
}

TEST(Bytes, CountAcceptsExactFit) {
  ByteWriter w;
  w.u32(2);
  w.u64(10);
  w.u64(20);
  ByteReader r(w.data());
  EXPECT_EQ(r.count(8), 2u);
  EXPECT_EQ(r.u64(), 10u);
  EXPECT_EQ(r.u64(), 20u);
}

TEST(Bytes, ExpectDoneRejectsTrailingBytes) {
  ByteWriter w;
  w.u8(1);
  w.u8(2);
  ByteReader r(w.data());
  (void)r.u8();
  EXPECT_THROW(r.expect_done(), CodecError);
}

TEST(Bytes, Fnv1aIsResumable) {
  const std::vector<std::uint8_t> bytes = {'j', 'o', 'u', 'r', 'n', 'a', 'l'};
  const std::uint64_t whole = fnv1a_bytes(bytes.data(), bytes.size());
  const std::uint64_t head = fnv1a_bytes(bytes.data(), 3);
  const std::uint64_t resumed = fnv1a_bytes(bytes.data() + 3, bytes.size() - 3, head);
  EXPECT_EQ(whole, resumed);
  EXPECT_NE(whole, fnv1a_bytes(bytes.data(), bytes.size() - 1));
}

}  // namespace
}  // namespace encdns::util
