// Round-trip and fail-closed fuzzing for the checksummed adoption-scale
// codecs (DESIGN.md §16): HLL sketches and trend results. The envelope —
// version byte, FNV-1a payload checksum, payload blob — must make EVERY
// truncation, EVERY single-byte corruption, and any version skew throw
// util::CodecError rather than resurrect an almost-right sketch or series. The fuzz loops literally enumerate all of them.
// The unenveloped traffic state decoders (the scan detector, monthly series)
// get structured mutations instead: one well-framed input per semantic check.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "support/fail_closed.hpp"
#include "traffic/hll.hpp"
#include "traffic/netflow_study.hpp"
#include "traffic/scan_detector.hpp"
#include "traffic/trend_study.hpp"
#include "util/bytes.hpp"
#include "util/fields.hpp"
#include "util/rng.hpp"

namespace encdns::traffic {
namespace {

using util::ByteReader;
using util::ByteWriter;
using util::CodecError;

Hll sample_hll() {
  Hll sketch(12, 77);
  for (std::uint64_t i = 0; i < 5000; ++i)
    sketch.add(util::mix64(0xABCDULL + i));
  return sketch;
}

TrendStudyResults sample_trend_results() {
  TrendStudyConfig config;
  config.start = util::Date{2018, 1, 1};
  config.end = util::Date{2018, 5, 1};
  config.seed = 11;
  config.scale = 0.01;
  config.validate_exact = true;
  return TrendStudy(config).run();
}

Hll decode_hll(ByteReader& r) {
  Hll sketch;
  Hll::decode(r, sketch);
  return sketch;
}

// Assert that every strict prefix and every single-byte corruption of
// `bytes` fails closed, and that an unknown version byte is rejected.
template <typename Decode>
void expect_fail_closed(const std::vector<std::uint8_t>& bytes,
                        Decode decode) {
  fuzz::for_each_prefix_and_flip(
      bytes, [&](const std::vector<std::uint8_t>& mutated,
                 const std::string& what) {
        ByteReader r(mutated);
        EXPECT_THROW((void)decode(r), CodecError) << what;
      });
  for (const std::uint8_t version : {0, 1, 2, 3, 255}) {
    if (version == bytes[0]) continue;  // the codec's own version
    std::vector<std::uint8_t> skewed = bytes;
    skewed[0] = version;
    ByteReader r(skewed);
    EXPECT_THROW((void)decode(r), CodecError) << "version " << int(version);
  }
}

TEST(TrafficCodec, HllRoundTripsExactly) {
  const Hll sketch = sample_hll();
  const auto bytes = util::encode(sketch);
  ByteReader r(bytes);
  const Hll decoded = decode_hll(r);
  EXPECT_TRUE(r.done());
  EXPECT_EQ(decoded, sketch);
  EXPECT_EQ(decoded.estimate_u64(), sketch.estimate_u64());
}

TEST(TrafficCodec, EmptyHllRoundTrips) {
  const Hll sketch;
  const auto bytes = util::encode(sketch);
  ByteReader r(bytes);
  EXPECT_EQ(decode_hll(r), sketch);
}

TEST(TrafficCodec, HllFailsClosedOnAnyCorruption) {
  expect_fail_closed(util::encode(sample_hll()),
                     [](ByteReader& r) { return decode_hll(r); });
}

TEST(TrafficCodec, TrendResultsRoundTripExactly) {
  const TrendStudyResults results = sample_trend_results();
  ASSERT_GT(results.total_records, 0u);
  ASSERT_FALSE(results.providers.empty());

  const auto bytes = util::encode(results);
  const auto decoded = util::decode<TrendStudyResults>(bytes);

  // Field-level spot checks, then the decisive identity: re-encoding the
  // decoded value must reproduce the original bytes exactly.
  EXPECT_EQ(decoded.total_records, results.total_records);
  EXPECT_EQ(decoded.total_bytes, results.total_bytes);
  EXPECT_EQ(decoded.hll_precision, results.hll_precision);
  EXPECT_EQ(decoded.days_processed, results.days_processed);
  EXPECT_EQ(decoded.peak_tracked_bytes, results.peak_tracked_bytes);
  ASSERT_EQ(decoded.providers.size(), results.providers.size());
  for (std::size_t i = 0; i < results.providers.size(); ++i) {
    EXPECT_EQ(decoded.providers[i].name, results.providers[i].name);
    EXPECT_EQ(decoded.providers[i].monthly.size(),
              results.providers[i].monthly.size());
    EXPECT_EQ(decoded.providers[i].clients_estimated,
              results.providers[i].clients_estimated);
    EXPECT_EQ(decoded.providers[i].clients_exact,
              results.providers[i].clients_exact);
  }
  ASSERT_EQ(decoded.events.size(), results.events.size());
  EXPECT_EQ(util::encode(decoded), bytes);
}

TEST(TrafficCodec, TrendResultsFailClosedOnAnyCorruption) {
  // A smaller horizon keeps the encoded record compact enough to fuzz every
  // byte position while still exercising providers and months.
  TrendStudyConfig config;
  config.start = util::Date{2018, 4, 1};
  config.end = util::Date{2018, 6, 1};
  config.seed = 5;
  config.scale = 0.005;
  const TrendStudyResults results = TrendStudy(config).run();
  expect_fail_closed(util::encode(results), [](ByteReader& r) {
    TrendStudyResults decoded;
    util::read(r, decoded);
    return decoded;
  });
}

TEST(TrafficCodec, HllDecodeRejectsImpossibleRegisterRank) {
  // A register claiming a rank beyond 64-precision+1 cannot arise from any
  // add(); the decoder must reject it even when the checksum is rewritten
  // to match (a bug upstream of the checksum, not wire corruption).
  Hll sketch(4, 9);
  auto registers = sketch.registers();
  registers[0] = 64;  // max legal rank at p=4 is 61
  ByteWriter payload;
  payload.u8(4);
  payload.u64(9);
  payload.blob(registers);
  ByteWriter w;
  w.u8(Hll::kCodecVersion);
  w.u64(util::fnv1a_bytes(payload.data().data(), payload.size()));
  w.blob(payload.data());
  const auto bytes = w.take();
  ByteReader r(bytes);
  EXPECT_THROW((void)decode_hll(r), CodecError);
}

// Structured mutations of the traffic state decoders: each input is well
// framed and differs from a valid record in exactly one checked property, so
// only that property's check can reject it, and the error must name it.
template <typename Decode>
void expect_rejected(const std::vector<std::uint8_t>& bytes, Decode decode,
                     const std::string& check) {
  ByteReader r(bytes);
  try {
    decode(r);
    ADD_FAILURE() << "decoded; expected a CodecError naming \"" << check << "\"";
  } catch (const CodecError& e) {
    EXPECT_NE(std::string(e.what()).find(check), std::string::npos)
        << "error \"" << e.what() << "\" does not name \"" << check << "\"";
  }
}

using Source = ScanDetector::ExportedSource;

// Written field by field in ScanDetector::encode's layout, so a test can
// write what the encoder never would.
std::vector<std::uint8_t> detector_bytes(const std::vector<Source>& sources,
                                         std::uint8_t state_override = 0xFF) {
  ByteWriter w;
  w.u32(static_cast<std::uint32_t>(sources.size()));
  for (const Source& source : sources) {
    w.u32(source.src);
    w.u64(source.flows);
    w.u64(source.incomplete);
    w.u8(state_override != 0xFF ? state_override
                                : static_cast<std::uint8_t>(source.state));
    w.u32(static_cast<std::uint32_t>(source.dsts.size()));
    for (const std::uint32_t dst : source.dsts) w.u32(dst);
  }
  return w.take();
}

std::vector<Source> valid_sources() {
  Source client;
  client.src = util::Ipv4{114, 0, 0, 0}.value();
  client.flows = 40;
  client.incomplete = 0;
  client.dsts = {util::Ipv4{1, 0, 0, 1}.value(), util::Ipv4{1, 1, 1, 1}.value()};
  Source scanner;
  scanner.src = util::Ipv4{162, 142, 125, 0}.value();
  scanner.flows = 5000;
  scanner.incomplete = 5000;
  scanner.state = ScanDetector::State::kScanner;
  for (std::uint32_t i = 0; i < ScanDetector::kDstSetCap; ++i)
    scanner.dsts.push_back(i * 7);
  return {client, scanner};
}

void decode_into_detector(ByteReader& r) {
  ScanDetector detector;
  ScanDetector::decode(r, detector);
  r.expect_done();
}

TEST(TrafficCodec, DetectorAtTheCapRoundTrips) {
  const auto bytes = detector_bytes(valid_sources());
  ByteReader r(bytes);
  ScanDetector detector;
  ScanDetector::decode(r, detector);
  EXPECT_TRUE(r.done());
  const auto exported = detector.export_sources();
  ASSERT_EQ(exported.size(), 2u);
  EXPECT_EQ(exported[1].dsts.size(), ScanDetector::kDstSetCap);
  EXPECT_TRUE(detector.is_scanner(util::Ipv4{162, 142, 125, 0}));
  ByteWriter w;
  ScanDetector::encode(w, detector);
  EXPECT_EQ(w.take(), bytes);
}

TEST(TrafficCodec, DetectorDecodeRejectsAStateAboveScanner) {
  for (const std::uint8_t state : {3, 7, 254})
    expect_rejected(detector_bytes(valid_sources(), state),
                    decode_into_detector, "unknown state");
}

TEST(TrafficCodec, DetectorDecodeRejectsMoreIncompleteThanFlows) {
  auto sources = valid_sources();
  sources[0].incomplete = sources[0].flows + 1;
  expect_rejected(detector_bytes(sources), decode_into_detector,
                  "more incomplete flows than flows");
}

TEST(TrafficCodec, DetectorDecodeRejectsUnsortedDestinations) {
  auto sources = valid_sources();
  std::swap(sources[0].dsts[0], sources[0].dsts[1]);
  expect_rejected(detector_bytes(sources), decode_into_detector,
                  "destinations not strictly ascending");
}

TEST(TrafficCodec, DetectorDecodeRejectsDuplicatedDestinations) {
  auto sources = valid_sources();
  sources[0].dsts[1] = sources[0].dsts[0];
  expect_rejected(detector_bytes(sources), decode_into_detector,
                  "destinations not strictly ascending");
}

TEST(TrafficCodec, DetectorDecodeRejectsDestinationsOverTheCap) {
  auto sources = valid_sources();
  sources[1].dsts.push_back(sources[1].dsts.back() + 1);
  expect_rejected(detector_bytes(sources), decode_into_detector,
                  "destination list over the cap");
}

TEST(TrafficCodec, DetectorDecodeRejectsSourcesOutOfOrder) {
  auto sources = valid_sources();
  std::swap(sources[0], sources[1]);
  expect_rejected(detector_bytes(sources), decode_into_detector,
                  "sources not strictly ascending");
  sources = valid_sources();
  sources[1].src = sources[0].src;
  expect_rejected(detector_bytes(sources), decode_into_detector,
                  "sources not strictly ascending");
}

std::vector<std::uint8_t> monthly_bytes(
    const std::vector<std::pair<util::Date, std::uint64_t>>& entries) {
  ByteWriter w;
  w.u32(static_cast<std::uint32_t>(entries.size()));
  for (const auto& [month, count] : entries) {
    w.i64(month.to_days());
    w.u64(count);
  }
  return w.take();
}

void decode_monthly_to_end(ByteReader& r) {
  std::map<util::Date, std::uint64_t> monthly;
  MonthlySeries::decode(r, monthly);
  r.expect_done();
}

TEST(TrafficCodec, MonthlyRoundTrips) {
  const std::map<util::Date, std::uint64_t> monthly = {
      {util::Date{2018, 7, 1}, 12}, {util::Date{2018, 8, 1}, 40}};
  ByteWriter w;
  MonthlySeries::encode(w, monthly);
  const auto bytes = w.take();
  ByteReader r(bytes);
  std::map<util::Date, std::uint64_t> decoded;
  MonthlySeries::decode(r, decoded);
  EXPECT_EQ(decoded, monthly);
  EXPECT_TRUE(r.done());
}

TEST(TrafficCodec, MonthlyDecodeRejectsAKeyThatIsNotAMonthStart) {
  expect_rejected(monthly_bytes({{util::Date{2018, 7, 1}, 12},
                                 {util::Date{2018, 8, 2}, 40}}),
                  decode_monthly_to_end, "is not a month start");
}

TEST(TrafficCodec, MonthlyDecodeRejectsKeysOutOfOrder) {
  expect_rejected(monthly_bytes({{util::Date{2018, 8, 1}, 40},
                                 {util::Date{2018, 7, 1}, 12}}),
                  decode_monthly_to_end, "keys not strictly ascending");
  expect_rejected(monthly_bytes({{util::Date{2018, 7, 1}, 12},
                                 {util::Date{2018, 7, 1}, 40}}),
                  decode_monthly_to_end, "keys not strictly ascending");
}

}  // namespace
}  // namespace encdns::traffic
