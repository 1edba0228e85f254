// The journal's field lists (util/fields.hpp, DESIGN.md §13), one test per
// journaled type: a hand-built value that sets every field encodes to the
// committed bytes the journal has always written for it, every strict
// prefix of those bytes fails closed, and every single-byte flip either
// fails closed or decodes to a value that re-encodes to the flipped bytes
// (the reader accepts only canonical form). Then one structured mutation
// per canonical-form rule, each on a real type, naming the rule it breaks.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <iterator>
#include <limits>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "support/fail_closed.hpp"
#include "support/layout_samples.hpp"
#include "util/bytes.hpp"
#include "util/fields.hpp"

namespace encdns {
namespace {

using util::CodecError;

[[nodiscard]] std::vector<std::uint8_t> fixture(const std::string& name) {
  std::ifstream in(std::string(ENCDNS_LAYOUT_FIXTURE_DIR) + "/" + name + ".bin",
                   std::ios::binary);
  EXPECT_TRUE(in.good()) << name;
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

template <typename T>
void expect_layout(const T& value, const std::string& name) {
  const std::vector<std::uint8_t> bytes = util::encode(value);
  ASSERT_EQ(bytes, fixture(name));
  EXPECT_EQ(util::encode(util::decode<T>(bytes)), bytes);
  fuzz::for_each_prefix_and_flip(
      bytes, [&](const std::vector<std::uint8_t>& mutated,
                 const std::string& what) {
        if (mutated.size() < bytes.size()) {
          EXPECT_THROW((void)util::decode<T>(mutated), CodecError) << what;
          return;
        }
        try {
          EXPECT_EQ(util::encode(util::decode<T>(mutated)), mutated) << what;
        } catch (const CodecError&) {
        }
      });
}

TEST(Layouts, ScanCampaign) { expect_layout(layouts::scans(), "scan_campaign"); }

TEST(Layouts, DohDiscovery) {
  expect_layout(layouts::doh_discovery(), "doh_discovery");
}

TEST(Layouts, DohScan) { expect_layout(layouts::doh_scan(), "doh_scan"); }

TEST(Layouts, LocalProbe) {
  expect_layout(layouts::local_probe(), "local_probe");
}

TEST(Layouts, Reachability) {
  expect_layout(layouts::reachability(), "reachability");
}

TEST(Layouts, Performance) {
  expect_layout(layouts::performance(), "performance");
}

TEST(Layouts, NoReuse) { expect_layout(layouts::no_reuse(), "no_reuse"); }

TEST(Layouts, Netflow) { expect_layout(layouts::netflow(), "netflow"); }

TEST(Layouts, NetflowTrend) {
  expect_layout(layouts::trend(), "netflow_trend");
}

TEST(Layouts, PassiveDns) {
  expect_layout(layouts::passive_dns(), "passive_dns");
}

TEST(Layouts, CampaignPartialState) {
  scan::CampaignState state;
  state.scan_serial = layouts::kScanSerial;
  for (const auto& [key, count] : layouts::strikes()) state.strikes[key] = count;
  state.snapshots = layouts::scans();
  expect_layout(state, "campaign_state");
}

TEST(Layouts, ReachabilityPartialState) {
  expect_layout(measure::ReachabilityState{.done = layouts::kReachDone,
                                           .queries = layouts::kReachQueries,
                                           .sim_credit_us =
                                               layouts::kReachSimCreditUs,
                                           .results = layouts::reachability()},
                "reachability_state");
}

TEST(Layouts, PerformancePartialState) {
  expect_layout(
      measure::PerformanceState{.done = layouts::kPerfDone,
                                .sim_credit_us = layouts::kPerfSimCreditUs,
                                .results = layouts::performance()},
      "performance_state");
}

// --- canonical form, one rule at a time --------------------------------------

template <typename T>
void expect_rejected(const std::vector<std::uint8_t>& bytes,
                     const std::string& rule) {
  try {
    (void)util::decode<T>(bytes);
    ADD_FAILURE() << "decoded; expected a CodecError naming \"" << rule << "\"";
  } catch (const CodecError& e) {
    EXPECT_NE(std::string(e.what()).find(rule), std::string::npos)
        << "error \"" << e.what() << "\" does not name \"" << rule << "\"";
  }
}

/// `bytes` with the one i64 that holds `marker` replaced by `value`.
[[nodiscard]] std::vector<std::uint8_t> with_i64(std::vector<std::uint8_t> bytes,
                                                 std::int64_t marker,
                                                 std::int64_t value) {
  util::ByteWriter m;
  m.i64(marker);
  const auto at = std::search(bytes.begin(), bytes.end(), m.data().begin(),
                              m.data().end());
  if (at == bytes.end()) {
    ADD_FAILURE() << "marker " << marker << " not found";
    return bytes;
  }
  EXPECT_EQ(std::search(at + 1, bytes.end(), m.data().begin(), m.data().end()),
            bytes.end())
      << "marker " << marker << " is not unique";
  util::ByteWriter v;
  v.i64(value);
  std::copy(v.data().begin(), v.data().end(), at);
  return bytes;
}

TEST(CanonicalForm, CertStatusPastTheLastEnumeratorFails) {
  auto scans = layouts::scans();
  scans[1].resolvers[0].cert_status = static_cast<tls::CertStatus>(8);
  expect_rejected<std::vector<scan::ScanSnapshot>>(
      util::encode(scans), "enum byte 8 is past its last enumerator 7");
}

TEST(CanonicalForm, ProtocolPastTheLastEnumeratorFails) {
  auto results = layouts::reachability();
  results.cells[{"Quad9", static_cast<measure::Protocol>(3)}] = {1, 2, 3};
  expect_rejected<measure::ReachabilityResults>(
      util::encode(results), "enum byte 3 is past its last enumerator 2");
}

/// A reachability record whose cells are written from a list, so a key may
/// repeat: the map's layout is a count, then key and value per entry.
[[nodiscard]] std::vector<std::uint8_t> reachability_with_cells(
    const std::vector<std::pair<std::pair<std::string, measure::Protocol>,
                                measure::OutcomeCounts>>& cells) {
  const auto r = layouts::reachability();
  util::ByteWriter w;
  util::write(w, r.platform, r.clients, r.clients_planned, r.dataset,
              r.client_faults, r.proxy_faults, cells, r.conflict_diagnoses,
              r.interceptions);
  return w.take();
}

TEST(CanonicalForm, RepeatedReachabilityCellFails) {
  using measure::Protocol;
  const auto distinct = reachability_with_cells(
      {{{"Cloudflare", Protocol::kDoT}, {1, 0, 0}},
       {{"Cloudflare", Protocol::kDoH}, {2, 0, 0}}});
  EXPECT_EQ(util::decode<measure::ReachabilityResults>(distinct).cells.size(),
            2u);
  expect_rejected<measure::ReachabilityResults>(
      reachability_with_cells({{{"Cloudflare", Protocol::kDoT}, {1, 0, 0}},
                               {{"Cloudflare", Protocol::kDoT}, {2, 0, 0}}}),
      "map keys not strictly ascending");
}

TEST(CanonicalForm, RepeatedPassiveDnsDomainFails) {
  const auto results = layouts::passive_dns();
  auto aggregates = results.aggregate_db.all();
  const auto& daily = results.daily_db.data();
  aggregates[1].domain = aggregates[0].domain;
  util::ByteWriter repeated_aggregate;
  util::write(repeated_aggregate, aggregates, daily);
  expect_rejected<traffic::PassiveDnsStudyResults>(
      repeated_aggregate.take(), "aggregate domains not strictly ascending");

  std::vector<std::pair<std::string, std::map<std::int64_t, std::uint64_t>>>
      days(daily.begin(), daily.end());
  days[1].first = days[0].first;
  util::ByteWriter repeated_daily;
  util::write(repeated_daily, results.aggregate_db.all(), days);
  expect_rejected<traffic::PassiveDnsStudyResults>(
      repeated_daily.take(), "map keys not strictly ascending");
}

TEST(CanonicalForm, HttpStatusOutsideIntFails) {
  auto discovery = layouts::doh_discovery();
  discovery.candidates[0].http_status = 0x5EED;
  const auto bytes = util::encode(discovery);
  for (const std::int64_t value :
       {std::int64_t{std::numeric_limits<int>::max()} + 1,
        std::int64_t{std::numeric_limits<int>::min()} - 1,
        std::numeric_limits<std::int64_t>::min()})
    expect_rejected<scan::DohDiscovery>(with_i64(bytes, 0x5EED, value),
                                        "does not fit its 32-bit field");
}

TEST(CanonicalForm, ActiveDaysOutsideIntFails) {
  auto netflow = layouts::netflow();
  netflow.netblocks[1].active_days = 0x5EED;
  const auto bytes = util::encode(netflow);
  for (const std::int64_t value :
       {std::int64_t{1} << 32, std::numeric_limits<std::int64_t>::max()})
    expect_rejected<traffic::NetflowStudyResults>(
        with_i64(bytes, 0x5EED, value), "does not fit its 32-bit field");
}

TEST(CanonicalForm, DayNumberOutOfRangeFails) {
  auto scans = layouts::scans();
  const util::Date marker{2345, 6, 7};
  scans[1].date = marker;
  const auto bytes = util::encode(scans);
  for (const std::int64_t day : {std::numeric_limits<std::int64_t>::max(),
                                 std::numeric_limits<std::int64_t>::min(),
                                 (std::int64_t{1} << 38) + 1})
    expect_rejected<std::vector<scan::ScanSnapshot>>(
        with_i64(bytes, marker.to_days(), day), "is out of range");
}

}  // namespace
}  // namespace encdns
