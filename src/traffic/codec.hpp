// Byte codec for §5 traffic results (DESIGN.md §13): NetFlow study results,
// the day-sharded NetFlow accumulator internals (scan detector), and the
// passive-DNS stores.
#pragma once

#include "traffic/hll.hpp"
#include "traffic/netflow_study.hpp"
#include "traffic/passive_dns.hpp"
#include "traffic/scan_detector.hpp"
#include "traffic/trend_study.hpp"
#include "util/bytes.hpp"

namespace encdns::traffic {

/// A monthly series; decoding rejects keys that are not month starts or not
/// strictly ascending.
void encode_monthly(util::ByteWriter& w,
                    const std::map<util::Date, std::uint64_t>& monthly);
[[nodiscard]] std::map<util::Date, std::uint64_t> decode_monthly(
    util::ByteReader& r);

void encode_netflow_results(util::ByteWriter& w,
                            const NetflowStudyResults& results);
[[nodiscard]] NetflowStudyResults decode_netflow_results(util::ByteReader& r);

/// A scan detector's sources. Decoding rejects sources out of ascending
/// order, a state above kScanner, more incomplete flows than flows, and
/// destination lists that are unsorted, duplicated or over the cap.
void encode_detector(util::ByteWriter& w, const ScanDetector& detector);
void decode_detector(util::ByteReader& r, ScanDetector& detector);

void encode_passive_dns(util::ByteWriter& w,
                        const PassiveDnsStudyResults& results);
[[nodiscard]] PassiveDnsStudyResults decode_passive_dns(util::ByteReader& r);

// The adoption-scale records below use a checksummed envelope —
// `u8 version, u64 fnv1a(payload), blob payload` — so *any* torn tail,
// flipped bit, or version skew fails closed with CodecError instead of
// resurrecting a silently different sketch or column (DESIGN.md §16).
inline constexpr std::uint8_t kHllCodecVersion = 1;
inline constexpr std::uint8_t kTrendCodecVersion = 2;

void encode_hll(util::ByteWriter& w, const Hll& sketch);
[[nodiscard]] Hll decode_hll(util::ByteReader& r);

void encode_trend_results(util::ByteWriter& w, const TrendStudyResults& results);
[[nodiscard]] TrendStudyResults decode_trend_results(util::ByteReader& r);

}  // namespace encdns::traffic
