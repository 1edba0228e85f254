// Journal codecs of the §5 traffic types whose layout is not just their
// field list (DESIGN.md §13): each is declared beside its type, writes its
// plain fields through util/fields.hpp, and adds its own checks.
#include <algorithm>
#include <functional>

#include "traffic/netflow_study.hpp"
#include "traffic/passive_dns.hpp"
#include "traffic/trend_study.hpp"
#include "util/fields.hpp"

namespace encdns::traffic {
namespace {

// The adoption-scale records' envelope — u8 version, u64 FNV-1a of the
// payload, the payload as a blob — makes any torn tail, flipped bit or
// version skew fail closed before a field is trusted (DESIGN.md §16).
void write_envelope(util::ByteWriter& w, std::uint8_t version,
                    const util::ByteWriter& payload) {
  const auto& bytes = payload.data();
  util::write(w, version, util::fnv1a_bytes(bytes.data(), bytes.size()), bytes);
}

[[nodiscard]] std::vector<std::uint8_t> read_envelope(util::ByteReader& r,
                                                      std::uint8_t version,
                                                      const std::string& what) {
  std::uint8_t v = 0;
  util::read(r, v);
  if (v != version)
    throw util::CodecError(what + ": unsupported codec version " +
                           std::to_string(v));
  std::uint64_t checksum = 0;
  std::vector<std::uint8_t> payload;
  util::read(r, checksum, payload);
  if (util::fnv1a_bytes(payload.data(), payload.size()) != checksum)
    throw util::CodecError(what + ": payload checksum mismatch");
  return payload;
}

}  // namespace

void MonthlySeries::encode(util::ByteWriter& w,
                           const std::map<util::Date, std::uint64_t>& monthly) {
  util::write(w, monthly);
}

void MonthlySeries::decode(util::ByteReader& r,
                           std::map<util::Date, std::uint64_t>& monthly) {
  util::read(r, monthly);
  for (const auto& [month, count] : monthly)
    if (month.day != 1)
      throw util::CodecError("monthly: key " + month.to_string() +
                             " is not a month start");
}

void ScanDetector::StateByte::encode(util::ByteWriter& w, State state) {
  w.u8(static_cast<std::uint8_t>(state));
}

void ScanDetector::StateByte::decode(util::ByteReader& r, State& state) {
  const std::uint8_t byte = r.u8();
  if (byte > static_cast<std::uint8_t>(State::kScanner))
    throw util::CodecError("detector: unknown state " + std::to_string(byte));
  state = static_cast<State>(byte);
}

void ScanDetector::encode(util::ByteWriter& w, const ScanDetector& detector) {
  util::write(w, detector.export_sources());
}

void ScanDetector::decode(util::ByteReader& r, ScanDetector& detector) {
  std::vector<ExportedSource> sources;
  util::read(r, sources);
  for (std::size_t i = 0; i < sources.size(); ++i) {
    const ExportedSource& source = sources[i];
    if (i > 0 && source.src <= sources[i - 1].src)
      throw util::CodecError("detector: sources not strictly ascending");
    if (source.incomplete > source.flows)
      throw util::CodecError("detector: more incomplete flows than flows");
    if (source.dsts.size() > kDstSetCap)
      throw util::CodecError("detector: destination list over the cap");
    if (std::adjacent_find(source.dsts.begin(), source.dsts.end(),
                           std::greater_equal<>()) != source.dsts.end())
      throw util::CodecError("detector: destinations not strictly ascending");
  }
  detector.restore_sources(sources);
}

void PassiveDnsStudyResults::encode(util::ByteWriter& w,
                                    const PassiveDnsStudyResults& results) {
  util::write(w, results.aggregate_db.all(), results.daily_db.data());
}

void PassiveDnsStudyResults::decode(util::ByteReader& r,
                                    PassiveDnsStudyResults& results) {
  std::vector<PdnsAggregate> aggregates;
  std::map<std::string, std::map<std::int64_t, std::uint64_t>> daily;
  util::read(r, aggregates, daily);
  // The aggregate store is keyed by domain: a repeated one would merge.
  for (std::size_t i = 1; i < aggregates.size(); ++i)
    if (!(aggregates[i - 1].domain < aggregates[i].domain))
      throw util::CodecError(
          "passive dns: aggregate domains not strictly ascending");
  results.aggregate_db.restore(aggregates);
  results.daily_db.restore(std::move(daily));
}

void Hll::encode(util::ByteWriter& w, const Hll& sketch) {
  util::ByteWriter payload;
  util::write(payload, static_cast<std::uint8_t>(sketch.precision_),
              sketch.seed_, sketch.registers_);
  write_envelope(w, kCodecVersion, payload);
}

void Hll::decode(util::ByteReader& r, Hll& sketch) {
  const auto bytes = read_envelope(r, kCodecVersion, "hll");
  util::ByteReader p(bytes);
  std::uint8_t precision = 0;
  std::uint64_t seed = 0;
  std::vector<std::uint8_t> registers;
  util::read(p, precision, seed, registers);
  if (precision < kMinPrecision || precision > kMaxPrecision)
    throw util::CodecError("hll: precision out of range: " +
                           std::to_string(precision));
  if (registers.size() != std::size_t{1} << precision)
    throw util::CodecError("hll: register file size mismatch");
  // Ranks beyond the hash width cannot be produced by add(); reject them so
  // a corrupted register cannot skew every later estimate.
  for (const std::uint8_t reg : registers)
    if (reg > 64 - precision + 1)
      throw util::CodecError("hll: register rank out of range");
  p.expect_done();
  sketch = Hll(precision, seed);
  sketch.restore_registers(std::move(registers));
}

void TrendStudyResults::encode(util::ByteWriter& w,
                               const TrendStudyResults& results) {
  util::ByteWriter payload;
  fields(results, [&](const auto&... field) { util::write(payload, field...); });
  write_envelope(w, kCodecVersion, payload);
}

void TrendStudyResults::decode(util::ByteReader& r, TrendStudyResults& results) {
  const auto bytes = read_envelope(r, kCodecVersion, "trend");
  util::ByteReader p(bytes);
  fields(results, [&](auto&&... field) { util::read(p, field...); });
  p.expect_done();
}

}  // namespace encdns::traffic
