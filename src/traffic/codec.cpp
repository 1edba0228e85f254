#include "traffic/codec.hpp"

#include <utility>

namespace encdns::traffic {

void encode_monthly(util::ByteWriter& w,
                    const std::map<util::Date, std::uint64_t>& monthly) {
  w.u32(static_cast<std::uint32_t>(monthly.size()));
  for (const auto& [month, count] : monthly) {
    w.i64(month.to_days());
    w.u64(count);
  }
}

std::map<util::Date, std::uint64_t> decode_monthly(util::ByteReader& r) {
  std::map<util::Date, std::uint64_t> monthly;
  const std::uint32_t n = r.count(16);
  for (std::uint32_t i = 0; i < n; ++i) {
    const util::Date month = util::Date::from_days(r.i64());
    if (month.day != 1)
      throw util::CodecError("monthly: key " + month.to_string() +
                             " is not a month start");
    if (!monthly.empty() && !(monthly.rbegin()->first < month))
      throw util::CodecError("monthly: keys not strictly ascending");
    monthly.emplace_hint(monthly.end(), month, r.u64());
  }
  return monthly;
}

void encode_netflow_results(util::ByteWriter& w,
                            const NetflowStudyResults& results) {
  encode_monthly(w, results.cloudflare_monthly);
  encode_monthly(w, results.quad9_monthly);
  w.u32(static_cast<std::uint32_t>(results.do53_monthly_estimate.size()));
  for (const auto& [month, estimate] : results.do53_monthly_estimate) {
    w.i64(month.to_days());
    w.f64(estimate);
  }
  w.u64(results.total_dot_records);
  w.u64(results.excluded_single_syn);
  w.u64(results.unmatched_853_records);
  w.u64(results.distinct_block_estimate);
  w.u64(results.flagged_client_blocks);
  w.u64(results.days_planned);
  w.u64(results.days_processed);
  w.u32(static_cast<std::uint32_t>(results.netblocks.size()));
  for (const auto& block : results.netblocks) {
    w.u32(block.slash24.value());
    w.u64(block.records);
    w.i64(block.active_days);
    w.i64(block.first_seen.to_days());
    w.i64(block.last_seen.to_days());
  }
}

NetflowStudyResults decode_netflow_results(util::ByteReader& r) {
  NetflowStudyResults results;
  results.cloudflare_monthly = decode_monthly(r);
  results.quad9_monthly = decode_monthly(r);
  const std::uint32_t n_do53 = r.count(16);
  for (std::uint32_t i = 0; i < n_do53; ++i) {
    const util::Date month = util::Date::from_days(r.i64());
    results.do53_monthly_estimate[month] = r.f64();
  }
  results.total_dot_records = r.u64();
  results.excluded_single_syn = r.u64();
  results.unmatched_853_records = r.u64();
  results.distinct_block_estimate = r.u64();
  results.flagged_client_blocks = static_cast<std::size_t>(r.u64());
  results.days_planned = static_cast<std::size_t>(r.u64());
  results.days_processed = static_cast<std::size_t>(r.u64());
  const std::uint32_t n_blocks = r.count(8);
  results.netblocks.reserve(n_blocks);
  for (std::uint32_t i = 0; i < n_blocks; ++i) {
    NetblockStat block;
    block.slash24 = util::Ipv4{r.u32()};
    block.records = r.u64();
    block.active_days = static_cast<int>(r.i64());
    block.first_seen = util::Date::from_days(r.i64());
    block.last_seen = util::Date::from_days(r.i64());
    results.netblocks.push_back(block);
  }
  return results;
}

void encode_detector(util::ByteWriter& w, const ScanDetector& detector) {
  const auto sources = detector.export_sources();
  w.u32(static_cast<std::uint32_t>(sources.size()));
  for (const auto& source : sources) {
    w.u32(source.src);
    w.u64(source.flows);
    w.u64(source.incomplete);
    w.u8(static_cast<std::uint8_t>(source.state));
    w.u32(static_cast<std::uint32_t>(source.dsts.size()));
    for (const std::uint32_t dst : source.dsts) w.u32(dst);
  }
}

void decode_detector(util::ByteReader& r, ScanDetector& detector) {
  const std::uint32_t n = r.count(16);
  std::vector<ScanDetector::ExportedSource> sources;
  sources.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    ScanDetector::ExportedSource source;
    source.src = r.u32();
    if (!sources.empty() && source.src <= sources.back().src)
      throw util::CodecError("detector: sources not strictly ascending");
    source.flows = r.u64();
    source.incomplete = r.u64();
    if (source.incomplete > source.flows)
      throw util::CodecError("detector: more incomplete flows than flows");
    const std::uint8_t state = r.u8();
    if (state > static_cast<std::uint8_t>(ScanDetector::State::kScanner))
      throw util::CodecError("detector: unknown state " + std::to_string(state));
    source.state = static_cast<ScanDetector::State>(state);
    const std::uint32_t n_dsts = r.count(4);
    if (n_dsts > ScanDetector::kDstSetCap)
      throw util::CodecError("detector: destination list over the cap");
    source.dsts.reserve(n_dsts);
    for (std::uint32_t j = 0; j < n_dsts; ++j) {
      const std::uint32_t dst = r.u32();
      if (!source.dsts.empty() && dst <= source.dsts.back())
        throw util::CodecError(
            "detector: destinations not strictly ascending");
      source.dsts.push_back(dst);
    }
    sources.push_back(std::move(source));
  }
  detector.restore_sources(sources);
}

void encode_passive_dns(util::ByteWriter& w,
                        const PassiveDnsStudyResults& results) {
  const auto aggregates = results.aggregate_db.all();
  w.u32(static_cast<std::uint32_t>(aggregates.size()));
  for (const auto& aggregate : aggregates) {
    w.str(aggregate.domain);
    w.i64(aggregate.first_seen.to_days());
    w.i64(aggregate.last_seen.to_days());
    w.u64(aggregate.total_count);
  }
  const auto& daily = results.daily_db.data();
  w.u32(static_cast<std::uint32_t>(daily.size()));
  for (const auto& [domain, days] : daily) {
    w.str(domain);
    w.u32(static_cast<std::uint32_t>(days.size()));
    for (const auto& [day, count] : days) {
      w.i64(day);
      w.u64(count);
    }
  }
}

PassiveDnsStudyResults decode_passive_dns(util::ByteReader& r) {
  PassiveDnsStudyResults results;
  const std::uint32_t n_aggregates = r.count(16);
  std::vector<PdnsAggregate> aggregates;
  aggregates.reserve(n_aggregates);
  for (std::uint32_t i = 0; i < n_aggregates; ++i) {
    PdnsAggregate aggregate;
    aggregate.domain = r.str();
    aggregate.first_seen = util::Date::from_days(r.i64());
    aggregate.last_seen = util::Date::from_days(r.i64());
    aggregate.total_count = r.u64();
    aggregates.push_back(std::move(aggregate));
  }
  results.aggregate_db.restore(aggregates);
  std::map<std::string, std::map<std::int64_t, std::uint64_t>> daily;
  const std::uint32_t n_domains = r.count(8);
  for (std::uint32_t i = 0; i < n_domains; ++i) {
    std::string domain = r.str();
    auto& days = daily[domain];
    const std::uint32_t n_days = r.count(16);
    for (std::uint32_t j = 0; j < n_days; ++j) {
      const std::int64_t day = r.i64();
      days[day] = r.u64();
    }
  }
  results.daily_db.restore(std::move(daily));
  return results;
}

namespace {

// Checksummed envelope shared by the adoption-scale codecs: version byte,
// FNV-1a of the payload, then the payload as a length-prefixed blob. Any
// single-byte corruption — version skew, checksum damage, a bad length, a
// payload flip — surfaces as CodecError before a field is trusted.
void write_envelope(util::ByteWriter& w, std::uint8_t version,
                    util::ByteWriter&& payload) {
  const std::vector<std::uint8_t> bytes = payload.take();
  w.u8(version);
  w.u64(util::fnv1a_bytes(bytes.data(), bytes.size()));
  w.blob(bytes);
}

[[nodiscard]] std::vector<std::uint8_t> read_envelope(util::ByteReader& r,
                                                      std::uint8_t version,
                                                      const char* what) {
  const std::uint8_t v = r.u8();
  if (v != version) {
    throw util::CodecError(std::string(what) + ": unsupported codec version " +
                           std::to_string(v));
  }
  const std::uint64_t checksum = r.u64();
  std::vector<std::uint8_t> payload = r.blob();
  if (util::fnv1a_bytes(payload.data(), payload.size()) != checksum) {
    throw util::CodecError(std::string(what) + ": payload checksum mismatch");
  }
  return payload;
}

}  // namespace

void encode_hll(util::ByteWriter& w, const Hll& sketch) {
  util::ByteWriter payload;
  payload.u8(static_cast<std::uint8_t>(sketch.precision()));
  payload.u64(sketch.seed());
  payload.blob(sketch.registers());
  write_envelope(w, kHllCodecVersion, std::move(payload));
}

Hll decode_hll(util::ByteReader& r) {
  const auto bytes = read_envelope(r, kHllCodecVersion, "hll");
  util::ByteReader p(bytes);
  const int precision = p.u8();
  if (precision < Hll::kMinPrecision || precision > Hll::kMaxPrecision) {
    throw util::CodecError("hll: precision out of range: " +
                           std::to_string(precision));
  }
  const std::uint64_t seed = p.u64();
  Hll sketch(precision, seed);
  auto registers = p.blob();
  if (registers.size() != sketch.register_count()) {
    throw util::CodecError("hll: register file size mismatch");
  }
  for (const std::uint8_t reg : registers) {
    // Ranks beyond the hash width cannot be produced by add(); reject them
    // so a corrupted register cannot skew every later estimate.
    if (reg > 64 - precision + 1) {
      throw util::CodecError("hll: register rank out of range");
    }
  }
  sketch.restore_registers(std::move(registers));
  p.expect_done();
  return sketch;
}

namespace {

void encode_event(util::ByteWriter& w, const AdoptionEvent& event) {
  w.u8(static_cast<std::uint8_t>(event.kind));
  w.str(event.provider);
  w.i64(event.from.to_days());
  w.i64(event.to.to_days());
  w.f64(event.multiplier);
  w.str(event.label);
}

[[nodiscard]] AdoptionEvent decode_event(util::ByteReader& r) {
  AdoptionEvent event;
  const std::uint8_t kind = r.u8();
  if (kind > static_cast<std::uint8_t>(AdoptionEvent::Kind::kCensorship)) {
    throw util::CodecError("trend: unknown adoption event kind " +
                           std::to_string(kind));
  }
  event.kind = static_cast<AdoptionEvent::Kind>(kind);
  event.provider = r.str();
  event.from = util::Date::from_days(r.i64());
  event.to = util::Date::from_days(r.i64());
  event.multiplier = r.f64();
  event.label = r.str();
  return event;
}

}  // namespace

void encode_trend_results(util::ByteWriter& w,
                          const TrendStudyResults& results) {
  util::ByteWriter payload;
  payload.u64(results.total_records);
  payload.u64(results.total_bytes);
  payload.u8(static_cast<std::uint8_t>(results.hll_precision));
  payload.u64(results.days_planned);
  payload.u64(results.days_processed);
  payload.u64(results.peak_tracked_bytes);
  payload.u32(static_cast<std::uint32_t>(results.events.size()));
  for (const auto& event : results.events) encode_event(payload, event);
  payload.u32(static_cast<std::uint32_t>(results.providers.size()));
  for (const auto& series : results.providers) {
    payload.str(series.name);
    payload.u64(series.total_records);
    payload.u64(series.total_bytes);
    payload.u64(series.clients_estimated);
    payload.u64(series.clients_exact);
    payload.u32(static_cast<std::uint32_t>(series.monthly.size()));
    for (const auto& month : series.monthly) {
      payload.i64(month.month.to_days());
      payload.u64(month.records);
      payload.u64(month.bytes);
      payload.u64(month.clients_estimated);
      payload.u64(month.clients_exact);
    }
  }
  write_envelope(w, kTrendCodecVersion, std::move(payload));
}

TrendStudyResults decode_trend_results(util::ByteReader& r) {
  const auto bytes = read_envelope(r, kTrendCodecVersion, "trend");
  util::ByteReader p(bytes);
  TrendStudyResults results;
  results.total_records = p.u64();
  results.total_bytes = p.u64();
  results.hll_precision = p.u8();
  results.days_planned = static_cast<std::size_t>(p.u64());
  results.days_processed = static_cast<std::size_t>(p.u64());
  results.peak_tracked_bytes = p.u64();
  const std::uint32_t n_events = p.count(27);
  results.events.reserve(n_events);
  for (std::uint32_t i = 0; i < n_events; ++i)
    results.events.push_back(decode_event(p));
  const std::uint32_t n_providers = p.count(40);
  results.providers.reserve(n_providers);
  for (std::uint32_t i = 0; i < n_providers; ++i) {
    TrendProviderSeries series;
    series.name = p.str();
    series.total_records = p.u64();
    series.total_bytes = p.u64();
    series.clients_estimated = p.u64();
    series.clients_exact = p.u64();
    const std::uint32_t n_months = p.count(40);
    series.monthly.reserve(n_months);
    for (std::uint32_t j = 0; j < n_months; ++j) {
      TrendMonth month;
      month.month = util::Date::from_days(p.i64());
      month.records = p.u64();
      month.bytes = p.u64();
      month.clients_estimated = p.u64();
      month.clients_exact = p.u64();
      series.monthly.push_back(month);
    }
    results.providers.push_back(std::move(series));
  }
  p.expect_done();
  return results;
}

}  // namespace encdns::traffic
