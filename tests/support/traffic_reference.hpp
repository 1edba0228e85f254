// A test-local reference for the §5 traffic passes: the row-by-row loops
// that the fused per-day pass replaced. Each raw flow is a dated RawFlow,
// staged in a nine-column FlowBatch, unpacked again with row(i), sampled
// with Rng::poisson (one std::exp per flow), counted by an unordered-set scan
// detector, and aggregated into Date-keyed month maps and per-block day sets.
// The trend stages every record in a batch before it reaches the day sketch,
// and its sketches rank with a bit-by-bit loop.
//
// The reference runs the same fixed 16-shard / 4-group partition serially
// and saves the same partial states, written field by field in the
// checkpoint layout. The differential tests (test_traffic_reference.cpp)
// hold the fused pass to it: equal results and byte-equal saved states.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "exec/executor.hpp"
#include "traffic/backbone.hpp"
#include "traffic/hll.hpp"
#include "traffic/netflow.hpp"
#include "traffic/netflow_study.hpp"
#include "traffic/trend_study.hpp"
#include "util/bytes.hpp"
#include "util/date.hpp"
#include "util/ipv4.hpp"
#include "util/rng.hpp"

namespace encdns::traffic::reference {

inline constexpr std::size_t kShards = 16;
inline constexpr std::size_t kGroupShards = 4;

/// One raw flow with its date.
struct RawFlow {
  util::Ipv4 src;
  util::Ipv4 dst;
  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;
  std::uint8_t protocol = kProtoTcp;
  std::uint32_t packets = 1;
  std::uint64_t bytes = 64;
  bool complete_session = true;
  util::Date date;
};

/// Columnar staging: nine parallel columns, cleared but not shrunk.
class FlowBatch {
 public:
  void reserve(std::size_t rows) {
    src_.reserve(rows);
    dst_.reserve(rows);
    src_port_.reserve(rows);
    dst_port_.reserve(rows);
    protocol_.reserve(rows);
    packets_.reserve(rows);
    bytes_.reserve(rows);
    complete_.reserve(rows);
    day_.reserve(rows);
  }
  void clear() noexcept {
    src_.clear();
    dst_.clear();
    src_port_.clear();
    dst_port_.clear();
    protocol_.clear();
    packets_.clear();
    bytes_.clear();
    complete_.clear();
    day_.clear();
  }
  void push(const RawFlow& flow) {
    src_.push_back(flow.src.value());
    dst_.push_back(flow.dst.value());
    src_port_.push_back(flow.src_port);
    dst_port_.push_back(flow.dst_port);
    protocol_.push_back(flow.protocol);
    packets_.push_back(flow.packets);
    bytes_.push_back(flow.bytes);
    complete_.push_back(flow.complete_session ? 1 : 0);
    day_.push_back(static_cast<std::int32_t>(flow.date.to_days()));
  }
  [[nodiscard]] RawFlow row(std::size_t i) const {
    RawFlow flow;
    flow.src = util::Ipv4{src_[i]};
    flow.dst = util::Ipv4{dst_[i]};
    flow.src_port = src_port_[i];
    flow.dst_port = dst_port_[i];
    flow.protocol = protocol_[i];
    flow.packets = packets_[i];
    flow.bytes = bytes_[i];
    flow.complete_session = complete_[i] != 0;
    flow.date = util::Date::from_days(day_[i]);
    return flow;
  }
  [[nodiscard]] std::size_t size() const noexcept { return src_.size(); }
  [[nodiscard]] const std::vector<std::uint32_t>& src() const noexcept { return src_; }
  [[nodiscard]] const std::vector<std::uint64_t>& bytes() const noexcept { return bytes_; }
  [[nodiscard]] std::size_t capacity_bytes() const noexcept {
    return src_.capacity() * sizeof(std::uint32_t) +
           dst_.capacity() * sizeof(std::uint32_t) +
           src_port_.capacity() * sizeof(std::uint16_t) +
           dst_port_.capacity() * sizeof(std::uint16_t) +
           protocol_.capacity() * sizeof(std::uint8_t) +
           packets_.capacity() * sizeof(std::uint32_t) +
           bytes_.capacity() * sizeof(std::uint64_t) +
           complete_.capacity() * sizeof(std::uint8_t) +
           day_.capacity() * sizeof(std::int32_t);
  }

 private:
  std::vector<std::uint32_t> src_;
  std::vector<std::uint32_t> dst_;
  std::vector<std::uint16_t> src_port_;
  std::vector<std::uint16_t> dst_port_;
  std::vector<std::uint8_t> protocol_;
  std::vector<std::uint32_t> packets_;
  std::vector<std::uint64_t> bytes_;
  std::vector<std::uint8_t> complete_;
  std::vector<std::int32_t> day_;
};

/// The backbone's flows for `day`, appended to `batch` in generation order.
inline void generate_day_into(const BackboneModel& model, const util::Date& day,
                              FlowBatch& batch) {
  const BackboneConfig& config = model.config();
  util::Rng rng(util::mix64(config.seed ^ 0xF10A7ULL ^
                            static_cast<std::uint64_t>(day.to_days())));
  const std::vector<std::pair<std::string, std::vector<util::Ipv4>>> resolvers =
      {{"cloudflare", {util::Ipv4{1, 1, 1, 1}, util::Ipv4{1, 0, 0, 1}}},
       {"quad9", {util::Ipv4{9, 9, 9, 9}}}};
  const std::vector<util::Ipv4> scanner_sources = {
      util::Ipv4{162, 142, 125, 7}, util::Ipv4{74, 120, 14, 33},
      util::Ipv4{167, 94, 138, 2}};

  double mass = 0.0;
  for (const auto& nb : model.netblocks())
    if (day.in_window(nb.active_from, nb.active_to)) mass += nb.weight;
  if (mass <= 0.0) return;

  for (const auto& [resolver, addresses] : resolvers) {
    const double daily = model.adoption().daily_raw_flows(resolver, day);
    if (daily <= 0.0) continue;
    for (const auto& nb : model.netblocks()) {
      if (!day.in_window(nb.active_from, nb.active_to)) continue;
      const auto flows = rng.poisson(daily * nb.weight / mass);
      for (std::uint64_t f = 0; f < flows; ++f) {
        RawFlow flow;
        flow.src = util::Ipv4{nb.slash24.value() |
                              static_cast<std::uint32_t>(1 + rng.below(254))};
        flow.dst = addresses[rng.below(addresses.size())];
        flow.src_port = static_cast<std::uint16_t>(20000 + rng.below(40000));
        flow.dst_port = 853;
        flow.protocol = kProtoTcp;
        flow.packets = static_cast<std::uint32_t>(
            std::clamp(rng.lognormal(18.0, 0.5), 4.0, 120.0));
        flow.bytes = static_cast<std::uint64_t>(flow.packets) * 110;
        flow.complete_session = true;
        flow.date = day;
        batch.push(flow);
      }
    }
  }
  const auto probes = rng.poisson(config.scanner_probes_per_day);
  for (std::uint64_t p = 0; p < probes; ++p) {
    RawFlow probe;
    probe.src = scanner_sources[rng.below(scanner_sources.size())];
    probe.dst = util::Ipv4{static_cast<std::uint32_t>(rng.next())};
    probe.src_port = static_cast<std::uint16_t>(40000 + rng.below(20000));
    probe.dst_port = 853;
    probe.protocol = kProtoTcp;
    probe.packets = 1;
    probe.bytes = 60;
    probe.complete_session = false;
    probe.date = day;
    batch.push(probe);
  }
}

/// Packet sampling of one flow, with Rng::poisson for the middle packets.
inline std::optional<FlowRecord> observe(const RawFlow& flow, double rate,
                                         util::Rng& rng) {
  if (flow.packets == 0) return std::nullopt;
  const bool syn_sampled = flow.protocol == kProtoTcp && rng.chance(rate);
  const bool fin_sampled = flow.protocol == kProtoTcp && flow.complete_session &&
                           flow.packets > 1 && rng.chance(rate);
  const std::uint32_t middle = flow.packets > 2 ? flow.packets - 2 : 0;
  const auto middle_sampled =
      static_cast<std::uint32_t>(rng.poisson(static_cast<double>(middle) * rate));
  std::uint32_t sampled =
      middle_sampled + (syn_sampled ? 1 : 0) + (fin_sampled ? 1 : 0);
  if (flow.packets == 1 && flow.protocol == kProtoUdp)
    sampled = rng.chance(rate) ? 1 : 0;
  if (sampled == 0) return std::nullopt;

  FlowRecord record;
  record.src = flow.src;
  record.dst = flow.dst;
  record.src_port = flow.src_port;
  record.dst_port = flow.dst_port;
  record.protocol = flow.protocol;
  record.packets = sampled;
  record.bytes = flow.bytes * sampled / flow.packets;
  record.date = flow.date;
  if (flow.protocol == kProtoTcp) {
    if (syn_sampled) record.tcp_flags |= tcpflags::kSyn;
    if (!flow.complete_session) {
      record.tcp_flags = tcpflags::kSyn;
      record.packets = syn_sampled ? 1 : 0;
      if (record.packets == 0) return std::nullopt;
    } else {
      if (middle_sampled > 0) record.tcp_flags |= tcpflags::kAck | tcpflags::kPsh;
      if (fin_sampled) record.tcp_flags |= tcpflags::kFin | tcpflags::kAck;
      if (record.tcp_flags == 0) record.tcp_flags = tcpflags::kAck;
    }
  }
  return record;
}

/// The scan detector over hash sets.
class ScanDetector {
 public:
  using State = traffic::ScanDetector::State;
  using ExportedSource = traffic::ScanDetector::ExportedSource;
  static constexpr std::size_t kDstSetCap = 4096;

  void observe(const RawFlow& flow) {
    auto& stats = sources_[flow.src.slash24().value()];
    ++stats.flows;
    if (!flow.complete_session) ++stats.incomplete;
    if (stats.dsts.size() < kDstSetCap) stats.dsts.insert(flow.dst.value());
    update_state(stats);
  }

  void merge(const ScanDetector& other) {
    for (const auto& [addr, theirs] : other.sources_) {
      auto& ours = sources_[addr];
      ours.flows += theirs.flows;
      ours.incomplete += theirs.incomplete;
      if (ours.dsts.size() < kDstSetCap && !theirs.dsts.empty()) {
        std::vector<std::uint32_t> merged(ours.dsts.begin(), ours.dsts.end());
        merged.insert(merged.end(), theirs.dsts.begin(), theirs.dsts.end());
        std::sort(merged.begin(), merged.end());
        merged.erase(std::unique(merged.begin(), merged.end()), merged.end());
        if (merged.size() > kDstSetCap) merged.resize(kDstSetCap);
        ours.dsts = std::unordered_set<std::uint32_t>(merged.begin(), merged.end());
      }
      ours.state = std::max(ours.state, theirs.state);
      update_state(ours);
    }
  }

  [[nodiscard]] bool is_scanner(std::uint32_t slash24) const {
    const auto it = sources_.find(slash24);
    return it != sources_.end() && it->second.state == State::kScanner;
  }

  [[nodiscard]] std::vector<ExportedSource> export_sources() const {
    std::vector<ExportedSource> out;
    for (const auto& [addr, stats] : sources_) {
      ExportedSource source;
      source.src = addr;
      source.flows = stats.flows;
      source.incomplete = stats.incomplete;
      source.state = stats.state;
      source.dsts.assign(stats.dsts.begin(), stats.dsts.end());
      std::sort(source.dsts.begin(), source.dsts.end());
      out.push_back(std::move(source));
    }
    std::sort(out.begin(), out.end(),
              [](const ExportedSource& a, const ExportedSource& b) {
                return a.src < b.src;
              });
    return out;
  }

 private:
  struct SourceStats {
    std::unordered_set<std::uint32_t> dsts;
    std::uint64_t flows = 0;
    std::uint64_t incomplete = 0;
    State state = State::kBenign;
  };
  std::unordered_map<std::uint32_t, SourceStats> sources_;

  static void update_state(SourceStats& stats) {
    const ScanDetectorConfig config;
    if (stats.flows < config.min_flows) return;
    const double incomplete_ratio =
        static_cast<double>(stats.incomplete) / static_cast<double>(stats.flows);
    const bool fanout = stats.dsts.size() >= config.distinct_dst_threshold;
    if (!fanout) return;
    if (stats.state == State::kBenign) stats.state = State::kSuspicious;
    if (incomplete_ratio >= config.syn_only_threshold) stats.state = State::kScanner;
  }
};

/// Hll::add with the rank found bit by bit from the top of the hash's low
/// 64 - p bits.
inline void sketch_add(std::vector<std::uint8_t>& registers, int precision,
                       std::uint64_t seed, std::uint64_t value) {
  const std::uint64_t hash = util::mix64(util::mix64(value) ^ seed);
  const auto index = static_cast<std::size_t>(hash >> (64 - precision));
  const int width = 64 - precision;
  const std::uint64_t rest = hash << precision >> precision;
  int rank = 1;
  for (std::uint64_t mask = 1ULL << (width - 1); mask != 0 && (rest & mask) == 0;
       mask >>= 1)
    ++rank;
  if (rank > registers[index]) registers[index] = static_cast<std::uint8_t>(rank);
}

/// A sketch fed through sketch_add.
class Sketch {
 public:
  explicit Sketch(int precision = Hll::kDefaultPrecision,
                  std::uint64_t seed = Hll::kDefaultSeed)
      : hll_(precision, seed), registers_(hll_.register_count(), 0) {}
  void add(std::uint64_t value) {
    sketch_add(registers_, hll_.precision(), hll_.seed(), value);
  }
  void clear() { std::fill(registers_.begin(), registers_.end(), 0); }
  void merge(const Sketch& other) {
    for (std::size_t i = 0; i < registers_.size(); ++i)
      registers_[i] = std::max(registers_[i], other.registers_[i]);
  }
  [[nodiscard]] Hll hll() const {
    Hll out(hll_.precision(), hll_.seed());
    out.restore_registers(registers_);
    return out;
  }
  [[nodiscard]] std::size_t memory_bytes() const { return registers_.size(); }

 private:
  Hll hll_;
  std::vector<std::uint8_t> registers_;
};

// --- §5.2 --------------------------------------------------------------------

/// The §5.2 partial state, field by field in its checkpoint layout: the
/// counters, both monthly series, each /24 with its sorted active days, then
/// the block sketch and the detector (kept as their encoded bytes).
struct NetflowState {
  struct Block {
    std::uint32_t addr = 0;
    std::uint64_t records = 0;
    std::int64_t first = 0;
    std::int64_t last = 0;
    std::vector<std::int64_t> days;
  };
  std::uint64_t groups = 0;
  std::uint64_t days_processed = 0;
  std::uint64_t flows = 0;
  std::uint64_t records = 0;
  std::uint64_t excluded_single_syn = 0;
  std::uint64_t unmatched_853 = 0;
  std::uint64_t dot_records = 0;
  std::map<util::Date, std::uint64_t> cloudflare_monthly;
  std::map<util::Date, std::uint64_t> quad9_monthly;
  std::vector<Block> blocks;  // ascending addr
  std::vector<std::uint8_t> sketch_and_detector;

  [[nodiscard]] std::vector<std::uint8_t> encode() const {
    util::ByteWriter w;
    w.u64(groups);
    w.u64(days_processed);
    w.u64(flows);
    w.u64(records);
    w.u64(excluded_single_syn);
    w.u64(unmatched_853);
    w.u64(dot_records);
    for (const auto* monthly : {&cloudflare_monthly, &quad9_monthly}) {
      w.u32(static_cast<std::uint32_t>(monthly->size()));
      for (const auto& [month, count] : *monthly) {
        w.i64(month.to_days());
        w.u64(count);
      }
    }
    w.u32(static_cast<std::uint32_t>(blocks.size()));
    for (const Block& block : blocks) {
      w.u32(block.addr);
      w.u64(block.records);
      w.i64(block.first);
      w.i64(block.last);
      w.u32(static_cast<std::uint32_t>(block.days.size()));
      for (const std::int64_t day : block.days) w.i64(day);
    }
    std::vector<std::uint8_t> out = w.take();
    out.insert(out.end(), sketch_and_detector.begin(), sketch_and_detector.end());
    return out;
  }

  [[nodiscard]] static NetflowState parse(const std::vector<std::uint8_t>& bytes) {
    util::ByteReader r(bytes);
    NetflowState state;
    state.groups = r.u64();
    state.days_processed = r.u64();
    state.flows = r.u64();
    state.records = r.u64();
    state.excluded_single_syn = r.u64();
    state.unmatched_853 = r.u64();
    state.dot_records = r.u64();
    for (auto* monthly : {&state.cloudflare_monthly, &state.quad9_monthly}) {
      const std::uint32_t n = r.u32();
      for (std::uint32_t i = 0; i < n; ++i) {
        const util::Date month = util::Date::from_days(r.i64());
        (*monthly)[month] = r.u64();
      }
    }
    const std::uint32_t n_blocks = r.u32();
    for (std::uint32_t i = 0; i < n_blocks; ++i) {
      Block block;
      block.addr = r.u32();
      block.records = r.u64();
      block.first = r.i64();
      block.last = r.i64();
      const std::uint32_t n_days = r.u32();
      for (std::uint32_t d = 0; d < n_days; ++d) block.days.push_back(r.i64());
      state.blocks.push_back(std::move(block));
    }
    const auto rest = r.view(r.remaining());
    state.sketch_and_detector.assign(rest.begin(), rest.end());
    return state;
  }
};

/// The detector in its checkpoint layout (ScanDetector::encode's).
inline void write_detector(util::ByteWriter& w, const ScanDetector& detector) {
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

struct NetflowRun {
  NetflowStudyResults results;  // all but do53_monthly_estimate
  std::vector<std::vector<std::uint8_t>> states;  // after groups 1..3
};

/// The §5.2 study, one row at a time, its shards run serially.
inline NetflowRun run_netflow(
    const NetflowStudyConfig& config,
    const std::unordered_map<std::uint32_t, std::string>& resolvers) {
  struct BlockAccumulator {
    std::uint64_t records = 0;
    std::unordered_set<std::int64_t> days;
    util::Date first, last;
  };
  struct Partial {
    ScanDetector detector;
    std::uint64_t flows = 0, records = 0, excluded = 0, unmatched = 0, dot = 0;
    std::map<util::Date, std::uint64_t> cloudflare_monthly, quad9_monthly;
    std::unordered_map<std::uint32_t, BlockAccumulator> blocks;
    Sketch block_sketch;
  };

  NetflowRun run;
  NetflowStudyResults& results = run.results;
  const BackboneModel model(config.backbone);
  const auto n_days = static_cast<std::size_t>(
      std::max<std::int64_t>(util::days_between(config.backbone.start,
                                                config.backbone.end),
                             0));
  results.days_planned = n_days;
  Partial total;
  FlowBatch batch;
  for (std::size_t group = 0; group < kShards / kGroupShards; ++group) {
    for (std::size_t shard = group * kGroupShards;
         shard < (group + 1) * kGroupShards; ++shard) {
      const auto [first, last] = exec::shard_range(n_days, kShards, shard);
      Partial partial;
      for (std::size_t d = first; d < last; ++d) {
        const util::Date day =
            config.backbone.start.plus_days(static_cast<std::int64_t>(d));
        util::Rng day_rng(util::mix64(config.seed ^ 0x5A3DULL ^
                                      static_cast<std::uint64_t>(day.to_days())));
        batch.clear();
        generate_day_into(model, day, batch);
        for (std::size_t i = 0; i < batch.size(); ++i) {
          const RawFlow flow = batch.row(i);
          ++partial.flows;
          partial.detector.observe(flow);
          const auto record = observe(flow, config.sampling_rate, day_rng);
          if (!record) continue;
          ++partial.records;
          if (record->protocol != kProtoTcp || record->dst_port != 853) continue;
          if (record->single_syn()) {
            ++partial.excluded;
            continue;
          }
          const auto it = resolvers.find(record->dst.value());
          if (it == resolvers.end()) {
            ++partial.unmatched;
            continue;
          }
          ++partial.dot;
          const util::Date month = record->date.month_start();
          if (it->second == "cloudflare") ++partial.cloudflare_monthly[month];
          else if (it->second == "quad9") ++partial.quad9_monthly[month];
          const util::Ipv4 block = record->src.slash24();
          partial.block_sketch.add(block.value());
          auto& acc = partial.blocks[block.value()];
          if (acc.records == 0) acc.first = record->date;
          acc.last = record->date;
          ++acc.records;
          acc.days.insert(record->date.to_days());
        }
      }
      // Fold in canonical order.
      total.detector.merge(partial.detector);
      total.flows += partial.flows;
      total.records += partial.records;
      total.excluded += partial.excluded;
      total.unmatched += partial.unmatched;
      total.dot += partial.dot;
      for (const auto& [month, count] : partial.cloudflare_monthly)
        total.cloudflare_monthly[month] += count;
      for (const auto& [month, count] : partial.quad9_monthly)
        total.quad9_monthly[month] += count;
      for (auto& [addr, theirs] : partial.blocks) {
        auto& acc = total.blocks[addr];
        if (acc.records == 0) acc.first = theirs.first;
        acc.last = theirs.last;
        acc.records += theirs.records;
        acc.days.merge(theirs.days);
      }
      total.block_sketch.merge(partial.block_sketch);
      results.days_processed += last - first;
    }
    if (group + 1 == kShards / kGroupShards) break;
    NetflowState state;
    state.groups = group + 1;
    state.days_processed = results.days_processed;
    state.flows = total.flows;
    state.records = total.records;
    state.excluded_single_syn = total.excluded;
    state.unmatched_853 = total.unmatched;
    state.dot_records = total.dot;
    state.cloudflare_monthly = total.cloudflare_monthly;
    state.quad9_monthly = total.quad9_monthly;
    for (const auto& [addr, acc] : total.blocks) {
      NetflowState::Block block;
      block.addr = addr;
      block.records = acc.records;
      block.first = acc.first.to_days();
      block.last = acc.last.to_days();
      block.days.assign(acc.days.begin(), acc.days.end());
      std::sort(block.days.begin(), block.days.end());
      state.blocks.push_back(std::move(block));
    }
    std::sort(state.blocks.begin(), state.blocks.end(),
              [](const auto& a, const auto& b) { return a.addr < b.addr; });
    util::ByteWriter tail;
    Hll::encode(tail, total.block_sketch.hll());
    write_detector(tail, total.detector);
    state.sketch_and_detector = tail.take();
    run.states.push_back(state.encode());
  }

  results.cloudflare_monthly = total.cloudflare_monthly;
  results.quad9_monthly = total.quad9_monthly;
  results.total_dot_records = total.dot;
  results.excluded_single_syn = total.excluded;
  results.unmatched_853_records = total.unmatched;
  for (const auto& [addr, acc] : total.blocks) {
    NetblockStat stat;
    stat.slash24 = util::Ipv4{addr};
    stat.records = acc.records;
    stat.active_days = static_cast<int>(acc.days.size());
    stat.first_seen = acc.first;
    stat.last_seen = acc.last;
    results.netblocks.push_back(stat);
    if (total.detector.is_scanner(addr)) ++results.flagged_client_blocks;
  }
  std::sort(results.netblocks.begin(), results.netblocks.end(),
            [](const NetblockStat& a, const NetblockStat& b) {
              if (a.records != b.records) return a.records > b.records;
              return a.slash24 < b.slash24;
            });
  results.distinct_block_estimate = total.block_sketch.hll().estimate_u64();
  return run;
}

// --- trend -------------------------------------------------------------------

struct TrendRun {
  TrendStudyResults results;  // all but events and the exact counts
  /// The state saved after groups 1..3, and the live-state peak each would
  /// carry without the staging batch's columns.
  std::vector<std::vector<std::uint8_t>> states;
  std::vector<std::uint64_t> unstaged_peaks;
  std::uint64_t unstaged_peak = 0;  // the run's, likewise
};

/// The adoption trend, every provider-day staged in a FlowBatch of at most
/// 8,192 rows before the columns are folded, its shards run serially.
inline TrendRun run_trend(const TrendStudyConfig& config) {
  constexpr std::size_t kBatchRows = 8192;
  constexpr std::uint64_t kMonthAggFixedBytes = 64;
  struct MonthAgg {
    std::uint64_t records = 0;
    std::uint64_t bytes = 0;
    Sketch clients;
  };
  using MonthMap = std::map<std::int64_t, MonthAgg>;
  const auto months_bytes = [](const std::vector<MonthMap>& all) {
    std::uint64_t bytes = 0;
    for (const auto& months : all)
      for (const auto& [key, agg] : months)
        bytes += kMonthAggFixedBytes + agg.clients.memory_bytes();
    return bytes;
  };

  const TrendStudy study(config);
  const auto& providers = study.providers();
  const std::uint64_t sketch_seed = util::mix64(config.seed ^ 0x5CE7ULL);
  const auto slot = [&](MonthMap& months, std::int64_t key) -> MonthAgg& {
    const auto it = months.find(key);
    if (it != months.end()) return it->second;
    return months
        .emplace(key, MonthAgg{0, 0, Sketch(config.hll_precision, sketch_seed)})
        .first->second;
  };
  const auto n_days = static_cast<std::size_t>(
      std::max<std::int64_t>(util::days_between(config.start, config.end), 0));

  TrendRun run;
  TrendStudyResults& results = run.results;
  results.hll_precision = config.hll_precision;
  results.days_planned = n_days;
  std::vector<MonthMap> total(providers.size());
  std::uint64_t peak = 0;
  FlowBatch batch;
  for (std::size_t group = 0; group < kShards / kGroupShards; ++group) {
    for (std::size_t shard = group * kGroupShards;
         shard < (group + 1) * kGroupShards; ++shard) {
      const auto [first, last] = exec::shard_range(n_days, kShards, shard);
      std::vector<MonthMap> months(providers.size());
      std::uint64_t shard_peak = 0;
      std::uint64_t shard_unstaged_peak = 0;
      batch = FlowBatch();
      batch.reserve(1024);
      Sketch day_sketch(config.hll_precision, sketch_seed);
      for (std::size_t d = first; d < last; ++d) {
        const util::Date day = config.start.plus_days(static_cast<std::int64_t>(d));
        util::Rng day_rng(util::mix64(config.seed ^ 0x73E9DULL ^
                                      static_cast<std::uint64_t>(day.to_days())));
        for (std::size_t pi = 0; pi < providers.size(); ++pi) {
          const TrendProvider& provider = providers[pi];
          const double rate = study.daily_rate(provider, day);
          if (rate <= 0.0) continue;
          std::uint64_t remaining = day_rng.poisson(rate);
          if (remaining == 0) continue;
          const double width = std::clamp(
              rate / provider.flows_per_client_day, 1.0,
              static_cast<double>(std::max(provider.client_space, 1u)));
          const auto active = static_cast<std::uint64_t>(width);
          const double slide =
              static_cast<double>(util::days_between(provider.launch, day)) *
              provider.client_churn_per_day * config.scale;
          const std::uint64_t max_offset =
              provider.client_space > active ? provider.client_space - active : 0;
          const auto offset = static_cast<std::uint32_t>(
              std::min(static_cast<std::uint64_t>(slide), max_offset));
          day_sketch.clear();
          std::uint64_t day_records = 0;
          std::uint64_t day_bytes = 0;
          while (remaining > 0) {
            const auto chunk = static_cast<std::size_t>(
                std::min<std::uint64_t>(remaining, kBatchRows));
            batch.clear();
            for (std::size_t j = 0; j < chunk; ++j) {
              RawFlow flow;
              flow.src = util::Ipv4{provider.address_base + offset +
                                    static_cast<std::uint32_t>(day_rng.below(active))};
              flow.dst = provider.resolver;
              flow.src_port = static_cast<std::uint16_t>(20000 + day_rng.below(40000));
              flow.dst_port = provider.dst_port;
              flow.protocol = kProtoTcp;
              flow.packets = static_cast<std::uint32_t>(6 + day_rng.below(50));
              flow.bytes = static_cast<std::uint64_t>(flow.packets) *
                           (100 + day_rng.below(40));
              flow.complete_session = true;
              flow.date = day;
              batch.push(flow);
            }
            day_records += batch.size();
            for (const std::uint64_t b : batch.bytes()) day_bytes += b;
            for (const std::uint32_t src : batch.src()) day_sketch.add(src);
            remaining -= chunk;
          }
          MonthAgg& agg = slot(months[pi], day.month_start().to_days());
          agg.records += day_records;
          agg.bytes += day_bytes;
          agg.clients.merge(day_sketch);
          results.total_records += day_records;
          results.total_bytes += day_bytes;
        }
        const std::uint64_t unstaged =
            day_sketch.memory_bytes() + months_bytes(months);
        shard_unstaged_peak = std::max(shard_unstaged_peak, unstaged);
        shard_peak = std::max(shard_peak, batch.capacity_bytes() + unstaged);
      }
      // Fold in canonical order.
      peak = std::max(peak, shard_peak);
      run.unstaged_peak = std::max(run.unstaged_peak, shard_unstaged_peak);
      for (std::size_t pi = 0; pi < providers.size(); ++pi) {
        for (auto& [key, theirs] : months[pi]) {
          MonthAgg& agg = slot(total[pi], key);
          agg.records += theirs.records;
          agg.bytes += theirs.bytes;
          agg.clients.merge(theirs.clients);
        }
      }
      results.days_processed += last - first;
    }
    peak = std::max(peak, months_bytes(total));
    run.unstaged_peak = std::max(run.unstaged_peak, months_bytes(total));
    if (group + 1 == kShards / kGroupShards) break;
    util::ByteWriter w;
    w.u64(group + 1);
    w.u64(results.days_processed);
    w.u64(results.total_records);
    w.u64(results.total_bytes);
    w.u64(peak);
    w.u32(static_cast<std::uint32_t>(providers.size()));
    for (const MonthMap& months : total) {
      w.u32(static_cast<std::uint32_t>(months.size()));
      for (const auto& [key, agg] : months) {
        w.i64(key);
        w.u64(agg.records);
        w.u64(agg.bytes);
        Hll::encode(w, agg.clients.hll());
        w.u32(0);  // no exact client set
      }
    }
    run.states.push_back(w.take());
    run.unstaged_peaks.push_back(run.unstaged_peak);
  }

  for (std::size_t pi = 0; pi < providers.size(); ++pi) {
    TrendProviderSeries series;
    series.name = providers[pi].name;
    Sketch all_time(config.hll_precision, sketch_seed);
    for (const auto& [key, agg] : total[pi]) {
      TrendMonth month;
      month.month = util::Date::from_days(key);
      month.records = agg.records;
      month.bytes = agg.bytes;
      month.clients_estimated = agg.clients.hll().estimate_u64();
      series.monthly.push_back(month);
      series.total_records += agg.records;
      series.total_bytes += agg.bytes;
      all_time.merge(agg.clients);
    }
    series.clients_estimated = all_time.hll().estimate_u64();
    results.providers.push_back(std::move(series));
  }
  results.peak_tracked_bytes = peak;
  return run;
}

}  // namespace encdns::traffic::reference
