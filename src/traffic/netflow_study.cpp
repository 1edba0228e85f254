#include "traffic/netflow_study.hpp"

#include <algorithm>
#include <vector>

#include "exec/blocked_pass.hpp"
#include "obs/span.hpp"
#include "traffic/codec.hpp"
#include "util/bytes.hpp"
#include "world/providers.hpp"

namespace encdns::traffic {

namespace {
// Fixed shard count for the day-range partition. Part of the deterministic
// contract (shards bound the per-shard accumulator structure), so it never
// tracks the thread count.
constexpr std::size_t kNetflowShards = 16;
}  // namespace

double NetflowStudyResults::top_share(std::size_t k) const {
  if (total_dot_records == 0) return 0.0;
  std::uint64_t acc = 0;
  for (std::size_t i = 0; i < std::min(k, netblocks.size()); ++i)
    acc += netblocks[i].records;
  return static_cast<double>(acc) / static_cast<double>(total_dot_records);
}

double NetflowStudyResults::short_lived_block_fraction(int days) const {
  if (netblocks.empty()) return 0.0;
  std::size_t short_lived = 0;
  for (const auto& nb : netblocks)
    if (nb.active_days < days) ++short_lived;
  return static_cast<double>(short_lived) / static_cast<double>(netblocks.size());
}

double NetflowStudyResults::short_lived_traffic_share(int days) const {
  if (total_dot_records == 0) return 0.0;
  std::uint64_t acc = 0;
  for (const auto& nb : netblocks)
    if (nb.active_days < days) acc += nb.records;
  return static_cast<double>(acc) / static_cast<double>(total_dot_records);
}

std::unordered_map<std::uint32_t, std::string> big_resolver_address_list() {
  using namespace world::addrs;
  return {
      {kCloudflarePrimary.value(), "cloudflare"},
      {kCloudflareSecondary.value(), "cloudflare"},
      {kQuad9Primary.value(), "quad9"},
      {util::Ipv4{149, 112, 112, 112}.value(), "quad9"},
  };
}

NetflowStudy::NetflowStudy(
    NetflowStudyConfig config,
    std::unordered_map<std::uint32_t, std::string> resolver_addresses)
    : config_(std::move(config)), resolvers_(std::move(resolver_addresses)) {}

NetflowStudyResults NetflowStudy::run() {
  OBS_SPAN("traffic.netflow");
  NetflowStudyResults results;
  BackboneModel model(config_.backbone);

  struct BlockAccumulator {
    std::uint64_t records = 0;
    std::unordered_set<std::int64_t> days;
    util::Date first, last;
  };

  // The 18-month period is partitioned into a fixed number of contiguous
  // day-range shards. Each shard generates its days (per-day rng streams),
  // samples them with a per-day sampling rng, and fills its own accumulators;
  // the partials are then folded in ascending shard order, which reproduces
  // the serial day-by-day pass exactly.
  struct ShardPartial {
    NetflowCollector collector;
    ScanDetector detector;
    // Per-flow tallies stay in the shard partial (the backbone emits millions
    // of flows) and reach the counters once, at the serial merge.
    std::uint64_t flows_observed = 0;
    std::uint64_t records_sampled = 0;
    std::uint64_t excluded_single_syn = 0;
    std::uint64_t unmatched_853_records = 0;
    std::uint64_t total_dot_records = 0;
    std::map<util::Date, std::uint64_t> cloudflare_monthly;
    std::map<util::Date, std::uint64_t> quad9_monthly;
    std::unordered_map<std::uint32_t, BlockAccumulator> blocks;
    // Distinct client /24s as a sketch: register-max merge makes the shard
    // layout invisible in the estimate (DESIGN.md §16).
    Hll block_sketch;

    explicit ShardPartial(double rate) : collector(rate) {}
  };

  const std::int64_t total_days =
      util::days_between(config_.backbone.start, config_.backbone.end);
  const auto n_days =
      static_cast<std::size_t>(total_days > 0 ? total_days : 0);
  results.days_planned = n_days;

  // Persistent accumulator, folded group by group. Ascending shard order =
  // ascending day order, so first/last seen dates fold exactly as the serial
  // day-by-day pass would set them.
  ScanDetector detector;
  std::unordered_map<std::uint32_t, BlockAccumulator> blocks;
  Hll block_sketch;
  std::uint64_t flows_observed = 0;
  std::uint64_t records_sampled = 0;

  // The 16 shards run as a blocked pass (exec/blocked_pass.hpp) in groups
  // of four: group boundaries are where checkpoints land and cancellation
  // is honored, so a killed or degraded run always cuts on an
  // executed-shard prefix of the canonical order. A saved state counts
  // groups.
  constexpr std::size_t kGroupShards = 4;
  static_assert(kNetflowShards % kGroupShards == 0);
  std::vector<ShardPartial> partials;
  (void)exec::run_blocked_pass({
      .units = kNetflowShards, .block = kGroupShards,
      .pool = config_.pool, .thread_count = config_.thread_count,
      .cancel = config_.cancel, .checkpoint = config_.checkpoint,
      .run = [&](const exec::Block& group) {
        partials = std::vector<ShardPartial>(
            group.count, ShardPartial(config_.sampling_rate));
        return group.run_shards([&](std::size_t s) {
          const std::size_t shard = group.first + s;
          const auto [first, last] =
              exec::shard_range(n_days, kNetflowShards, shard);
          ShardPartial& partial = partials[s];
          // One columnar batch per shard, cleared and refilled day after day
          // (capacity survives the clear): steady-state generation allocates
          // nothing, and a completed day leaves no per-record state behind —
          // only the bounded accumulators above.
          FlowBatch batch;
          for (std::size_t d = first; d < last; ++d) {
            const util::Date day =
                config_.backbone.start.plus_days(static_cast<std::int64_t>(d));
            // Sampling decisions are a pure function of (seed, day):
            // independent of both the shard layout and the processing order.
            util::Rng day_rng(
                util::mix64(config_.seed ^ 0x5A3DULL ^
                            static_cast<std::uint64_t>(day.to_days())));
            batch.clear();
            model.generate_day_into(day, batch);
            for (std::size_t i = 0; i < batch.size(); ++i) {
              const RawFlow flow = batch.row(i);
              ++partial.flows_observed;
              partial.detector.observe(flow);
              const auto record = partial.collector.observe(flow, day_rng);
              if (!record) continue;
              ++partial.records_sampled;
              if (record->protocol != kProtoTcp || record->dst_port != 853)
                continue;
              if (record->single_syn()) {
                ++partial.excluded_single_syn;
                continue;
              }
              const auto it = resolvers_.find(record->dst.value());
              if (it == resolvers_.end()) {
                ++partial.unmatched_853_records;
                continue;
              }
              ++partial.total_dot_records;
              const util::Date month = record->date.month_start();
              if (it->second == "cloudflare") ++partial.cloudflare_monthly[month];
              else if (it->second == "quad9") ++partial.quad9_monthly[month];

              // Ethics: keep only the /24 of the client address from here on.
              const util::Ipv4 block = record->src.slash24();
              partial.block_sketch.add(block.value());
              auto& acc = partial.blocks[block.value()];
              if (acc.records == 0) acc.first = record->date;
              acc.last = record->date;
              ++acc.records;
              acc.days.insert(record->date.to_days());
            }
          }
        });
      },
      .fold = [&](const exec::Block& group, std::size_t executed) {
        for (std::size_t s = 0; s < executed; ++s) {  // canonical order
          auto& partial = partials[s];
          detector.merge(partial.detector);
          flows_observed += partial.flows_observed;
          records_sampled += partial.records_sampled;
          results.excluded_single_syn += partial.excluded_single_syn;
          results.unmatched_853_records += partial.unmatched_853_records;
          results.total_dot_records += partial.total_dot_records;
          for (const auto& [month, count] : partial.cloudflare_monthly)
            results.cloudflare_monthly[month] += count;
          for (const auto& [month, count] : partial.quad9_monthly)
            results.quad9_monthly[month] += count;
          for (auto& [addr, theirs] : partial.blocks) {
            auto& acc = blocks[addr];
            if (acc.records == 0) acc.first = theirs.first;
            acc.last = theirs.last;
            acc.records += theirs.records;
            acc.days.merge(theirs.days);
          }
          block_sketch.merge(partial.block_sketch);
          const auto [first, last] =
              exec::shard_range(n_days, kNetflowShards, group.first + s);
          results.days_processed += last - first;
        }
        return sim::Millis{0.0};
      },
      .encode = [&](util::ByteWriter& w, std::size_t done) {
        w.u64(done / kGroupShards);
        w.u64(results.days_processed);
        w.u64(flows_observed);
        w.u64(records_sampled);
        w.u64(results.excluded_single_syn);
        w.u64(results.unmatched_853_records);
        w.u64(results.total_dot_records);
        encode_monthly(w, results.cloudflare_monthly);
        encode_monthly(w, results.quad9_monthly);
        std::vector<std::uint32_t> sorted_blocks;
        sorted_blocks.reserve(blocks.size());
        for (const auto& [addr, acc] : blocks) sorted_blocks.push_back(addr);
        std::sort(sorted_blocks.begin(), sorted_blocks.end());
        w.u32(static_cast<std::uint32_t>(sorted_blocks.size()));
        for (const std::uint32_t addr : sorted_blocks) {
          const auto& acc = blocks.at(addr);
          w.u32(addr);
          w.u64(acc.records);
          w.i64(acc.first.to_days());
          w.i64(acc.last.to_days());
          std::vector<std::int64_t> active(acc.days.begin(), acc.days.end());
          std::sort(active.begin(), active.end());
          w.u32(static_cast<std::uint32_t>(active.size()));
          for (const std::int64_t day : active) w.i64(day);
        }
        encode_hll(w, block_sketch);
        encode_detector(w, detector);
      },
      .decode = [&](util::ByteReader& r) {
        const std::size_t done = r.u64() * kGroupShards;
        results.days_processed = static_cast<std::size_t>(r.u64());
        flows_observed = r.u64();
        records_sampled = r.u64();
        results.excluded_single_syn = r.u64();
        results.unmatched_853_records = r.u64();
        results.total_dot_records = r.u64();
        results.cloudflare_monthly = decode_monthly(r);
        results.quad9_monthly = decode_monthly(r);
        const std::uint32_t n_blocks = r.count(24);
        for (std::uint32_t i = 0; i < n_blocks; ++i) {
          auto& acc = blocks[r.u32()];
          acc.records = r.u64();
          acc.first = util::Date::from_days(r.i64());
          acc.last = util::Date::from_days(r.i64());
          const std::uint32_t n_active = r.count(8);
          for (std::uint32_t d = 0; d < n_active; ++d) acc.days.insert(r.i64());
        }
        block_sketch = decode_hll(r);
        decode_detector(r, detector);
        return done;
      },
  });
  auto& registry = obs::MetricsRegistry::global();
  registry.counter("traffic.netflow.flows").add(flows_observed);
  registry.counter("traffic.netflow.records").add(records_sampled);
  registry.counter("traffic.netflow.dot_records").add(results.total_dot_records);
  registry.counter("traffic.netflow.excluded_single_syn")
      .add(results.excluded_single_syn);
  registry.counter("traffic.netflow.unmatched_853")
      .add(results.unmatched_853_records);

  for (const auto& [addr, acc] : blocks) {
    NetblockStat stat;
    stat.slash24 = util::Ipv4{addr};
    stat.records = acc.records;
    stat.active_days = static_cast<int>(acc.days.size());
    stat.first_seen = acc.first;
    stat.last_seen = acc.last;
    results.netblocks.push_back(stat);
  }
  std::sort(results.netblocks.begin(), results.netblocks.end(),
            [](const NetblockStat& a, const NetblockStat& b) {
              if (a.records != b.records) return a.records > b.records;
              return a.slash24 < b.slash24;
            });

  for (const auto& entry : blocks)
    if (detector.is_scanner(util::Ipv4{entry.first}))
      ++results.flagged_client_blocks;
  results.distinct_block_estimate = block_sketch.estimate_u64();
  registry.counter("traffic.netflow.distinct_blocks_estimated")
      .add(results.distinct_block_estimate);

  // Traditional-DNS scale estimate: Do53 flows are short (1-2 packets), so a
  // record exports with probability ~= packets * rate.
  const auto& adoption = model.adoption();
  for (util::Date month = config_.backbone.start.month_start();
       month < config_.backbone.end; month = month.next_month()) {
    double sampled = 0.0;
    for (util::Date day = month;
         day < month.next_month() && day < config_.backbone.end;
         day = day.plus_days(1)) {
      const double dot_flows = adoption.daily_raw_flows("cloudflare", day) +
                               adoption.daily_raw_flows("quad9", day);
      const double do53_flows =
          std::max(dot_flows, 20000.0) * config_.backbone.do53_to_dot_ratio;
      sampled += do53_flows * 1.6 * config_.sampling_rate;
    }
    results.do53_monthly_estimate[month] = sampled;
  }
  return results;
}

}  // namespace encdns::traffic
