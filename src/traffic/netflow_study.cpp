#include "traffic/netflow_study.hpp"

#include <algorithm>
#include <bit>
#include <vector>

#include "exec/blocked_pass.hpp"
#include "obs/span.hpp"
#include "util/fields.hpp"
#include "world/providers.hpp"

namespace encdns::traffic {

namespace {
// Fixed shard count for the day-range partition. Part of the deterministic
// contract (shards bound the per-shard accumulator structure), so it never
// tracks the thread count.
constexpr std::size_t kNetflowShards = 16;

/// One client /24 of a saved partial state: its tallies and its active
/// days as an ascending list of day numbers.
struct SavedBlock {
  std::uint32_t addr = 0;
  std::uint64_t records = 0;
  std::int64_t first = 0;
  std::int64_t last = 0;
  std::vector<std::int64_t> days;

  static void fields(auto& self, auto&& visit) {
    visit(self.addr, self.records, self.first, self.last, self.days);
  }
};
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
    : config_(std::move(config)) {
  for (const auto& [addr, label] : resolver_addresses) {
    resolver_labels_[addr] = label == "cloudflare" ? kCloudflare
                             : label == "quad9"    ? kQuad9
                                                   : kOtherLabel;
  }
}

NetflowStudyResults NetflowStudy::run() {
  OBS_SPAN("traffic.netflow");
  NetflowStudyResults results;
  BackboneModel model(config_.backbone);
  const NetflowCollector collector(config_.sampling_rate);

  const std::int64_t start_day = config_.backbone.start.to_days();
  const std::int64_t total_days =
      util::days_between(config_.backbone.start, config_.backbone.end);
  const auto n_days =
      static_cast<std::size_t>(total_days > 0 ? total_days : 0);
  results.days_planned = n_days;
  // Active days are bits over the window: window day d is bit d % 64 of
  // word d / 64.
  const std::size_t n_words = (n_days + 63) / 64;

  // The day -> month table: window day d falls in months[month_of[d]].
  // Days stay integers from here on.
  std::vector<util::Date> months;
  for (util::Date month = config_.backbone.start.month_start();
       month < config_.backbone.end; month = month.next_month())
    months.push_back(month);
  std::vector<std::uint32_t> month_of(n_days);
  for (std::size_t d = 0; d < n_days; ++d)
    month_of[d] = static_cast<std::uint32_t>(util::months_between(
        months.front(),
        config_.backbone.start.plus_days(static_cast<std::int64_t>(d))));
  const std::size_t n_months = months.size();
  // Figure 11's series, flat: monthly[label * n_months + month].
  constexpr std::size_t kSeries = kOtherLabel;

  struct BlockAccumulator {
    std::uint64_t records = 0;
    std::int64_t first = 0;  // day numbers
    std::int64_t last = 0;
    std::vector<std::uint64_t> days;  // n_words of active-day bits
  };

  // The 18-month period is partitioned into a fixed number of contiguous
  // day-range shards. Each shard runs one fused pass per day: the backbone
  // hands every generated flow straight to the scan detector and to the
  // collector (a per-day sampling rng), and a sampled DoT record goes
  // straight into the shard's accumulators. The partials are then folded in
  // ascending shard order, which reproduces the serial day-by-day pass
  // exactly.
  struct ShardPartial {
    ScanDetector detector;
    // Per-flow tallies stay in the shard partial (the backbone emits millions
    // of flows) and reach the counters once, at the serial merge.
    std::uint64_t flows_observed = 0;
    std::uint64_t records_sampled = 0;
    std::uint64_t excluded_single_syn = 0;
    std::uint64_t unmatched_853_records = 0;
    std::uint64_t total_dot_records = 0;
    std::vector<std::uint64_t> monthly;
    std::unordered_map<std::uint32_t, BlockAccumulator> blocks;
    // Distinct client /24s as a sketch: register-max merge makes the shard
    // layout invisible in the estimate (DESIGN.md §16).
    Hll block_sketch;
  };

  // Persistent accumulator, folded group by group. Ascending shard order =
  // ascending day order, so first/last seen days fold exactly as the serial
  // day-by-day pass would set them.
  ScanDetector detector;
  std::vector<std::uint64_t> monthly(kSeries * n_months, 0);
  std::unordered_map<std::uint32_t, BlockAccumulator> blocks;
  Hll block_sketch;
  std::uint64_t flows_observed = 0;
  std::uint64_t records_sampled = 0;

  // A series as Figure 11 keys it: months with at least one record.
  const auto series = [&](Label label) {
    std::map<util::Date, std::uint64_t> out;
    for (std::size_t m = 0; m < n_months; ++m)
      if (const std::uint64_t count = monthly[label * n_months + m]; count > 0)
        out.emplace(months[m], count);
    return out;
  };
  const auto restore_series =
      [&](Label label, const std::map<util::Date, std::uint64_t>& saved) {
    for (const auto& [month, count] : saved) {
      const auto it = std::lower_bound(months.begin(), months.end(), month);
      if (it == months.end() || *it != month)
        throw util::CodecError("netflow checkpoint: month " +
                               month.to_string() + " outside the window");
      monthly[label * n_months +
              static_cast<std::size_t>(it - months.begin())] = count;
    }
  };

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
        partials = std::vector<ShardPartial>(group.count);
        return group.run_shards([&](std::size_t s) {
          const std::size_t shard = group.first + s;
          const auto [first, last] =
              exec::shard_range(n_days, kNetflowShards, shard);
          ShardPartial& partial = partials[s];
          partial.monthly.assign(kSeries * n_months, 0);
          // A completed day leaves no per-flow state behind — only the
          // bounded accumulators above.
          for (std::size_t d = first; d < last; ++d) {
            const std::int64_t day = start_day + static_cast<std::int64_t>(d);
            // Sampling decisions are a pure function of (seed, day):
            // independent of both the shard layout and the processing order.
            util::Rng day_rng(util::mix64(config_.seed ^ 0x5A3DULL ^
                                          static_cast<std::uint64_t>(day)));
            const auto visit = [&](const FlowHeader& flow) {
              partial.detector.observe(flow);
              const FlowSample sample = collector.observe(flow, day_rng);
              if (!sample) return;
              ++partial.records_sampled;
              if (flow.protocol != kProtoTcp || flow.dst_port != 853) return;
              if (sample.single_syn()) {
                ++partial.excluded_single_syn;
                return;
              }
              const auto it = resolver_labels_.find(flow.dst.value());
              if (it == resolver_labels_.end()) {
                ++partial.unmatched_853_records;
                return;
              }
              ++partial.total_dot_records;
              if (it->second < kSeries)
                ++partial.monthly[it->second * n_months + month_of[d]];

              // Ethics: keep only the /24 of the client address from here on.
              const std::uint32_t block = flow.src.slash24().value();
              partial.block_sketch.add(block);
              auto& acc = partial.blocks[block];
              if (acc.records == 0) {
                acc.first = day;
                acc.days.assign(n_words, 0);
              }
              acc.last = day;
              ++acc.records;
              acc.days[d / 64] |= std::uint64_t{1} << (d % 64);
            };
            partial.flows_observed += model.generate_day(day, visit);
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
          for (std::size_t i = 0; i < monthly.size(); ++i)
            monthly[i] += partial.monthly[i];
          for (auto& [addr, theirs] : partial.blocks) {
            auto& acc = blocks[addr];
            if (acc.days.empty()) acc.days.assign(n_words, 0);
            if (acc.records == 0) acc.first = theirs.first;
            acc.last = theirs.last;
            acc.records += theirs.records;
            for (std::size_t w = 0; w < n_words; ++w) acc.days[w] |= theirs.days[w];
          }
          block_sketch.merge(partial.block_sketch);
          const auto [first, last] =
              exec::shard_range(n_days, kNetflowShards, group.first + s);
          results.days_processed += last - first;
        }
        return sim::Millis{0.0};
      },
      // The saved state lists the blocks in ascending order, each with its
      // active days in ascending order.
      .encode = [&](util::ByteWriter& w, std::size_t done) {
        std::vector<SavedBlock> saved;
        saved.reserve(blocks.size());
        for (const auto& [addr, acc] : blocks) {
          SavedBlock& block = saved.emplace_back(
              SavedBlock{addr, acc.records, acc.first, acc.last, {}});
          for (std::size_t i = 0; i < n_words; ++i) {
            for (std::uint64_t word = acc.days[i]; word != 0; word &= word - 1)
              block.days.push_back(start_day + static_cast<std::int64_t>(
                                                   i * 64 + std::countr_zero(word)));
          }
        }
        std::sort(saved.begin(), saved.end(),
                  [](const SavedBlock& a, const SavedBlock& b) {
                    return a.addr < b.addr;
                  });
        const auto cloudflare = series(kCloudflare);
        const auto quad9 = series(kQuad9);
        util::write(w, std::uint64_t{done / kGroupShards},
                    results.days_processed, flows_observed, records_sampled,
                    results.excluded_single_syn, results.unmatched_853_records,
                    results.total_dot_records,
                    util::via<MonthlySeries>(cloudflare),
                    util::via<MonthlySeries>(quad9), saved, block_sketch,
                    detector);
      },
      .decode = [&](util::ByteReader& r) {
        std::uint64_t groups = 0;
        std::map<util::Date, std::uint64_t> cloudflare;
        std::map<util::Date, std::uint64_t> quad9;
        std::vector<SavedBlock> saved;
        util::read(r, groups, results.days_processed, flows_observed,
                   records_sampled, results.excluded_single_syn,
                   results.unmatched_853_records, results.total_dot_records,
                   util::via<MonthlySeries>(cloudflare),
                   util::via<MonthlySeries>(quad9), saved, block_sketch,
                   detector);
        restore_series(kCloudflare, cloudflare);
        restore_series(kQuad9, quad9);
        const auto check = [](bool holds, const char* what) {
          if (!holds)
            throw util::CodecError(std::string("netflow checkpoint: ") + what);
        };
        for (std::size_t i = 0; i < saved.size(); ++i) {
          const SavedBlock& block = saved[i];
          check(i == 0 || block.addr > saved[i - 1].addr,
                "blocks not in ascending order");
          check(block.first <= block.last, "first seen after last");
          check(block.days.size() <= n_days, "more active days than the window");
          auto& acc = blocks[block.addr];
          acc.records = block.records;
          acc.first = block.first;
          acc.last = block.last;
          acc.days.assign(n_words, 0);
          std::int64_t prior = start_day - 1;
          for (const std::int64_t day : block.days) {
            check(day >= start_day && day < start_day + total_days,
                  "active day outside the window");
            check(day > prior, "active days not strictly ascending");
            prior = day;
            const auto d = static_cast<std::size_t>(day - start_day);
            acc.days[d / 64] |= std::uint64_t{1} << (d % 64);
          }
        }
        return static_cast<std::size_t>(groups) * kGroupShards;
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

  results.cloudflare_monthly = series(kCloudflare);
  results.quad9_monthly = series(kQuad9);
  for (const auto& [addr, acc] : blocks) {
    NetblockStat stat;
    stat.slash24 = util::Ipv4{addr};
    stat.records = acc.records;
    for (const std::uint64_t word : acc.days)
      stat.active_days += std::popcount(word);
    stat.first_seen = util::Date::from_days(acc.first);
    stat.last_seen = util::Date::from_days(acc.last);
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
