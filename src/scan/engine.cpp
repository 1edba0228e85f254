#include "scan/engine.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <queue>
#include <utility>
#include <vector>

#include "dns/types.hpp"
#include "exec/executor.hpp"
#include "exec/window.hpp"
#include "scan/cookie.hpp"

namespace encdns::scan {

namespace {

// Mirrors the scanner's fixed Phase-1 shard count: part of the deterministic
// contract, never a function of the thread count.
constexpr std::size_t kSweepShards = 64;

// Cookie-keyed sub-streams for the receive-side adversarial cases (all
// gated on an enabled injector, so canonical fault-free runs never draw).
constexpr std::uint64_t kForgeKey = 0xF0A6EULL;
constexpr std::uint64_t kDupKey = 0xD0B1EULL;
constexpr std::uint64_t kStaleKey = 0x57A1EULL;

// Of the SYN-dropped probes, the fraction whose SYN-ACK was merely late
// rather than lost: the response surfaces after the retransmit already
// classified the address, exercising the stale-rejection path.
constexpr double kLateFraction = 0.25;

constexpr sim::Millis kProbeTimeout{3000.0};

/// One queued response awaiting classification.
struct Pending {
  double arrival = 0.0;      // simulated ms after the probe was sent
  std::uint64_t seq = 0;     // attempt-0 emission index (canonical position)
  std::uint64_t index = 0;   // space index, so a retransmit routes like attempt 0
  util::Ipv4 addr;
  std::uint32_t attempt = 0;
  std::uint64_t echoed = 0;  // cookie as echoed (forgeries corrupt this)
  net::Network::ProbeStatus status = net::Network::ProbeStatus::kClosed;
  sim::Millis latency{0.0};
  bool holds_credit = false;
  bool duplicate = false;  // second delivery of an already-queued response
  bool stale = false;      // late arrival for a retransmitted attempt
};

struct ArrivesLater {
  bool operator()(const Pending& a, const Pending& b) const noexcept {
    if (a.arrival != b.arrival) return a.arrival > b.arrival;
    return a.seq > b.seq;  // deterministic tiebreak
  }
};

struct ShardPartial {
  std::vector<std::pair<std::uint64_t, util::Ipv4>> opens;  // (seq, addr)
  EngineTally tally;
};

/// The per-shard transmit/receive pair. Everything here is shard-local:
/// the window, the receive ring, and the partial tally.
class ShardRun {
 public:
  ShardRun(const world::World& world, const EngineConfig& config,
           const ScanSpace& space, const std::vector<world::Vantage>& origins,
           const util::Date& date, const std::vector<std::uint64_t>& bound,
           bool fast_path, ShardPartial& partial)
      : world_(&world),
        config_(&config),
        space_(&space),
        origins_(&origins),
        date_(&date),
        bound_(bound.data()),
        background_(world.background_sweep_853(date)),
        background_853_(config.port == dns::kDotPort),
        fast_path_(fast_path),
        stop_after_tx_(config.cancel != nullptr && config.cancel_after_tx > 0
                           ? config.cancel_after_tx
                           : std::numeric_limits<std::uint64_t>::max()),
        window_(config.window),
        partial_(&partial) {
    const auto* injector = world.network().fault_injector();
    injector_on_ = injector != nullptr && injector->enabled();
  }

  /// Walks the shard a block of CyclicPermutation::Walker::kBlock steps at
  /// a time: the walker fills the block's indices, the kernel settles them
  /// in canonical order, and the cancel token is polled once per block.
  /// Wall/manual cancellation is non-deterministic by contract, so polling
  /// mid-shard is legal; sim budgets only move at serial merge points, so a
  /// sim-triggered cut still lands on shard boundaries.
  void run(CyclicPermutation::Walker walker) {
    std::array<std::uint64_t, CyclicPermutation::Walker::kBlock> block;
    bool cancelled = false;
    while (!cancelled && !walker.done()) {
      if (config_->cancel != nullptr && config_->cancel->cancelled()) {
        cancelled = true;
      } else {
        const std::size_t count = walker.fill(block.data(), block.size());
        cancelled = !transmit_block(block.data(), count);
      }
    }
    drain_all(/*classify=*/!cancelled);
    // Materialized-response time, accumulated in integer nanoseconds so the
    // shard total is independent of classification order (double addition
    // is not associative; drain order legally shifts with the window).
    partial_->tally.sim_elapsed +=
        sim::Millis{static_cast<double>(sim_nanos_) * 1e-6};
    partial_->tally.credit_leaks += window_.in_flight();
    partial_->tally.double_releases += window_.double_releases();
    partial_->tally.window_high_water =
        std::max(partial_->tally.window_high_water, window_.high_water());
    std::sort(partial_->opens.begin(), partial_->opens.end());
  }

 private:
  /// The transmit kernel: each walked index, in canonical order, becomes
  /// its address's attempt-0 probe. A closed verdict settles against the
  /// hoisted bitmaps and the inline background hash with the counters held
  /// in registers; a probe that needs state publishes them, takes the
  /// enqueue path and reloads them (its receive side may have
  /// retransmitted). The test hook is checked after every address, so the
  /// cut lands after exactly the same transmission as a per-probe loop.
  /// Returns false once the hook trips.
  bool transmit_block(const std::uint64_t* indices, std::size_t count) {
    EngineTally& tally = partial_->tally;
    std::uint64_t probed = tally.probed;
    std::uint64_t transmitted = tally.transmitted;
    bool live = true;
    for (std::size_t i = 0; i < count && live; ++i) {
      const std::uint64_t index = indices[i];
      const util::Ipv4 addr = space_->at(index);
      ++transmitted;
      if (!settles_closed(index, addr)) {
        tally.probed = probed + 1;
        tally.transmitted = transmitted;
        respond(index, probed, addr, /*attempt=*/0);
        transmitted = tally.transmitted;
      }
      ++probed;
      live = transmitted < stop_after_tx_;
    }
    tally.probed = probed;
    tally.transmitted = transmitted;
    if (!live) config_->cancel->cancel("scan-engine-test-hook");
    return live;
  }

  /// A retransmission: counted and settled like an attempt-0 probe.
  void transmit(std::uint64_t index, std::uint64_t seq, util::Ipv4 addr,
                std::uint32_t attempt) {
    ++partial_->tally.transmitted;
    if (!settles_closed(index, addr)) respond(index, seq, addr, attempt);
  }

  /// Whether a probe's verdict is closed with no state at all — the
  /// masscan economy: on the fast path the ~99% of the space that is
  /// closed costs no cookie, no rng draw, no credit and no receive state.
  [[nodiscard]] bool settles_closed(std::uint64_t index,
                                    util::Ipv4 addr) const noexcept {
    return fast_path_ && !is_bound(index) &&
           !(background_853_ && background_.open(addr));
  }

  [[nodiscard]] bool is_bound(std::uint64_t index) const noexcept {
    return (bound_[index >> 6] >> (index & 63) & 1) != 0;
  }

  /// The enqueue path of a probe that does not settle closed. The cookie is
  /// minted only now that a response exists. On the fast path an unbound
  /// address here is an open background host; a bound address, a middlebox
  /// on path or faults on get full transport semantics via probe_tcp, with
  /// the probe's own cookie-keyed stream.
  void respond(std::uint64_t index, std::uint64_t seq, util::Ipv4 addr,
               std::uint32_t attempt) {
    const std::uint64_t cookie =
        make_cookie(config_->seed, addr, config_->port, attempt);
    util::Rng rng = cookie_rng(cookie);
    Pending item;
    item.seq = seq;
    item.index = index;
    item.addr = addr;
    item.attempt = attempt;
    item.echoed = cookie;
    if (fast_path_ && !is_bound(index)) {
      item.status = net::Network::ProbeStatus::kOpen;
      item.latency = sim::Millis{rng.uniform(20.0, 250.0)};
      enqueue_with_credit(std::move(item));
      return;
    }
    const auto probe = world_->network().probe_tcp(
        origin_for(addr).context, rng, addr, config_->port, *date_,
        kProbeTimeout);
    item.status = probe.status;
    item.latency = probe.latency;
    if (injector_on_) {
      const auto& profile = world_->network().fault_injector()->profile();
      util::Rng forge = cookie_rng(cookie ^ kForgeKey);
      if (forge.chance(profile.exchange_garble))
        item.echoed ^= 1ULL << forge.below(64);
      util::Rng dup = cookie_rng(cookie ^ kDupKey);
      if (dup.chance(profile.udp_drop)) {
        Pending copy = item;
        copy.arrival = item.latency.value + dup.uniform(1.0, 50.0);
        copy.holds_credit = false;
        copy.duplicate = true;
        ring_.push(std::move(copy));
      }
    }
    enqueue_with_credit(std::move(item));
  }

  void enqueue_with_credit(Pending item) {
    while (!window_.try_acquire()) classify(pop());
    item.holds_credit = true;
    item.arrival = item.latency.value;
    ring_.push(std::move(item));
  }

  [[nodiscard]] Pending pop() {
    Pending item = ring_.top();
    ring_.pop();
    return item;
  }

  void drain_all(bool classify_items) {
    while (!ring_.empty()) {
      Pending item = pop();
      if (classify_items) {
        classify(item);
      } else {
        // Cancelled with the response still queued: the credit is released
        // exactly once and the verdict is dropped (coverage degrades, the
        // window balances) — the tests/exec/test_window regression.
        if (item.holds_credit) window_.release();
      }
    }
  }

  /// The receive side: validate the echoed cookie, reject duplicates and
  /// stale arrivals, then apply the verdict (possibly retransmitting).
  void classify(Pending item) {
    if (item.holds_credit) window_.release();
    EngineTally& tally = partial_->tally;
    if (item.duplicate) {
      ++tally.rejected_duplicate;
      return;
    }
    if (item.stale) {
      ++tally.rejected_stale;
      return;
    }
    sim_nanos_ +=
        static_cast<std::uint64_t>(std::llround(item.latency.value * 1e6));
    if (!validate_cookie(item.echoed, config_->seed, item.addr, config_->port,
                         item.attempt)) {
      // Forged or garbled echo: fail closed. The response proves nothing,
      // so the attempt is treated exactly like a filtered verdict.
      ++tally.rejected_forgery;
      filtered_verdict(item);
      return;
    }
    switch (item.status) {
      case net::Network::ProbeStatus::kFiltered:
        filtered_verdict(item);
        return;
      case net::Network::ProbeStatus::kOpen:
        ++tally.open;
        partial_->opens.emplace_back(item.seq, item.addr);
        break;
      case net::Network::ProbeStatus::kClosed:
        break;
    }
    if (item.attempt > 0) ++tally.faults.recovered;
  }

  /// Mirror of the legacy retry accounting: each retransmission counts one
  /// injected fault; an address still unreachable on its final attempt
  /// surfaces, a later success recovers.
  void filtered_verdict(const Pending& item) {
    EngineTally& tally = partial_->tally;
    if (static_cast<int>(item.attempt) + 1 <
        std::max(config_->max_attempts, 1)) {
      ++tally.faults.injected;
      ++tally.retransmits;
      maybe_emit_stale(item);
      transmit(item.index, item.seq, item.addr, item.attempt + 1);
      return;
    }
    ++tally.faults.surfaced;
  }

  /// A dropped probe whose response was merely late: it arrives after the
  /// retransmit classified the address and must be rejected as stale. Late
  /// arrivals hold no credit — their probe's credit was already released
  /// when the timeout verdict was classified.
  void maybe_emit_stale(const Pending& item) {
    if (!injector_on_) return;
    const std::uint64_t cookie = make_cookie(config_->seed, item.addr,
                                             config_->port, item.attempt);
    util::Rng late = cookie_rng(cookie ^ kStaleKey);
    if (!late.chance(kLateFraction)) return;
    Pending ghost;
    ghost.seq = item.seq;
    ghost.addr = item.addr;
    ghost.attempt = item.attempt;
    ghost.echoed = cookie;
    ghost.status = net::Network::ProbeStatus::kOpen;
    ghost.latency = sim::Millis{0.0};
    ghost.arrival = kProbeTimeout.value + late.uniform(0.0, 500.0);
    ghost.holds_credit = false;
    ghost.stale = true;
    ring_.push(std::move(ghost));
  }

  [[nodiscard]] const world::Vantage& origin_for(util::Ipv4 addr) const {
    return (*origins_)[addr.value() % origins_->size()];
  }

  const world::World* world_;
  const EngineConfig* config_;
  const ScanSpace* space_;
  const std::vector<world::Vantage>* origins_;
  const util::Date* date_;
  const std::uint64_t* bound_;  // bitmap over space indices
  world::World::Background853Sweep background_;
  bool background_853_;  // only TCP/853 has a background population
  bool fast_path_;
  bool injector_on_ = false;
  std::uint64_t stop_after_tx_;  // the test hook's cut; max() when off
  std::uint64_t sim_nanos_ = 0;
  exec::CreditWindow window_;
  std::priority_queue<Pending, std::vector<Pending>, ArrivesLater> ring_;
  ShardPartial* partial_;
};

}  // namespace

EngineTally& EngineTally::operator+=(const EngineTally& other) noexcept {
  transmitted += other.transmitted;
  probed += other.probed;
  open += other.open;
  retransmits += other.retransmits;
  rejected_forgery += other.rejected_forgery;
  rejected_duplicate += other.rejected_duplicate;
  rejected_stale += other.rejected_stale;
  credit_leaks += other.credit_leaks;
  double_releases += other.double_releases;
  window_high_water = std::max(window_high_water, other.window_high_water);
  faults += other.faults;
  sim_elapsed += other.sim_elapsed;
  return *this;
}

ScanEngine::ScanEngine(const world::World& world, EngineConfig config)
    : world_(&world), config_(std::move(config)) {}

SweepResult ScanEngine::sweep(const ScanSpace& space,
                              const CyclicPermutation& permutation,
                              const std::vector<world::Vantage>& origins,
                              const util::Date& date) const {
  // The fast path is legal only when nothing can perturb an unbound
  // address's verdict: clean origins (no middlebox path) and no injector.
  const auto* injector = world_->network().fault_injector();
  bool fast_path = injector == nullptr || !injector->enabled();
  for (const auto& origin : origins)
    if (!origin.context.path.empty()) fast_path = false;

  // Addresses with bindings take the full probe_tcp route; everything else
  // is background-or-closed. One bitmap per sweep, indexed by space index.
  std::vector<std::uint64_t> bound(
      static_cast<std::size_t>(space.size() / 64 + 1), 0);
  for (const util::Ipv4 addr : world_->network().bound_addresses())
    if (const auto index = space.index_of(addr))
      bound[static_cast<std::size_t>(*index >> 6)] |= std::uint64_t{1}
                                                      << (*index & 63);

  exec::PoolLease pool(config_.pool, config_.thread_count);
  std::vector<ShardPartial> partials(kSweepShards);
  pool.get().parallel_for_shards(
      kSweepShards,
      [&](std::size_t shard) {
        const auto [first, last] =
            exec::shard_range(permutation.steps(), kSweepShards, shard);
        ShardRun run(*world_, config_, space, origins, date, bound, fast_path,
                     partials[shard]);
        run.run(permutation.walk(first, last));
      },
      config_.cancel);

  SweepResult result;
  for (const auto& partial : partials) {  // canonical shard-order merge
    for (const auto& [seq, addr] : partial.opens)
      result.open_hosts.push_back(addr);
    result.tally += partial.tally;
  }
  return result;
}

}  // namespace encdns::scan
