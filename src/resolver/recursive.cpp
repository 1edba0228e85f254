#include "resolver/recursive.hpp"

#include "dns/query.hpp"
#include "obs/metrics.hpp"

namespace encdns::resolver {
namespace {

/// Seconds since the epoch for the simulation's civil-date clock. Dates are
/// the finest time the experiments schedule against, so "now" moves in whole
/// 86400 s steps; the cache itself is second-accurate for unit tests and any
/// future sub-day clock.
[[nodiscard]] std::int64_t to_seconds(const util::Date& date) noexcept {
  return date.to_days() * 86400;
}

/// Stable pseudo-address for the authoritative side of a recursion, so the
/// fault injector's per-(target, day) streams and flap windows apply to the
/// resolver->nameserver leg exactly as they do to client transports.
[[nodiscard]] util::Ipv4 upstream_target(const cache::DnsCache::Key& key) noexcept {
  return util::Ipv4{static_cast<std::uint32_t>(key.hash)};
}

[[nodiscard]] cache::CacheConfig effective_cache_config(
    const RecursiveConfig& config) {
  cache::CacheConfig cache_config = config.cache;
  cache_config.max_entries = config.max_cache_entries;
  return cache::CacheConfig::from_env(cache_config);
}

/// In-place equivalent of `dns::make_response(query, rcode)` for a scratch
/// Result: header/questions echo reuses the response's existing storage.
/// Answer records are left untouched — every caller either refills them with
/// element-wise reuse (a copy-assign or a cache decode) or clears them on its
/// cold path.
void response_skeleton_into(DnsBackend::Result& out, const dns::Message& query,
                            dns::RCode rcode) {
  out.response.header = query.header;
  out.response.header.qr = true;
  out.response.header.ra = true;
  out.response.header.rcode = rcode;
  out.response.questions = query.questions;
  out.response.authorities.clear();
  out.response.additionals.clear();
}

}  // namespace

RecursiveBackend::RecursiveBackend(const AuthoritativeUniverse& universe,
                                   std::string label, RecursiveConfig config,
                                   const fault::FaultInjector* faults)
    : universe_(&universe),
      label_(std::move(label)),
      config_(config),
      faults_(faults),
      cache_(effective_cache_config(config)) {
  config_.cache = cache_.config();
}

DnsBackend::Result RecursiveBackend::resolve(const dns::Message& query,
                                             const net::Location& pop,
                                             const util::Date& date, util::Rng& rng) {
  Result result;
  resolve_into(query, pop, date, rng, result);
  return result;
}

void RecursiveBackend::resolve_into(const dns::Message& query,
                                    const net::Location& pop,
                                    const util::Date& date, util::Rng& rng,
                                    Result& out) {
  out.processing = sim::Millis{0.5};
  if (query.questions.empty()) {
    response_skeleton_into(out, query, dns::RCode::kFormErr);
    out.response.answers.clear();
    out.processing = sim::Millis{0.1};
    return;
  }
  const auto& q = query.questions.front();
  // Resolved once: the warm-path check and the upstream answer share it.
  const Zone* zone = universe_->find_zone(q.name);

  // Popular zones are warm in every resolver's cache: answer without touching
  // shared state, so the outcome never depends on other sessions.
  if (config_.enable_cache && zone != nullptr && zone->popular) {
    ++hits_;
    static obs::Counter& warm_hits =
        obs::MetricsRegistry::global().counter("cache.lookup.warm_hit");
    warm_hits.add();
    const Answer answer =
        universe_->authoritative_answer(zone, q.name, q.type, date);
    response_skeleton_into(out, query, answer.rcode);
    out.response.answers = answer.answers;
    out.processing =
        sim::Millis{rng.uniform(config_.hit_min_ms, config_.hit_max_ms)};
    return;
  }

  // Per-thread cache-key scratch: keys are consumed within this call (the
  // cache copies the key only when inserting a new entry). Hashed once for
  // the lookup, the stale lookup, the upstream target and the store.
  thread_local std::string key_text;
  q.name.canonical_into(key_text);
  key_text.push_back('/');
  key_text.append(std::to_string(static_cast<int>(q.type)));
  const cache::DnsCache::Key key(key_text);
  const std::int64_t now_s = to_seconds(date);

  if (config_.enable_cache) {
    // A hit decodes the entry straight into the response's answer slots.
    if (const auto hit = cache_.lookup(key, now_s, out.response.answers)) {
      ++hits_;
      response_skeleton_into(out, query, hit->rcode);
      out.processing =
          sim::Millis{rng.uniform(config_.hit_min_ms, config_.hit_max_ms)};
      return;
    }
  }

  ++misses_;

  // Transient upstream failure (Channel::kRecursion): serve stale if the
  // config allows and an expired-but-recent entry exists, else SERVFAIL —
  // which is never cached (RFC 2308). Gated on the profile so fault-free
  // and pre-serve-stale canonical runs consume no extra rng tokens.
  sim::Millis upstream_extra{0.0};
  if (faults_ != nullptr && faults_->enabled() &&
      faults_->profile().upstream_fail > 0.0) {
    const fault::Decision decision = faults_->decide(
        fault::Channel::kRecursion, upstream_target(key), dns::kDnsPort, date, rng);
    if (decision.kind == fault::Decision::Kind::kSpike) {
      upstream_extra = decision.extra_latency;  // slow, not failed
    } else if (decision.kind != fault::Decision::Kind::kNone) {
      ++upstream_faults_;
      auto& registry = obs::MetricsRegistry::global();
      static obs::Counter& fault_counter =
          registry.counter("resolver.upstream.fault");
      fault_counter.add();
      if (config_.enable_cache && config_.cache.serve_stale) {
        if (const auto stale =
                cache_.lookup_stale(key, now_s, out.response.answers)) {
          ++stale_;
          static obs::Counter& stale_counter =
              registry.counter("resolver.upstream.stale_served");
          stale_counter.add();
          response_skeleton_into(out, query, stale->rcode);
          out.processing =
              sim::Millis{rng.uniform(config_.hit_min_ms, config_.hit_max_ms)};
          return;
        }
      }
      static obs::Counter& servfail_counter =
          registry.counter("resolver.upstream.servfail");
      servfail_counter.add();
      response_skeleton_into(out, query, dns::RCode::kServFail);
      out.response.answers.clear();
      out.processing =
          sim::Millis{rng.uniform(0.2, 1.0)} + decision.extra_latency;
      return;
    }
  }

  auto upstream = universe_->query(zone, q.name, q.type, pop, date, rng);
  response_skeleton_into(out, query, upstream.answer.rcode);
  out.response.answers = upstream.answer.answers;
  out.processing =
      upstream.latency + sim::Millis{rng.uniform(0.2, 1.0)} + upstream_extra;

  if (config_.enable_cache) {
    // store() rejects SERVFAIL and other uncacheable rcodes itself; the old
    // map cached them for a day, so one upstream hiccup kept answering.
    (void)cache_.store(key,
                       cache::CachedAnswer{upstream.answer.rcode,
                                           std::move(upstream.answer.answers)},
                       now_s);
  }
}

}  // namespace encdns::resolver
