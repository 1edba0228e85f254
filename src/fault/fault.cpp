#include "fault/fault.hpp"

#include <cstdlib>

#include "util/env.hpp"
#include "util/strings.hpp"

namespace encdns::fault {
namespace {

// Ports the injector treats as DNS for SERVFAIL bursts. The fault layer sits
// below src/dns, so the well-known values are spelled here.
constexpr std::uint16_t kDnsPort = 53;
constexpr std::uint16_t kDotPort = 853;

[[nodiscard]] bool is_dns_port(std::uint16_t port) noexcept {
  return port == kDnsPort || port == kDotPort;
}

[[nodiscard]] double to_unit(std::uint64_t h) noexcept {
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

}  // namespace

const char* to_string(Channel channel) noexcept {
  switch (channel) {
    case Channel::kConnect: return "connect";
    case Channel::kProbe: return "probe";
    case Channel::kUdp: return "udp";
    case Channel::kExchange: return "exchange";
    case Channel::kTls: return "tls";
    case Channel::kRecursion: return "recursion";
  }
  return "unknown";
}

bool FaultProfile::enabled() const noexcept {
  return syn_drop > 0.0 || connect_reset > 0.0 || exchange_reset > 0.0 ||
         exchange_garble > 0.0 || servfail > 0.0 || tls_stall > 0.0 ||
         udp_drop > 0.0 || upstream_fail > 0.0 || latency_spike > 0.0 ||
         flap_rate > 0.0 || exit_death > 0.0;
}

FaultProfile FaultProfile::canonical() noexcept {
  FaultProfile profile;
  profile.syn_drop = 0.010;
  profile.connect_reset = 0.005;
  profile.exchange_reset = 0.005;
  profile.exchange_garble = 0.003;
  profile.servfail = 0.0015;
  profile.tls_stall = 0.004;
  profile.udp_drop = 0.015;
  profile.upstream_fail = 0.0015;
  profile.latency_spike = 0.020;
  profile.flap_rate = 0.003;
  profile.flap_fail = 0.6;
  profile.exit_death = 0.003;
  return profile;
}

FaultProfile FaultProfile::from_env(FaultProfile fallback) {
  const auto env = util::env_string("ENCDNS_FAULTS");
  if (!env) return fallback;
  const std::string value = util::to_lower(*env);
  if (value == "canonical" || value == "on" || value == "1") {
    return canonical();
  }
  if (value == "off" || value == "none" || value == "0") {
    return FaultProfile{};
  }
  // A typo like ENCDNS_FAULTS=canonial used to silently run the fallback
  // profile; an unknown value now refuses to start (DESIGN.md §13).
  throw util::EnvError("ENCDNS_FAULTS=\"" + *env +
                       "\" is invalid: expected canonical/on/1 or off/none/0");
}

FaultInjector::FaultInjector(const FaultProfile& profile, std::uint64_t seed)
    : profile_(profile), enabled_(profile.enabled()), seed_(seed) {
  for (auto& counter : injected_) counter.store(0, std::memory_order_relaxed);
}

std::uint64_t FaultInjector::stream_key(Channel channel, util::Ipv4 dst,
                                        std::uint16_t port,
                                        const util::Date& date) const noexcept {
  std::uint64_t key = seed_;
  key ^= util::mix64((static_cast<std::uint64_t>(dst.value()) << 16) | port);
  key ^= util::mix64(0xC4A110ULL + static_cast<std::uint64_t>(
                                       channel_index(channel)));
  key ^= util::mix64(static_cast<std::uint64_t>(date.to_days()) *
                     0x9E3779B97F4A7C15ULL);
  return key;
}

Decision FaultInjector::decide(Channel channel, util::Ipv4 dst,
                               std::uint16_t port, const util::Date& date,
                               util::Rng& rng) const {
  Decision decision;
  if (!enabled()) return decision;

  // One token of attempt entropy from the caller's deterministic stream:
  // retries see fresh draws, thread count never matters.
  const std::uint64_t attempt_token = rng.next();
  util::Rng draw(util::mix64(stream_key(channel, dst, port, date) ^
                             util::mix64(attempt_token)));
  const bool flap = flapping(dst, date);

  switch (channel) {
    case Channel::kConnect:
    case Channel::kProbe:
      if (flap && draw.chance(profile_.flap_fail)) {
        decision.kind = Decision::Kind::kDrop;
      } else if (draw.chance(profile_.syn_drop)) {
        decision.kind = Decision::Kind::kDrop;
      } else if (draw.chance(profile_.connect_reset)) {
        decision.kind = Decision::Kind::kReset;
      }
      break;
    case Channel::kUdp:
      if (flap && draw.chance(profile_.flap_fail)) {
        decision.kind = Decision::Kind::kDrop;
      } else if (draw.chance(profile_.udp_drop)) {
        decision.kind = Decision::Kind::kDrop;
      } else if (port == kDnsPort && draw.chance(profile_.servfail)) {
        decision.kind = Decision::Kind::kServfail;
      }
      break;
    case Channel::kExchange:
      if (draw.chance(profile_.exchange_reset)) {
        decision.kind = Decision::Kind::kReset;
      } else if (draw.chance(profile_.exchange_garble)) {
        decision.kind = Decision::Kind::kGarble;
      } else if (is_dns_port(port) && draw.chance(profile_.servfail)) {
        decision.kind = Decision::Kind::kServfail;
      }
      break;
    case Channel::kTls:
      if (draw.chance(profile_.tls_stall)) {
        decision.kind = Decision::Kind::kStall;
      }
      break;
    case Channel::kRecursion:
      // The resolver's own authoritative leg: a flapping nameserver or a
      // transient recursion failure surfaces as SERVFAIL unless the caller
      // can serve stale (RFC 8767).
      if (flap && draw.chance(profile_.flap_fail)) {
        decision.kind = Decision::Kind::kServfail;
      } else if (draw.chance(profile_.upstream_fail)) {
        decision.kind = Decision::Kind::kServfail;
      }
      break;
  }

  if (decision.kind == Decision::Kind::kNone &&
      draw.chance(profile_.latency_spike)) {
    decision.kind = Decision::Kind::kSpike;
    decision.extra_latency = sim::Millis{
        draw.uniform(profile_.spike_min.value, profile_.spike_max.value)};
  }

  if (decision.kind != Decision::Kind::kNone) {
    injected_[channel_index(channel)].fetch_add(1, std::memory_order_relaxed);
  }
  return decision;
}

bool FaultInjector::flapping(util::Ipv4 dst, const util::Date& date) const {
  if (!enabled() || profile_.flap_rate <= 0.0) return false;
  const std::uint64_t h =
      util::mix64(seed_ ^ util::mix64(0xF1A90ULL ^ dst.value()) ^
                  util::mix64(static_cast<std::uint64_t>(date.to_days())));
  return to_unit(h) < profile_.flap_rate;
}

bool FaultInjector::exit_node_dies(std::uint64_t session_id,
                                   util::Rng& rng) const {
  if (!enabled() || profile_.exit_death <= 0.0) return false;
  const std::uint64_t attempt_token = rng.next();
  const std::uint64_t h = util::mix64(seed_ ^ util::mix64(session_id) ^
                                      util::mix64(attempt_token));
  return to_unit(h) < profile_.exit_death;
}

ChannelCounters FaultInjector::counters() const noexcept {
  ChannelCounters counters;
  counters.connect =
      injected_[channel_index(Channel::kConnect)].load(std::memory_order_relaxed);
  counters.probe =
      injected_[channel_index(Channel::kProbe)].load(std::memory_order_relaxed);
  counters.udp =
      injected_[channel_index(Channel::kUdp)].load(std::memory_order_relaxed);
  counters.exchange = injected_[channel_index(Channel::kExchange)].load(
      std::memory_order_relaxed);
  counters.tls =
      injected_[channel_index(Channel::kTls)].load(std::memory_order_relaxed);
  counters.recursion = injected_[channel_index(Channel::kRecursion)].load(
      std::memory_order_relaxed);
  return counters;
}

std::vector<std::uint8_t> make_servfail_reply(
    std::span<const std::uint8_t> request, bool framed) {
  std::vector<std::uint8_t> reply;
  make_servfail_reply_into(request, framed, reply);
  return reply;
}

void make_servfail_reply_into(std::span<const std::uint8_t> request, bool framed,
                              std::vector<std::uint8_t>& out) {
  out.assign(request.begin(), request.end());
  const std::size_t offset = framed ? 2 : 0;
  if (out.size() < offset + 4) return;
  out[offset + 2] |= 0x80;                             // QR = response
  out[offset + 3] = static_cast<std::uint8_t>(
      (out[offset + 3] & 0xF0) | 0x02 | 0x80);         // RA set, RCODE = 2
}

void garble(std::vector<std::uint8_t>& payload) {
  payload.resize(payload.size() / 2);
  for (auto& byte : payload) byte ^= 0x5A;
}

}  // namespace encdns::fault
