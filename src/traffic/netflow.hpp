// NetFlow modelling (§5.1): backbone routers aggregate sampled packets into
// per-flow records carrying addresses, ports, byte counts and the union of
// observed TCP flags. The provider ISP samples packets at 1/3000 and expires
// idle flows after 15 seconds.
#pragma once

#include <array>
#include <cstdint>

#include "util/date.hpp"
#include "util/ipv4.hpp"
#include "util/rng.hpp"

namespace encdns::traffic {

/// TCP flag bits as they appear in NetFlow records.
namespace tcpflags {
inline constexpr std::uint8_t kFin = 0x01;
inline constexpr std::uint8_t kSyn = 0x02;
inline constexpr std::uint8_t kRst = 0x04;
inline constexpr std::uint8_t kPsh = 0x08;
inline constexpr std::uint8_t kAck = 0x10;
}  // namespace tcpflags

inline constexpr std::uint8_t kProtoTcp = 6;
inline constexpr std::uint8_t kProtoUdp = 17;

/// Ground-truth traffic: one transport flow as it crossed the backbone. The
/// pass that generates a flow knows its day, so the header carries none.
struct FlowHeader {
  util::Ipv4 src;
  util::Ipv4 dst;
  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;
  std::uint8_t protocol = kProtoTcp;
  std::uint32_t packets = 1;   // client->server direction
  std::uint64_t bytes = 64;
  bool complete_session = true;  // SYN..ACK/PSH..FIN exchange (false: lone SYN)
};

/// What packet sampling exported of one flow: a record exists when
/// `packets` > 0, and it carries the flow's addresses and ports.
struct FlowSample {
  std::uint32_t packets = 0;  // sampled packet count
  std::uint64_t bytes = 0;
  std::uint8_t tcp_flags = 0;  // union over sampled packets (TCP only)

  [[nodiscard]] explicit operator bool() const noexcept { return packets != 0; }

  /// §5.2 exclusion rule: a record whose only flag content is one SYN is an
  /// incomplete handshake and cannot carry DoT queries. Only TCP samples
  /// carry flags, so the rule needs no protocol check.
  [[nodiscard]] bool single_syn() const noexcept {
    return tcp_flags == tcpflags::kSyn && packets <= 1;
  }
};

/// One exported (sampled) record, as the NetFlow v5 codec carries it.
struct FlowRecord {
  util::Ipv4 src;
  util::Ipv4 dst;
  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;
  std::uint8_t protocol = kProtoTcp;
  std::uint32_t packets = 0;  // sampled packet count
  std::uint64_t bytes = 0;
  std::uint8_t tcp_flags = 0;  // union over sampled packets
  util::Date date;

  /// The FlowSample::single_syn rule for a record of any protocol.
  [[nodiscard]] bool single_syn() const noexcept {
    return protocol == kProtoTcp && tcp_flags == tcpflags::kSyn && packets <= 1;
  }
};

class NetflowCollector {
 public:
  /// Middle-packet counts below this have their Poisson limit tabled.
  static constexpr std::uint32_t kPoissonTable = 128;

  explicit NetflowCollector(double sampling_rate = 1.0 / 3000.0);

  /// Run one raw flow through packet sampling, drawing every decision from
  /// `rng` — the pass's per-day sampling stream, so sampling is independent
  /// of processing order. A record is exported only if at least one of the
  /// flow's packets was sampled. The flag union reflects *which* packets
  /// were sampled: the SYN appears only if the first packet was hit, the FIN
  /// only if the last one was.
  [[nodiscard]] FlowSample observe(const FlowHeader& flow,
                                   util::Rng& rng) const noexcept;

  /// Rng::poisson(packets * the sampling rate), value for value and draw for
  /// draw: Knuth's loop against the tabled limit where Rng::poisson would
  /// run it, Rng::poisson itself everywhere else.
  [[nodiscard]] std::uint64_t poisson(std::uint32_t packets,
                                      util::Rng& rng) const noexcept;

 private:
  double rate_;
  // limit_[m] = exp(-(m * rate)) for 1 <= m <= tabled_: the m for which
  // 0 < m * rate <= 64, where Rng::poisson runs Knuth's loop.
  std::uint32_t tabled_ = 0;
  std::array<double, kPoissonTable> limit_{};
};

inline std::uint64_t NetflowCollector::poisson(std::uint32_t packets,
                                               util::Rng& rng) const noexcept {
  if (packets == 0 || packets > tabled_)
    return rng.poisson(static_cast<double>(packets) * rate_);
  const double limit = limit_[packets];
  std::uint64_t k = 0;
  double p = 1.0;
  do {
    ++k;
    p *= rng.uniform();
  } while (p > limit);
  return k - 1;
}

inline FlowSample NetflowCollector::observe(const FlowHeader& flow,
                                            util::Rng& rng) const noexcept {
  if (flow.packets == 0) return {};
  const bool tcp = flow.protocol == kProtoTcp;
  // First (SYN) and last (FIN) packets are sampled individually; the middle
  // of the flow is approximated with a Poisson draw at the sampling rate.
  const bool syn_sampled = tcp && rng.chance(rate_);
  const bool fin_sampled =
      tcp && flow.complete_session && flow.packets > 1 && rng.chance(rate_);
  const std::uint32_t middle = flow.packets > 2 ? flow.packets - 2 : 0;
  const auto middle_sampled = static_cast<std::uint32_t>(poisson(middle, rng));

  std::uint32_t sampled = middle_sampled + (syn_sampled ? 1 : 0) +
                          (fin_sampled ? 1 : 0);
  if (flow.packets == 1 && flow.protocol == kProtoUdp)
    sampled = rng.chance(rate_) ? 1 : 0;
  if (sampled == 0) return {};

  FlowSample sample;
  sample.packets = sampled;
  sample.bytes = flow.bytes * sampled / flow.packets;
  if (tcp) {
    if (!flow.complete_session) {
      // A lone SYN probe never elicits data packets.
      if (!syn_sampled) return {};
      sample.tcp_flags = tcpflags::kSyn;
      sample.packets = 1;
    } else {
      if (syn_sampled) sample.tcp_flags |= tcpflags::kSyn;
      if (middle_sampled > 0)
        sample.tcp_flags |= tcpflags::kAck | tcpflags::kPsh;
      if (fin_sampled) sample.tcp_flags |= tcpflags::kFin | tcpflags::kAck;
      if (sample.tcp_flags == 0) sample.tcp_flags = tcpflags::kAck;
    }
  }
  return sample;
}

}  // namespace encdns::traffic
