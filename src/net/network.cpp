#include "net/network.hpp"

#include <limits>

namespace encdns::net {
namespace {

class BackgroundHostService final : public Service {
 public:
  [[nodiscard]] std::string label() const override { return "background-host"; }
  [[nodiscard]] bool accepts(std::uint16_t, Transport) const override { return true; }
  [[nodiscard]] WireReply handle(const WireRequest&) override {
    return WireReply::none();
  }
};

}  // namespace

Service& background_host_service() {
  static BackgroundHostService instance;
  return instance;
}

void Network::bind(Binding binding) {
  const std::size_t first_anchor = anchors_.size();
  for (const auto& pop : binding.pops) anchors_.emplace_back(pop.location.geo);
  auto& list = bindings_[binding.addr];
  list.push_back(BoundBinding{std::move(binding), first_anchor});
}

std::size_t Network::binding_count() const noexcept {
  std::size_t n = 0;
  for (const auto& [addr, list] : bindings_) n += list.size();
  return n;
}

std::vector<util::Ipv4> Network::bound_addresses() const {
  std::vector<util::Ipv4> out;
  out.reserve(bindings_.size());
  for (const auto& [addr, list] : bindings_) out.push_back(addr);
  return out;
}

const Pop* Network::route(util::Ipv4 addr, const Location& from,
                          const util::Date& date) const {
  return nearest(addr, from, date).pop;
}

Network::Routed Network::nearest(util::Ipv4 addr, const Location& from,
                                 const util::Date& date) const {
  // Relative slack on the pruning bound below: far wider than any rounding
  // error of sqrt/asin, so the pruning holds even for a libm whose asin is
  // only faithfully rounded.
  constexpr double kPruneSlack = 1.0 + 0x1p-30;
  Routed best;
  const auto it = bindings_.find(addr);
  if (it == bindings_.end()) return best;
  // The strictly nearest PoP wins, ties to the first in binding order. The
  // distance never decreases as the haversine term h grows, so a PoP whose h
  // is not below the best's cannot be strictly nearer: only candidates pay
  // for asin and sqrt, and the client's cos(lat) is computed once.
  const GeoAnchor client(from.geo);
  double best_h = std::numeric_limits<double>::infinity();
  double best_km = std::numeric_limits<double>::max();
  for (const auto& bound : it->second) {
    const Binding& binding = bound.binding;
    if (!date.in_window(binding.active_from, binding.active_to)) continue;
    const GeoAnchor* anchors = anchors_.data() + bound.first_anchor;
    for (std::size_t i = 0; i < binding.pops.size(); ++i) {
      const double h = haversine(client, anchors[i]);
      if (!(h < best_h * kPruneSlack)) continue;
      const double km = haversine_km(h);
      if (km < best_km) {
        best_h = h;
        best_km = km;
        best.pop = &binding.pops[i];
      }
    }
  }
  best.km = best_km;
  return best;
}

sim::Millis Network::sample_rtt(const ClientContext& client, double km,
                                sim::Millis extra, util::Rng& rng) {
  const sim::Millis base =
      propagation_rtt_km(km) + client.link.last_mile + extra;
  return base * rng.lognormal(1.0, client.link.jitter_sigma);
}

Network::ProbeResult Network::probe_tcp(const ClientContext& client, util::Rng& rng,
                                        util::Ipv4 dst, std::uint16_t port,
                                        const util::Date& date,
                                        sim::Millis timeout) const {
  ProbeResult result;
  fault::Decision fd;
  if (injector_ != nullptr && injector_->enabled()) {
    fd = injector_->decide(fault::Channel::kProbe, dst, port, date, rng);
  }
  if (fd.kind == fault::Decision::Kind::kDrop) {
    result.status = ProbeStatus::kFiltered;  // SYN blackholed in transit
    result.latency = timeout;
    return result;
  }
  if (fd.kind == fault::Decision::Kind::kReset) {
    result.status = ProbeStatus::kClosed;  // spurious RST
    result.latency = sample_rtt(client, 0.0, sim::Millis{0}, rng);
    return result;
  }
  for (const auto* box : client.path) {
    const auto verdict = box->on_tcp_syn(dst, port, date);
    using Action = Middlebox::TcpVerdict::Action;
    switch (verdict.action) {
      case Action::kPass:
        break;
      case Action::kDrop:
        result.status = ProbeStatus::kFiltered;
        result.latency = timeout;
        return result;
      case Action::kReset:
        result.status = ProbeStatus::kClosed;
        result.latency = sample_rtt(client, 0.0, sim::Millis{0}, rng);
        return result;
      case Action::kHijack: {
        const bool open = verdict.service != nullptr &&
                          verdict.service->accepts(port, Transport::kTcp);
        result.status = open ? ProbeStatus::kOpen : ProbeStatus::kClosed;
        result.latency = sample_rtt(client, 0.0, sim::Millis{1.0}, rng);
        return result;
      }
    }
  }
  if (const Routed routed = nearest(dst, client.location, date); routed.pop) {
    const Pop* pop = routed.pop;
    const bool open = pop->service->accepts(port, Transport::kTcp);
    result.status = open ? ProbeStatus::kOpen : ProbeStatus::kClosed;
    result.latency = sample_rtt(client, routed.km, pop->extra_processing, rng) +
                     fd.extra_latency;
    return result;
  }
  if (background_ && background_(dst, port, date)) {
    result.status = ProbeStatus::kOpen;
    // Background hosts are scattered; approximate a mid-range RTT.
    result.latency = sim::Millis{rng.uniform(20.0, 250.0)} + fd.extra_latency;
    return result;
  }
  result.status = ProbeStatus::kClosed;
  result.latency = sim::Millis{rng.uniform(10.0, 200.0)} + fd.extra_latency;
  return result;
}

Network::UdpResult Network::udp_exchange(const ClientContext& client, util::Rng& rng,
                                         util::Ipv4 dst, std::uint16_t port,
                                         std::span<const std::uint8_t> payload,
                                         const util::Date& date,
                                         sim::Millis timeout) const {
  UdpResult result;
  udp_exchange_into(client, rng, dst, port, payload, date, timeout, result);
  return result;
}

void Network::udp_exchange_into(const ClientContext& client, util::Rng& rng,
                                util::Ipv4 dst, std::uint16_t port,
                                std::span<const std::uint8_t> payload,
                                const util::Date& date, sim::Millis timeout,
                                UdpResult& out) const {
  out.spoofed = false;
  out.payload.clear();
  fault::Decision fd;
  if (injector_ != nullptr && injector_->enabled()) {
    fd = injector_->decide(fault::Channel::kUdp, dst, port, date, rng);
  }
  if (fd.kind == fault::Decision::Kind::kDrop) {
    out.status = UdpResult::Status::kTimeout;  // datagram lost in transit
    out.latency = timeout;
    return;
  }
  for (const auto* box : client.path) {
    const auto verdict = box->on_udp(dst, port, payload, date);
    using Action = Middlebox::UdpVerdict::Action;
    switch (verdict.action) {
      case Action::kPass:
        break;
      case Action::kDrop:
        out.status = UdpResult::Status::kTimeout;
        out.latency = timeout;
        return;
      case Action::kSpoof: {
        out.status = UdpResult::Status::kOk;
        out.payload.assign(verdict.spoofed_response.begin(),
                           verdict.spoofed_response.end());
        out.spoofed = true;
        // Forged answers come from nearby — characteristically fast.
        out.latency = client.link.last_mile + sim::Millis{rng.uniform(0.5, 4.0)};
        return;
      }
    }
  }
  const Routed routed = nearest(dst, client.location, date);
  const Pop* pop = routed.pop;
  if (pop == nullptr || !pop->service->accepts(port, Transport::kUdp)) {
    out.status = UdpResult::Status::kTimeout;
    out.latency = timeout;
    return;
  }
  if (rng.chance(client.link.loss_rate)) {  // request or response lost
    out.status = UdpResult::Status::kTimeout;
    out.latency = timeout;
    return;
  }
  WireRequest request;
  request.transport = Transport::kUdp;
  request.dst = dst;
  request.port = port;
  request.payload = payload;
  request.date = date;
  request.client = client.location;
  request.pop = pop->location;
  const ServiceReply reply = pop->service->handle_to(request, out.payload);
  if (!reply.responded) {
    out.status = UdpResult::Status::kTimeout;
    out.latency = timeout;
    out.payload.clear();
    return;
  }
  const sim::Millis latency =
      sample_rtt(client, routed.km, pop->extra_processing, rng) +
      reply.processing + fd.extra_latency;
  if (latency > timeout) {
    out.status = UdpResult::Status::kTimeout;
    out.latency = timeout;
    out.payload.clear();
    return;
  }
  out.status = UdpResult::Status::kOk;
  // A SERVFAIL burst answers from the resolver's frontend: the request comes
  // back patched into a matching failure response (the request span never
  // aliases the reply buffer — requests are staged in a separate lease).
  if (fd.kind == fault::Decision::Kind::kServfail)
    fault::make_servfail_reply_into(payload, /*framed=*/false, out.payload);
  out.latency = latency;
}

Network::ConnectResult Network::tcp_connect(const ClientContext& client, util::Rng& rng,
                                            util::Ipv4 dst, std::uint16_t port,
                                            const util::Date& date,
                                            sim::Millis timeout) const {
  ConnectResult result;
  fault::Decision fd;
  if (injector_ != nullptr && injector_->enabled()) {
    fd = injector_->decide(fault::Channel::kConnect, dst, port, date, rng);
  }
  if (fd.kind == fault::Decision::Kind::kDrop) {
    result.status = ConnectResult::Status::kTimeout;  // SYNs blackholed
    result.latency = timeout;
    return result;
  }
  if (fd.kind == fault::Decision::Kind::kReset) {
    result.status = ConnectResult::Status::kReset;  // RST during handshake
    result.latency = client.link.last_mile + sim::Millis{rng.uniform(1.0, 10.0)};
    return result;
  }
  const tls::TlsInterceptor* interceptor = nullptr;
  for (const auto* box : client.path) {
    if (interceptor == nullptr) interceptor = box->tls_interceptor(dst, port);
    const auto verdict = box->on_tcp_syn(dst, port, date);
    using Action = Middlebox::TcpVerdict::Action;
    switch (verdict.action) {
      case Action::kPass:
        break;
      case Action::kDrop:
        result.status = ConnectResult::Status::kTimeout;
        result.latency = timeout;
        return result;
      case Action::kReset:
        result.status = ConnectResult::Status::kReset;
        result.latency = client.link.last_mile + sim::Millis{rng.uniform(1.0, 10.0)};
        return result;
      case Action::kHijack: {
        if (verdict.service == nullptr ||
            !verdict.service->accepts(port, Transport::kTcp)) {
          result.status = ConnectResult::Status::kRefused;
          result.latency = client.link.last_mile + sim::Millis{rng.uniform(0.5, 5.0)};
          return result;
        }
        const sim::Millis rtt =
            client.link.last_mile + sim::Millis{rng.uniform(0.5, 3.0)};
        result.status = ConnectResult::Status::kConnected;
        result.latency = rtt + fd.extra_latency;
        result.connection = TcpConnection(
            *verdict.service, dst, port, rtt, sim::Millis{0.0},
            client.link.loss_rate, client.location,
            /*pop_location=*/client.location, date, interceptor,
            /*hijacked=*/true, rng, injector_);
        return result;
      }
    }
  }

  const Routed routed = nearest(dst, client.location, date);
  const Pop* pop = routed.pop;
  Service* endpoint = nullptr;
  Location pop_location = client.location;
  sim::Millis rtt{0.0};
  if (pop != nullptr && pop->service->accepts(port, Transport::kTcp)) {
    endpoint = pop->service.get();
    pop_location = pop->location;
    rtt = sample_rtt(client, routed.km, pop->extra_processing, rng);
  } else if (pop == nullptr && background_ && background_(dst, port, date)) {
    endpoint = &background_host_service();
    rtt = sim::Millis{rng.uniform(20.0, 250.0)};
  } else {
    result.status = ConnectResult::Status::kRefused;
    result.latency = pop != nullptr
                         ? sample_rtt(client, routed.km, sim::Millis{0}, rng)
                         : sim::Millis{rng.uniform(10.0, 200.0)};
    return result;
  }

  sim::Millis connect_latency = rtt + fd.extra_latency;
  if (rng.chance(client.link.loss_rate)) {
    connect_latency += sim::Millis{rng.uniform(200.0, 1000.0)};  // SYN retransmit
  }
  if (connect_latency > timeout) {
    result.status = ConnectResult::Status::kTimeout;
    result.latency = timeout;
    return result;
  }
  result.status = ConnectResult::Status::kConnected;
  result.latency = connect_latency;
  const sim::Millis penalty =
      port == 853 ? client.link.dot_port_penalty : sim::Millis{0.0};
  result.connection =
      TcpConnection(*endpoint, dst, port, rtt, penalty, client.link.loss_rate,
                    client.location, pop_location, date, interceptor,
                    /*hijacked=*/false, rng, injector_);
  return result;
}

}  // namespace encdns::net
