#include <gtest/gtest.h>

#include "dns/query.hpp"
#include "dns/wire.hpp"
#include "http/message.hpp"
#include "resolver/backend.hpp"
#include "resolver/recursive.hpp"
#include "resolver/services.hpp"
#include "resolver/universe.hpp"
#include "tls/trust_store.hpp"
#include "util/base64.hpp"

namespace encdns::resolver {
namespace {

const util::Date kDay{2019, 3, 1};
const net::Location kPop{{38.9, -77.0}, "US", 1};

AuthoritativeUniverse make_universe() {
  AuthoritativeUniverse universe;
  Zone zone;
  zone.apex = *dns::Name::parse("probe.test");
  zone.ns_location = net::Location{{39.9, 116.4}, "CN", 2};
  zone.answer_fn = [](const dns::Name& qname, dns::RrType type, const util::Date&) {
    if (type != dns::RrType::kA) return Answer::nxdomain();
    return Answer::a_record(qname, util::Ipv4(45, 90, 77, 99));
  };
  universe.add_zone(std::move(zone));
  return universe;
}

/// An upstream A query for `text`, resolving its zone first as the
/// recursive backend does.
AuthoritativeUniverse::Upstream upstream_a(const AuthoritativeUniverse& universe,
                                           const char* text,
                                           const net::Location& from,
                                           util::Rng& rng) {
  const dns::Name qname = *dns::Name::parse(text);
  return universe.query(universe.find_zone(qname), qname, dns::RrType::kA, from,
                        kDay, rng);
}

TEST(Universe, LongestSuffixZoneMatch) {
  AuthoritativeUniverse universe = make_universe();
  Zone sub;
  sub.apex = *dns::Name::parse("deep.probe.test");
  sub.ns_location = kPop;
  sub.answer_fn = [](const dns::Name& qname, dns::RrType, const util::Date&) {
    return Answer::a_record(qname, util::Ipv4(1, 1, 1, 1));
  };
  universe.add_zone(std::move(sub));
  EXPECT_EQ(universe.find_zone(*dns::Name::parse("x.deep.probe.test"))->apex,
            *dns::Name::parse("deep.probe.test"));
  EXPECT_EQ(universe.find_zone(*dns::Name::parse("y.probe.test"))->apex,
            *dns::Name::parse("probe.test"));
  EXPECT_EQ(universe.find_zone(*dns::Name::parse("unrelated.org")), nullptr);
}

TEST(Universe, AnswersFromZone) {
  auto universe = make_universe();
  util::Rng rng(1);
  const auto up = upstream_a(universe, "p1.probe.test", kPop, rng);
  ASSERT_EQ(up.answer.answers.size(), 1u);
  EXPECT_EQ(std::get<util::Ipv4>(up.answer.answers[0].rdata),
            util::Ipv4(45, 90, 77, 99));
  EXPECT_GT(up.latency.value, 0.0);
}

TEST(Universe, SynthesizesUnknownDeterministically) {
  auto universe = make_universe();
  util::Rng rng(1);
  const auto a = upstream_a(universe, "random.example.org", kPop, rng);
  const auto b = upstream_a(universe, "random.example.org", kPop, rng);
  ASSERT_FALSE(a.answer.answers.empty());
  EXPECT_EQ(std::get<util::Ipv4>(a.answer.answers[0].rdata),
            std::get<util::Ipv4>(b.answer.answers[0].rdata));
}

TEST(Universe, NxdomainWhenSynthesisOff) {
  auto universe = make_universe();
  universe.set_synthesize_unknown(false);
  util::Rng rng(1);
  const auto up = upstream_a(universe, "nope.example", kPop, rng);
  EXPECT_EQ(up.answer.rcode, dns::RCode::kNxDomain);
}

TEST(Universe, LatencyScalesWithNsDistance) {
  auto universe = make_universe();
  util::Rng rng(1);
  double near_total = 0, far_total = 0;
  const net::Location near_pop{{39.9, 116.4}, "CN", 3};  // next to the NS
  for (int i = 0; i < 60; ++i) {
    far_total += upstream_a(universe, "a.probe.test", kPop, rng).latency.value;
    near_total += upstream_a(universe, "a.probe.test", near_pop, rng).latency.value;
  }
  EXPECT_GT(far_total, near_total * 2);
}

TEST(RecursiveBackend, CachesWithinDay) {
  auto universe = make_universe();
  RecursiveBackend backend(universe, "test");
  util::Rng rng(2);
  const auto query = dns::make_query(*dns::Name::parse("c.probe.test"),
                                     dns::RrType::kA, 1);
  const auto cold = backend.resolve(query, kPop, kDay, rng);
  const auto warm = backend.resolve(query, kPop, kDay, rng);
  EXPECT_EQ(backend.cache_misses(), 1u);
  EXPECT_EQ(backend.cache_hits(), 1u);
  EXPECT_LT(warm.processing.value, cold.processing.value);
  EXPECT_EQ(*warm.response.first_a(), *cold.response.first_a());
  // Next day: entry stale, miss again.
  (void)backend.resolve(query, kPop, kDay.plus_days(1), rng);
  EXPECT_EQ(backend.cache_misses(), 2u);
}

TEST(RecursiveBackend, FormErrOnEmptyQuestion) {
  auto universe = make_universe();
  RecursiveBackend backend(universe, "test");
  util::Rng rng(2);
  dns::Message empty;
  const auto result = backend.resolve(empty, kPop, kDay, rng);
  EXPECT_EQ(result.response.header.rcode, dns::RCode::kFormErr);
}

TEST(FixedAnswerBackend, AlwaysSameAddress) {
  FixedAnswerBackend backend(util::Ipv4(198, 51, 100, 7));
  util::Rng rng(3);
  for (const char* name : {"a.test", "b.example.org", "c.probe.net"}) {
    const auto query = dns::make_query(*dns::Name::parse(name), dns::RrType::kA, 1);
    const auto result = backend.resolve(query, kPop, kDay, rng);
    EXPECT_EQ(*result.response.first_a(), util::Ipv4(198, 51, 100, 7));
  }
}

// --- ResolverService over the wire ------------------------------------------

struct ServiceFixture : ::testing::Test {
  AuthoritativeUniverse universe = make_universe();
  std::unique_ptr<ResolverService> service;

  void SetUp() override {
    ResolverServiceConfig config;
    config.label = "test-resolver";
    config.backend = std::make_shared<RecursiveBackend>(universe, "test");
    config.serve_dot = true;
    config.serve_doh = true;
    config.dot_certificate = tls::make_chain("dot.test", tls::kLetsEncryptCa,
                                             {2019, 1, 1}, {2019, 12, 1});
    config.doh_certificate = config.dot_certificate;
    config.doh.path = "/dns-query";
    service = std::make_unique<ResolverService>(std::move(config));
  }

  net::WireRequest request_for(std::uint16_t port, net::Transport transport,
                               std::span<const std::uint8_t> payload) {
    net::WireRequest request;
    request.transport = transport;
    request.port = port;
    request.payload = payload;
    request.date = kDay;
    request.pop = kPop;
    return request;
  }
};

TEST_F(ServiceFixture, PortMatrix) {
  EXPECT_TRUE(service->accepts(53, net::Transport::kUdp));
  EXPECT_TRUE(service->accepts(53, net::Transport::kTcp));
  EXPECT_TRUE(service->accepts(853, net::Transport::kTcp));
  EXPECT_FALSE(service->accepts(853, net::Transport::kUdp));
  EXPECT_TRUE(service->accepts(443, net::Transport::kTcp));
  EXPECT_FALSE(service->accepts(22, net::Transport::kTcp));
}

TEST_F(ServiceFixture, CertificatesPerPort) {
  EXPECT_TRUE(service->certificate(853, "", kDay));
  EXPECT_TRUE(service->certificate(443, "", kDay));
  EXPECT_FALSE(service->certificate(53, "", kDay));
}

TEST_F(ServiceFixture, Do53UdpAnswers) {
  const auto query = dns::make_query(*dns::Name::parse("u.probe.test"),
                                     dns::RrType::kA, 42);
  const auto wire = query.encode();
  const auto reply = service->handle(request_for(53, net::Transport::kUdp, wire));
  ASSERT_TRUE(reply.responded);
  const auto response = dns::Message::decode(reply.payload);
  ASSERT_TRUE(response);
  EXPECT_TRUE(dns::response_matches(query, *response));
  EXPECT_EQ(*response->first_a(), util::Ipv4(45, 90, 77, 99));
}

TEST_F(ServiceFixture, DotRequiresStreamFraming) {
  const auto query = dns::make_query(*dns::Name::parse("t.probe.test"),
                                     dns::RrType::kA, 43);
  const auto framed = dns::frame_stream(query.encode());
  const auto reply = service->handle(request_for(853, net::Transport::kTcp, framed));
  ASSERT_TRUE(reply.responded);
  const auto unframed = dns::unframe_stream(reply.payload);
  ASSERT_TRUE(unframed);
  EXPECT_TRUE(dns::Message::decode(*unframed).has_value());

  // Unframed bytes on the DoT port are a protocol error (no reply).
  const auto bare = query.encode();
  EXPECT_FALSE(service->handle(request_for(853, net::Transport::kTcp, bare)).responded);
}

TEST_F(ServiceFixture, DohGetAnswers) {
  const auto query = dns::make_query(*dns::Name::parse("g.probe.test"),
                                     dns::RrType::kA, 44);
  http::Request http_request;
  http_request.method = http::Method::kGet;
  http_request.target =
      "/dns-query?dns=" + util::base64url_encode(query.encode());
  http_request.headers.set("Host", "dot.test");
  const auto wire = http_request.serialize();
  const auto reply = service->handle(request_for(443, net::Transport::kTcp, wire));
  ASSERT_TRUE(reply.responded);
  const auto response = http::Response::parse(reply.payload);
  ASSERT_TRUE(response);
  EXPECT_EQ(response->status, 200);
  EXPECT_EQ(*response->headers.get("Content-Type"), http::kDnsMessageType);
  const auto dns_response = dns::Message::decode(response->body);
  ASSERT_TRUE(dns_response);
  EXPECT_EQ(*dns_response->first_a(), util::Ipv4(45, 90, 77, 99));
}

TEST_F(ServiceFixture, DohPostAnswers) {
  const auto query = dns::make_query(*dns::Name::parse("p.probe.test"),
                                     dns::RrType::kA, 45);
  http::Request http_request;
  http_request.method = http::Method::kPost;
  http_request.target = "/dns-query";
  http_request.headers.set("Content-Type", http::kDnsMessageType);
  http_request.body = query.encode();
  const auto reply =
      service->handle(request_for(443, net::Transport::kTcp, http_request.serialize()));
  const auto response = http::Response::parse(reply.payload);
  ASSERT_TRUE(response);
  EXPECT_EQ(response->status, 200);
}

TEST_F(ServiceFixture, DohErrorStatuses) {
  const auto status_of = [&](const http::Request& request) {
    const auto reply =
        service->handle(request_for(443, net::Transport::kTcp, request.serialize()));
    return http::Response::parse(reply.payload)->status;
  };
  http::Request wrong_path;
  wrong_path.target = "/other";
  EXPECT_EQ(status_of(wrong_path), 404);

  http::Request no_param;
  no_param.target = "/dns-query";
  EXPECT_EQ(status_of(no_param), 400);

  http::Request bad_b64;
  bad_b64.target = "/dns-query?dns=!!!";
  EXPECT_EQ(status_of(bad_b64), 400);

  http::Request bad_post;
  bad_post.method = http::Method::kPost;
  bad_post.target = "/dns-query";
  bad_post.headers.set("Content-Type", "text/plain");
  EXPECT_EQ(status_of(bad_post), 415);

  http::Request bad_message;
  bad_message.target = "/dns-query?dns=" +
                       util::base64url_encode(std::vector<std::uint8_t>{1, 2, 3});
  EXPECT_EQ(status_of(bad_message), 400);
}

TEST_F(ServiceFixture, ForwardingTimeoutYieldsServfail) {
  // A frontend with an absurdly small timeout SERVFAILs everything.
  ResolverServiceConfig config;
  config.label = "tiny-timeout";
  config.backend = std::make_shared<RecursiveBackend>(universe, "fwd");
  config.serve_doh = true;
  config.doh_certificate = tls::make_chain("fwd.test", tls::kLetsEncryptCa,
                                           {2019, 1, 1}, {2019, 12, 1});
  config.doh.forward_to_do53 = true;
  config.doh.forward_timeout = sim::Millis{0.001};
  ResolverService frontend(std::move(config));

  const auto query = dns::make_query(*dns::Name::parse("f.probe.test"),
                                     dns::RrType::kA, 46);
  http::Request http_request;
  http_request.target = "/dns-query?dns=" + util::base64url_encode(query.encode());
  const auto reply =
      frontend.handle(request_for(443, net::Transport::kTcp, http_request.serialize()));
  const auto response = http::Response::parse(reply.payload);
  ASSERT_TRUE(response);
  EXPECT_EQ(response->status, 200);  // HTTP succeeds; the DNS payload fails
  const auto dns_response = dns::Message::decode(response->body);
  ASSERT_TRUE(dns_response);
  EXPECT_EQ(dns_response->header.rcode, dns::RCode::kServFail);
}

TEST_F(ServiceFixture, WebpageOnPort80Only) {
  ResolverServiceConfig config;
  config.label = "with-web";
  config.backend = std::make_shared<RecursiveBackend>(universe, "w");
  config.extra_tcp_ports = {80};
  config.webpage_body = "hello resolver";
  ResolverService with_web(std::move(config));
  EXPECT_EQ(with_web.webpage(80), "hello resolver");
  EXPECT_EQ(with_web.webpage(443), "");
  EXPECT_TRUE(with_web.accepts(80, net::Transport::kTcp));
}

}  // namespace
}  // namespace encdns::resolver
