// Fail-closed fuzzing of the decoders on the DoH query path (ROADMAP item
// 5). The resolver's DoH frontend runs untrusted bytes through
// http::RequestView, http::query_param_into and util::base64url_decode_into;
// the client runs the reply through http::ResponseView. Starting from a valid
// GET and POST exchange, every strict prefix and every single-byte flip must
// be rejected, or decode to fields and bytes that round-trip. Nothing may
// crash (the suite also runs under AddressSanitizer).
#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "dns/query.hpp"
#include "http/message.hpp"
#include "http/url.hpp"
#include "support/fail_closed.hpp"
#include "util/base64.hpp"

namespace encdns::http {
namespace {

std::vector<std::uint8_t> bytes_of(std::string_view text) {
  return {text.begin(), text.end()};
}

std::string text_of(std::span<const std::uint8_t> bytes) {
  return {bytes.begin(), bytes.end()};
}

std::vector<std::uint8_t> dns_query_wire() {
  dns::QueryOptions options;
  options.padding_block = 128;
  return dns::make_query(*dns::Name::parse("p00c0ffee1234abcd.probe.dnsmeasure.net"),
                         dns::RrType::kA, 0x2a2a, options)
      .encode();
}

std::vector<std::uint8_t> get_request_wire() {
  Request request;
  request.method = Method::kGet;
  request.target = "/dns-query?ct&dns=" +
                   percent_encode(util::base64url_encode(dns_query_wire()));
  request.headers.set("Host", "dns.example");
  request.headers.set("Accept", kDnsMessageType);
  return request.serialize();
}

std::vector<std::uint8_t> post_request_wire() {
  Request request;
  request.method = Method::kPost;
  request.target = "/dns-query";
  request.headers.set("Host", "dns.example");
  request.headers.set("Content-Type", kDnsMessageType);
  request.body = dns_query_wire();
  return request.serialize();
}

std::vector<std::uint8_t> response_wire() {
  const dns::Message query = *dns::Message::decode(dns_query_wire());
  const auto answer =
      dns::make_a_response(query, {util::Ipv4{203, 0, 113, 7}}).encode();
  std::vector<std::uint8_t> out;
  serialize_simple_response_into(200, "OK", kDnsMessageType, answer, out);
  return out;
}

template <typename View, typename Owned>
void expect_same_fields(const View& view, const Owned& owned,
                        const std::string& what) {
  EXPECT_EQ(text_of(view.body()), text_of(owned.body)) << what;
  for (const auto& [name, value] : owned.headers.entries()) {
    const auto found = view.header(name);
    ASSERT_TRUE(found.has_value()) << what << ": header " << name;
    EXPECT_EQ(*found, *owned.headers.get(name)) << what << ": header " << name;
  }
}

void expect_request_fields(const RequestView& view, const Request& owned,
                           const std::string& what) {
  EXPECT_EQ(view.method(), owned.method) << what;
  EXPECT_EQ(view.target(), owned.target) << what;
  expect_same_fields(view, owned, what);
}

void expect_response_fields(const ResponseView& view, const Response& owned,
                            const std::string& what) {
  EXPECT_EQ(view.status(), owned.status) << what;
  EXPECT_EQ(view.reason(), owned.reason) << what;
  expect_same_fields(view, owned, what);
}

/// base64url text is accepted only in its canonical form (no '=' and zero
/// padding bits), so an accepted decode re-encodes to the same text.
void expect_base64url_fail_closed(std::string_view text, const std::string& what) {
  std::vector<std::uint8_t> decoded;
  if (!util::base64url_decode_into(text, decoded)) return;
  EXPECT_EQ(util::base64url_encode(decoded), text) << what;
}

/// An accepted `dns` value survives percent-encoding and decoding again,
/// and matches the allocating query_param.
void expect_query_param_fail_closed(std::string_view query, const std::string& what,
                                    std::string& value) {
  const bool accepted = query_param_into(query, "dns", value);
  const auto owned = query_param(query, "dns");
  ASSERT_EQ(accepted, owned.has_value()) << what;
  if (!accepted) return;
  EXPECT_EQ(value, *owned) << what;
  std::string again;
  ASSERT_TRUE(query_param_into("dns=" + percent_encode(value), "dns", again)) << what;
  EXPECT_EQ(again, value) << what;
}

/// The server's decode chain for one (possibly mutated) request: the view
/// accepts exactly what Request::parse accepts, with the same fields; an
/// accepted request re-serializes to one that parses back to them; a GET's
/// `dns` parameter and its base64url payload must round-trip too.
void expect_request_chain_fail_closed(std::span<const std::uint8_t> wire,
                                      const std::string& what) {
  RequestView view;
  const bool accepted = view.parse_from(wire);
  const auto owned = Request::parse(wire);
  ASSERT_EQ(accepted, owned.has_value()) << what;
  if (!accepted) return;
  expect_request_fields(view, *owned, what);
  const auto again = owned->serialize();
  RequestView reparsed;
  ASSERT_TRUE(reparsed.parse_from(again)) << what;
  expect_request_fields(reparsed, *owned, what);

  if (view.method() != Method::kGet) return;
  std::string param;
  expect_query_param_fail_closed(view.query(), what, param);
  if (query_param_into(view.query(), "dns", param))
    expect_base64url_fail_closed(param, what);
}

TEST(DohFailClosed, GetRequestPrefixesAndFlips) {
  const auto wire = get_request_wire();
  ASSERT_GT(wire.size(), 200u);
  std::size_t accepted = 0;
  fuzz::for_each_prefix_and_flip(
      wire, [&](const std::vector<std::uint8_t>& mutated, const std::string& what) {
        expect_request_chain_fail_closed(mutated, what);
        RequestView view;
        if (view.parse_from(mutated)) ++accepted;
      });
  // Flips inside the target and header values still frame a request, so
  // the property above is exercised on accepted inputs too.
  EXPECT_GT(accepted, 50u);
}

TEST(DohFailClosed, PostRequestPrefixesAndFlips) {
  const auto wire = post_request_wire();
  std::size_t accepted = 0;
  fuzz::for_each_prefix_and_flip(
      wire, [&](const std::vector<std::uint8_t>& mutated, const std::string& what) {
        expect_request_chain_fail_closed(mutated, what);
        RequestView view;
        if (view.parse_from(mutated)) ++accepted;
      });
  EXPECT_GT(accepted, 50u);
}

TEST(DohFailClosed, DnsParameterPrefixesAndFlips) {
  const std::string query =
      "ct&dns=" + percent_encode(util::base64url_encode(dns_query_wire()));
  std::string value;
  fuzz::for_each_prefix_and_flip(
      bytes_of(query),
      [&](const std::vector<std::uint8_t>& mutated, const std::string& what) {
        expect_query_param_fail_closed(text_of(mutated), what, value);
      });
}

TEST(DohFailClosed, Base64urlPayloadPrefixesAndFlips) {
  const std::string text = util::base64url_encode(dns_query_wire());
  std::size_t rejected = 0;
  fuzz::for_each_prefix_and_flip(
      bytes_of(text),
      [&](const std::vector<std::uint8_t>& mutated, const std::string& what) {
        expect_base64url_fail_closed(text_of(mutated), what);
        std::vector<std::uint8_t> decoded;
        if (!util::base64url_decode_into(text_of(mutated), decoded)) ++rejected;
      });
  // Every flip leaves the alphabet, and a quarter of the prefixes have an
  // impossible length.
  EXPECT_GE(rejected, text.size());
}

TEST(DohFailClosed, ResponsePrefixesAndFlips) {
  const auto wire = response_wire();
  std::size_t accepted = 0;
  fuzz::for_each_prefix_and_flip(
      wire, [&](const std::vector<std::uint8_t>& mutated, const std::string& what) {
        ResponseView view;
        const bool ok = view.parse_from(mutated);
        const auto owned = Response::parse(mutated);
        ASSERT_EQ(ok, owned.has_value()) << what;
        if (!ok) return;
        ++accepted;
        expect_response_fields(view, *owned, what);
        const auto again = owned->serialize();
        ResponseView reparsed;
        ASSERT_TRUE(reparsed.parse_from(again)) << what;
        expect_response_fields(reparsed, *owned, what);
      });
  EXPECT_GT(accepted, 20u);
}

}  // namespace
}  // namespace encdns::http
