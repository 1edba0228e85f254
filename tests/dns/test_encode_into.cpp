// Differential properties for the zero-allocation encode path (DESIGN.md
// §11): Message::encode_into must produce byte-identical output to the
// legacy Message::encode across the wire fuzz corpus, for both compress
// modes, with or without a preamble (in-place stream framing), and when the
// scratch buffer is reused across messages. build_query_into is likewise
// pinned against a reference reimplementation of the legacy make_query
// (set_edns + pad_to_block) so its arithmetic padding can never drift.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "dns/edns.hpp"
#include "dns/message.hpp"
#include "dns/query.hpp"
#include "dns/types.hpp"
#include "dns/wire.hpp"
#include "util/rng.hpp"

#include "fuzz_corpus.hpp"

namespace encdns::dns {
namespace {

std::vector<std::uint8_t> encode_via_into(const Message& m, bool compress) {
  WireWriter w;
  m.encode_into(w, compress);
  return std::move(w).take();
}

TEST(EncodeInto, MatchesEncodeCompressed) {
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    util::Rng rng(seed);
    const Message msg = fuzz::random_message(rng);
    EXPECT_EQ(msg.encode(true), encode_via_into(msg, true)) << "seed " << seed;
  }
}

TEST(EncodeInto, MatchesEncodeUncompressed) {
  for (std::uint64_t seed = 1000; seed <= 1200; ++seed) {
    util::Rng rng(seed);
    const Message msg = fuzz::random_message(rng);
    EXPECT_EQ(msg.encode(false), encode_via_into(msg, false)) << "seed " << seed;
  }
}

TEST(EncodeInto, PreambleKeptAndOffsetsMessageRelative) {
  // Encoding after an arbitrary preamble must leave the preamble untouched
  // and produce the same message bytes after it — i.e. compression pointers
  // are message-relative, not buffer-relative.
  for (std::uint64_t seed = 300; seed <= 360; ++seed) {
    util::Rng rng(seed);
    const Message msg = fuzz::random_message(rng);
    std::vector<std::uint8_t> buf;
    const auto preamble_len = static_cast<std::size_t>(rng.range(1, 40));
    for (std::size_t i = 0; i < preamble_len; ++i)
      buf.push_back(static_cast<std::uint8_t>(rng.below(256)));
    const std::vector<std::uint8_t> preamble = buf;
    WireWriter w(buf);
    msg.encode_into(w);
    ASSERT_GE(buf.size(), preamble_len) << "seed " << seed;
    EXPECT_TRUE(std::equal(preamble.begin(), preamble.end(), buf.begin()))
        << "seed " << seed;
    const std::vector<std::uint8_t> tail(buf.begin() + preamble_len, buf.end());
    EXPECT_EQ(tail, msg.encode()) << "seed " << seed;
    // The relocated encoding must still decode to the same message.
    const auto decoded = Message::decode(tail);
    ASSERT_TRUE(decoded.has_value()) << "seed " << seed;
    fuzz::expect_equal(msg, *decoded, seed);
  }
}

TEST(EncodeInto, InPlaceStreamFramingMatchesFrameStream) {
  for (std::uint64_t seed = 400; seed <= 460; ++seed) {
    util::Rng rng(seed);
    const Message msg = fuzz::random_message(rng);
    WireWriter w;
    const std::size_t prefix = w.begin_stream_frame();
    msg.encode_into(w);
    w.end_stream_frame(prefix);
    EXPECT_EQ(std::move(w).take(), frame_stream(msg.encode())) << "seed " << seed;
  }
}

TEST(EncodeInto, ScratchBufferReuseStaysByteIdentical) {
  // One warmed-up buffer across many messages: stale bytes from a previous,
  // longer encode must never leak into a later one.
  std::vector<std::uint8_t> scratch;
  for (std::uint64_t seed = 500; seed <= 580; ++seed) {
    util::Rng rng(seed);
    const Message msg = fuzz::random_message(rng);
    scratch.clear();
    WireWriter w(scratch);
    msg.encode_into(w);
    EXPECT_EQ(scratch, msg.encode()) << "seed " << seed;
  }
}

// Answer-only messages (the record cache's entry form): the encoder must
// match Message::encode of the same header and answers byte for byte in both
// compress modes, the decoder must round-trip them into reused storage, and
// any question, authority or additional record must be rejected.
TEST(EncodeInto, AnswerOnlyMessagesMatchMessageEncode) {
  std::vector<ResourceRecord> decoded_answers;
  for (std::uint64_t seed = 600; seed <= 700; ++seed) {
    util::Rng rng(seed);
    const Message full = fuzz::random_message(rng);
    Message answer_only;
    answer_only.header = full.header;
    answer_only.answers = full.answers;
    for (const bool compress : {true, false}) {
      WireWriter w;
      encode_answer_only_into(w, full.header, full.answers, compress);
      const auto wire = std::move(w).take();
      EXPECT_EQ(wire, answer_only.encode(compress)) << "seed " << seed;
      Header header;
      ASSERT_TRUE(decode_answer_only_into(wire, header, decoded_answers))
          << "seed " << seed;
      Message decoded;
      decoded.header = header;
      decoded.answers = decoded_answers;
      fuzz::expect_equal(answer_only, decoded, seed);
    }
    // random_message always carries a question section.
    Header header;
    EXPECT_FALSE(decode_answer_only_into(full.encode(), header, decoded_answers))
        << "seed " << seed;
  }
}

TEST(EncodeInto, MutatedDecodableBuffersStayDifferential) {
  // Bit-flipped wires that still decode give messages outside the generator's
  // distribution; encode and encode_into must agree on those too.
  util::Rng rng(81);
  int checked = 0;
  for (int round = 0; round < 600; ++round) {
    auto wire = fuzz::random_message(rng).encode();
    if (wire.empty()) continue;
    const auto mutations = static_cast<std::size_t>(rng.range(1, 6));
    for (std::size_t m = 0; m < mutations; ++m)
      wire[rng.below(wire.size())] = static_cast<std::uint8_t>(rng.below(256));
    const auto decoded = Message::decode(wire);
    if (!decoded) continue;
    ++checked;
    EXPECT_EQ(decoded->encode(true), encode_via_into(*decoded, true));
    EXPECT_EQ(decoded->encode(false), encode_via_into(*decoded, false));
  }
  EXPECT_GT(checked, 20);  // the property must actually get exercised
}

TEST(EncodeInto, MalformedCorpusStillRejected) {
  for (const auto& buf : fuzz::malformed_corpus())
    EXPECT_FALSE(Message::decode(buf).has_value());
}

TEST(EncodeInto, CaseInsensitiveSuffixCompressionUnchanged) {
  // Mixed-case repeats of the same name must compress through the shared
  // dictionary identically in both paths and still round-trip.
  Message msg;
  msg.header.id = 7;
  Question q;
  q.name = *Name::parse("WWW.Example.COM");
  msg.questions.push_back(q);
  msg.answers.push_back(
      ResourceRecord::cname(*Name::parse("www.example.com"),
                            *Name::parse("cdn.EXAMPLE.com")));
  msg.answers.push_back(
      ResourceRecord::a(*Name::parse("CDN.example.COM"), util::Ipv4(0x01020304)));
  const auto wire = msg.encode(true);
  EXPECT_EQ(wire, encode_via_into(msg, true));
  const auto decoded = Message::decode(wire);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->answers.size(), 2u);
}

// ---------------------------------------------------------------------------
// build_query_into vs the legacy make_query construction.

// The pre-PR make_query body, kept as the reference: EDNS attach + measure-
// and-re-encode padding via pad_to_block.
Message legacy_make_query(const Name& qname, RrType type, std::uint16_t id,
                          const QueryOptions& options) {
  Message m;
  m.header.id = id;
  m.header.qr = false;
  m.header.rd = options.recursion_desired;
  m.questions.push_back(Question{qname, type, RrClass::kIn});
  if (options.with_edns) {
    Edns edns;
    edns.udp_payload_size = options.udp_payload_size;
    set_edns(m, edns);
    if (options.padding_block > 0) pad_to_block(m, options.padding_block);
  }
  return m;
}

TEST(BuildQueryInto, MatchesLegacyMakeQueryAcrossOptionSpace) {
  const std::size_t blocks[] = {0, 16, 128, 468};
  util::Rng rng(9001);
  for (int round = 0; round < 120; ++round) {
    const Name qname = fuzz::random_name(rng);
    for (const std::size_t block : blocks) {
      for (const bool with_edns : {true, false}) {
        QueryOptions options;
        options.with_edns = with_edns;
        options.padding_block = block;
        options.recursion_desired = rng.chance(0.8);
        options.udp_payload_size =
            static_cast<std::uint16_t>(rng.chance(0.5) ? 1232 : 4096);
        const auto id = static_cast<std::uint16_t>(rng.below(65536));
        const Message reference = legacy_make_query(qname, RrType::kA, id, options);
        Message built;
        build_query_into(built, qname, RrType::kA, id, options);
        EXPECT_EQ(reference.encode(), built.encode())
            << "round " << round << " block " << block << " edns " << with_edns;
        EXPECT_EQ(make_query(qname, RrType::kA, id, options).encode(),
                  built.encode());
      }
    }
  }
}

TEST(BuildQueryInto, PaddedSizeIsBlockMultiple) {
  util::Rng rng(9002);
  for (int round = 0; round < 80; ++round) {
    const Name qname = fuzz::random_name(rng);
    QueryOptions options;
    options.padding_block = 128;
    Message built;
    build_query_into(built, qname, RrType::kA, 0x4242, options);
    EXPECT_EQ(built.encode().size() % 128, 0u) << "round " << round;
  }
}

TEST(BuildQueryInto, ScratchReuseAcrossShapesLeaksNothing) {
  // Alternate padded / unpadded / EDNS-less builds through one scratch
  // message; every build must equal a from-scratch construction.
  util::Rng rng(9003);
  Message scratch;
  for (int round = 0; round < 100; ++round) {
    const Name qname = fuzz::random_name(rng);
    QueryOptions options;
    switch (round % 3) {
      case 0:
        options.padding_block = 128;
        break;
      case 1:
        options.padding_block = 0;
        break;
      default:
        options.with_edns = false;
        break;
    }
    const auto id = static_cast<std::uint16_t>(rng.below(65536));
    build_query_into(scratch, qname, RrType::kAaaa, id, options);
    EXPECT_EQ(legacy_make_query(qname, RrType::kAaaa, id, options).encode(),
              scratch.encode())
        << "round " << round;
  }
}

}  // namespace
}  // namespace encdns::dns
