// DNS message model and wire codec (RFC 1035 §4) with name compression.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "dns/name.hpp"
#include "dns/types.hpp"
#include "util/ipv4.hpp"

namespace encdns::dns {

/// Message header flags and id; section counts are derived at encode time.
struct Header {
  std::uint16_t id = 0;
  bool qr = false;  // response flag
  Opcode opcode = Opcode::kQuery;
  bool aa = false;  // authoritative answer
  bool tc = false;  // truncated
  bool rd = true;   // recursion desired
  bool ra = false;  // recursion available
  bool ad = false;  // authenticated data (DNSSEC)
  bool cd = false;  // checking disabled
  RCode rcode = RCode::kNoError;
};

struct Question {
  Name name;
  RrType type = RrType::kA;
  RrClass klass = RrClass::kIn;

  [[nodiscard]] bool operator==(const Question& other) const {
    return name == other.name && type == other.type && klass == other.klass;
  }
};

/// SOA rdata (RFC 1035 §3.3.13).
struct SoaData {
  Name mname;
  Name rname;
  std::uint32_t serial = 0;
  std::uint32_t refresh = 7200;
  std::uint32_t retry = 900;
  std::uint32_t expire = 1209600;
  std::uint32_t minimum = 300;

  bool operator==(const SoaData&) const = default;
};

/// AAAA rdata: 16 raw octets.
using Ipv6Bytes = std::array<std::uint8_t, 16>;

/// TXT rdata: one or more character-strings.
using TxtData = std::vector<std::string>;

/// Catch-all rdata (including OPT options blobs), kept verbatim.
using RawData = std::vector<std::uint8_t>;

using RData = std::variant<util::Ipv4,  // A
                           Ipv6Bytes,   // AAAA
                           Name,        // CNAME / NS / PTR
                           SoaData,     // SOA
                           TxtData,     // TXT
                           RawData>;    // OPT and unknown types

struct ResourceRecord {
  Name name;
  RrType type = RrType::kA;
  RrClass klass = RrClass::kIn;
  std::uint32_t ttl = 300;
  RData rdata = RawData{};

  /// Convenience constructors for the common record shapes.
  [[nodiscard]] static ResourceRecord a(Name name, util::Ipv4 addr, std::uint32_t ttl = 300);
  [[nodiscard]] static ResourceRecord aaaa(Name name, Ipv6Bytes addr, std::uint32_t ttl = 300);
  [[nodiscard]] static ResourceRecord cname(Name name, Name target, std::uint32_t ttl = 300);
  [[nodiscard]] static ResourceRecord ns(Name zone, Name host, std::uint32_t ttl = 86400);
  [[nodiscard]] static ResourceRecord ptr(Name name, Name target, std::uint32_t ttl = 3600);
  [[nodiscard]] static ResourceRecord txt(Name name, TxtData strings, std::uint32_t ttl = 300);
  [[nodiscard]] static ResourceRecord soa(Name zone, SoaData data, std::uint32_t ttl = 3600);
};

/// A whole DNS message.
struct Message {
  Header header;
  std::vector<Question> questions;
  std::vector<ResourceRecord> answers;
  std::vector<ResourceRecord> authorities;
  std::vector<ResourceRecord> additionals;

  /// Encode to wire format. Owner and rdata names participate in RFC 1035
  /// compression when `compress` is set.
  [[nodiscard]] std::vector<std::uint8_t> encode(bool compress = true) const;

  /// Append the wire encoding at the writer's current position, producing
  /// bytes identical to `encode()`. Compression pointers are relative to the
  /// message start (the writer's position at entry), so callers may write a
  /// stream length prefix (`WireWriter::begin_stream_frame`) or any other
  /// preamble first and frame in place. Steady-state hot paths pass a
  /// borrowed-buffer writer and allocate nothing per query.
  void encode_into(class WireWriter& writer, bool compress = true) const;

  /// Decode a wire-format message. Returns nullopt on malformed input
  /// (truncation, bad pointers, over-long names, rdata length mismatch).
  [[nodiscard]] static std::optional<Message> decode(std::span<const std::uint8_t> wire);

  /// Slot-reusing twin of `decode` (DESIGN.md §12): decodes into `out`,
  /// reusing its section vectors, name labels and rdata storage, so a warmed
  /// scratch Message decodes with zero steady-state allocations. Accepts and
  /// rejects exactly the same inputs as `decode` (it is the implementation
  /// behind it); returns false on malformed input, leaving `out`
  /// unspecified-but-valid for reuse.
  [[nodiscard]] static bool decode_into(std::span<const std::uint8_t> wire,
                                        Message& out);

  /// First A answer, if any (follows no CNAME chain; resolvers order answers
  /// so the relevant A records are present directly).
  [[nodiscard]] std::optional<util::Ipv4> first_a() const;

  /// All A answers.
  [[nodiscard]] std::vector<util::Ipv4> all_a() const;
};

class WireWriter;
class WireReader;

/// Answer-only messages: a header and an answer section, with no question,
/// authority or additional records — the form the resolver record cache
/// stores (DESIGN.md §10). Appends exactly the bytes
/// `Message{header, {}, answers}.encode_into(writer, compress)` would,
/// without building a Message (and copying the records into it).
void encode_answer_only_into(WireWriter& writer, const Header& header,
                             std::span<const ResourceRecord> answers,
                             bool compress);

/// Decoding twin of `encode_answer_only_into`, slot-reusing like
/// `Message::decode_into`: overwrites `header` and rebuilds `answers` in
/// place. Returns false on malformed input and on any question, authority
/// or additional record, leaving `answers` unspecified-but-valid.
[[nodiscard]] bool decode_answer_only_into(std::span<const std::uint8_t> wire,
                                           Header& header,
                                           std::vector<ResourceRecord>& answers);

/// RFC 1035 name compression dictionary shared across one message encode.
/// Maps name suffixes to the message-relative wire offset of their first
/// occurrence; offsets beyond 0x3FFF are not recorded (pointers are 14-bit).
///
/// Entries point into the wire form (`Name::wire_labels()`) of the `Name`
/// objects handed to `encode` (they must outlive the compressor — true for
/// any single-message encode, where the message owns every name). A suffix
/// lookup is one case-folded byte-range compare against each entry of the
/// same size, with no canonical key strings, so a query-sized encode
/// performs zero heap allocations: the first `kInlineEntries` dictionary
/// slots live inline and only outsized messages spill to the heap.
class NameCompressor {
 public:
  /// `base` is the writer offset where the message starts; registered and
  /// emitted pointer offsets are relative to it.
  explicit NameCompressor(std::size_t base = 0) noexcept : base_(base) {}

  /// Encode `name` at the writer's current position, emitting a compression
  /// pointer for the longest previously seen suffix.
  void encode(WireWriter& writer, const Name& name);

 private:
  struct Entry {
    const char* suffix;    // label-aligned tail of a name's wire_labels()
    std::uint16_t size;    // suffix bytes
    std::uint16_t offset;  // message-relative wire offset
  };
  static constexpr std::size_t kInlineEntries = 16;

  [[nodiscard]] const Entry* find(std::string_view suffix) const;
  void push(std::string_view suffix, std::uint16_t offset);

  std::size_t base_;
  std::size_t count_ = 0;  // entries in `inline_`
  Entry inline_[kInlineEntries];
  std::vector<Entry> spill_;
};

/// Decode a (possibly compressed) name starting at the reader's position.
/// Enforces: pointers strictly backwards, bounded jump count, name length
/// limits. On failure the reader's error flag is latched.
[[nodiscard]] std::optional<Name> decode_name(WireReader& reader);

/// Slot-reusing twin of `decode_name`, writing into `out` via Name::Builder
/// (buffer capacity reused). Same validation and reader error latching.
[[nodiscard]] bool decode_name_into(WireReader& reader, Name& out);

}  // namespace encdns::dns
