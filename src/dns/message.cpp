#include "dns/message.hpp"

#include <algorithm>

#include "dns/wire.hpp"
#include "util/strings.hpp"

namespace encdns::dns {
namespace {

constexpr std::uint16_t kPointerMask = 0xC000;
constexpr std::size_t kMaxPointerJumps = 64;
constexpr std::size_t kMaxNameWire = 255;

std::uint16_t flags_word(const Header& h) {
  std::uint16_t w = 0;
  if (h.qr) w |= 0x8000;
  w |= static_cast<std::uint16_t>(static_cast<std::uint16_t>(h.opcode) << 11);
  if (h.aa) w |= 0x0400;
  if (h.tc) w |= 0x0200;
  if (h.rd) w |= 0x0100;
  if (h.ra) w |= 0x0080;
  if (h.ad) w |= 0x0020;
  if (h.cd) w |= 0x0010;
  w |= static_cast<std::uint16_t>(static_cast<std::uint16_t>(h.rcode) & 0x000F);
  return w;
}

Header header_from(std::uint16_t id, std::uint16_t flags) {
  Header h;
  h.id = id;
  h.qr = (flags & 0x8000) != 0;
  h.opcode = static_cast<Opcode>((flags >> 11) & 0x0F);
  h.aa = (flags & 0x0400) != 0;
  h.tc = (flags & 0x0200) != 0;
  h.rd = (flags & 0x0100) != 0;
  h.ra = (flags & 0x0080) != 0;
  h.ad = (flags & 0x0020) != 0;
  h.cd = (flags & 0x0010) != 0;
  h.rcode = static_cast<RCode>(flags & 0x000F);
  return h;
}

void encode_rdata(WireWriter& w, NameCompressor& compressor,
                  const ResourceRecord& rr) {
  // RDLENGTH placeholder, patched after writing rdata.
  const std::size_t len_at = w.size();
  w.u16(0);
  const std::size_t rdata_start = w.size();
  std::visit(
      [&](const auto& data) {
        using T = std::decay_t<decltype(data)>;
        if constexpr (std::is_same_v<T, util::Ipv4>) {
          w.u32(data.value());
        } else if constexpr (std::is_same_v<T, Ipv6Bytes>) {
          w.bytes(std::span<const std::uint8_t>(data.data(), data.size()));
        } else if constexpr (std::is_same_v<T, Name>) {
          compressor.encode(w, data);
        } else if constexpr (std::is_same_v<T, SoaData>) {
          compressor.encode(w, data.mname);
          compressor.encode(w, data.rname);
          w.u32(data.serial);
          w.u32(data.refresh);
          w.u32(data.retry);
          w.u32(data.expire);
          w.u32(data.minimum);
        } else if constexpr (std::is_same_v<T, TxtData>) {
          for (const auto& s : data) {
            const std::size_t n = std::min<std::size_t>(s.size(), 255);
            w.u8(static_cast<std::uint8_t>(n));
            w.text(std::string_view(s).substr(0, n));
          }
        } else if constexpr (std::is_same_v<T, RawData>) {
          w.bytes(data);
        }
      },
      rr.rdata);
  w.patch_u16(len_at, static_cast<std::uint16_t>(w.size() - rdata_start));
}

void encode_rr(WireWriter& w, NameCompressor& compressor, const ResourceRecord& rr) {
  compressor.encode(w, rr.name);
  w.u16(static_cast<std::uint16_t>(rr.type));
  w.u16(static_cast<std::uint16_t>(rr.klass));
  w.u32(rr.ttl);
  encode_rdata(w, compressor, rr);
}

void encode_header(WireWriter& w, const Header& header, std::size_t qd,
                   std::size_t an, std::size_t ns, std::size_t ar) {
  w.u16(header.id);
  w.u16(flags_word(header));
  w.u16(static_cast<std::uint16_t>(qd));
  w.u16(static_cast<std::uint16_t>(an));
  w.u16(static_cast<std::uint16_t>(ns));
  w.u16(static_cast<std::uint16_t>(ar));
}

void encode_section(WireWriter& w, NameCompressor& shared, std::size_t base,
                    bool compress, std::span<const ResourceRecord> section) {
  for (const auto& rr : section) {
    if (compress) {
      encode_rr(w, shared, rr);
    } else {
      // "Uncompressed" still shares a dictionary *within* the record, so a
      // SOA rname may point into the record's owner name — legacy encoder
      // behaviour that the golden corpus locks in.
      NameCompressor no_dict(base);
      encode_rr(w, no_dict, rr);
    }
  }
}

/// Re-point `out` at alternative `T`, reusing the existing value (and its
/// heap storage) when `out` already holds one.
template <typename T>
T& rdata_slot(RData& out) {
  if (auto* existing = std::get_if<T>(&out)) return *existing;
  return out.emplace<T>();
}

bool decode_rdata_into(WireReader& r, RrType type, std::size_t rdlength,
                       RData& out) {
  const std::size_t end = r.position() + rdlength;
  switch (type) {
    case RrType::kA: {
      if (rdlength != 4) return false;
      rdata_slot<util::Ipv4>(out) = util::Ipv4{r.u32()};
      break;
    }
    case RrType::kAaaa: {
      if (rdlength != 16) return false;
      Ipv6Bytes& bytes = rdata_slot<Ipv6Bytes>(out);
      bytes.fill(0);
      const auto raw = r.bytes_view(16);
      if (raw.size() == 16) std::copy(raw.begin(), raw.end(), bytes.begin());
      break;
    }
    case RrType::kCname:
    case RrType::kNs:
    case RrType::kPtr: {
      if (!decode_name_into(r, rdata_slot<Name>(out))) return false;
      break;
    }
    case RrType::kSoa: {
      SoaData& soa = rdata_slot<SoaData>(out);
      if (!decode_name_into(r, soa.mname)) return false;
      if (!decode_name_into(r, soa.rname)) return false;
      soa.serial = r.u32();
      soa.refresh = r.u32();
      soa.retry = r.u32();
      soa.expire = r.u32();
      soa.minimum = r.u32();
      break;
    }
    case RrType::kTxt: {
      TxtData& strings = rdata_slot<TxtData>(out);
      std::size_t used = 0;
      while (r.ok() && r.position() < end) {
        const std::uint8_t n = r.u8();
        const auto raw = r.bytes_view(n);
        if (used < strings.size())
          strings[used].assign(raw.begin(), raw.end());
        else
          strings.emplace_back(raw.begin(), raw.end());
        ++used;
      }
      strings.resize(used);
      break;
    }
    default: {
      RawData& raw_out = rdata_slot<RawData>(out);
      const auto raw = r.bytes_view(rdlength);
      raw_out.assign(raw.begin(), raw.end());
      break;
    }
  }
  return r.ok() && r.position() == end;
}

bool decode_rr_into(WireReader& r, ResourceRecord& rr) {
  if (!decode_name_into(r, rr.name)) return false;
  rr.type = static_cast<RrType>(r.u16());
  rr.klass = static_cast<RrClass>(r.u16());
  rr.ttl = r.u32();
  const std::uint16_t rdlength = r.u16();
  if (!r.ok() || r.remaining() < rdlength) return false;
  return decode_rdata_into(r, rr.type, rdlength, rr.rdata);
}

bool decode_section_into(WireReader& r, std::vector<ResourceRecord>& section,
                         std::uint16_t count) {
  std::size_t used = 0;
  for (std::uint16_t i = 0; i < count; ++i) {
    ResourceRecord& rr =
        used < section.size() ? section[used] : section.emplace_back();
    ++used;
    if (!decode_rr_into(r, rr)) return false;
  }
  section.resize(used);
  return true;
}

}  // namespace

// DNS names compare case-insensitively for compression (RFC 1035 §4.1.4).
// Suffixes start on label boundaries, so equal folded bytes mean equal
// labels pairwise (Name's storage comment).
const NameCompressor::Entry* NameCompressor::find(std::string_view suffix) const {
  const auto matches = [suffix](const Entry& entry) {
    return entry.size == suffix.size() &&
           util::iequals(std::string_view(entry.suffix, entry.size), suffix);
  };
  for (std::size_t i = 0; i < count_; ++i)
    if (matches(inline_[i])) return &inline_[i];
  for (const auto& entry : spill_)
    if (matches(entry)) return &entry;
  return nullptr;
}

void NameCompressor::push(std::string_view suffix, std::uint16_t offset) {
  const Entry entry{suffix.data(), static_cast<std::uint16_t>(suffix.size()),
                    offset};
  if (count_ < kInlineEntries) {
    inline_[count_++] = entry;
  } else {
    spill_.push_back(entry);
  }
}

void NameCompressor::encode(WireWriter& writer, const Name& name) {
  const std::string_view wire = name.wire_labels();
  // Find the longest (i.e. starting earliest) suffix already in the dictionary.
  std::size_t match_at = wire.size();
  std::uint16_t match_offset = 0;
  for (std::size_t at = 0; at < wire.size(); at = Name::next_label(wire, at)) {
    if (const Entry* entry = find(wire.substr(at))) {
      match_at = at;
      match_offset = entry->offset;
      break;
    }
  }
  // Register the suffix at each literal label while it is representable as
  // a 14-bit pointer, then emit the literal labels in one append.
  const std::size_t start = writer.size() - base_;
  for (std::size_t at = 0; at < match_at && start + at <= 0x3FFF;
       at = Name::next_label(wire, at))
    push(wire.substr(at), static_cast<std::uint16_t>(start + at));
  writer.text(wire.substr(0, match_at));
  if (match_at < wire.size()) {
    writer.u16(static_cast<std::uint16_t>(kPointerMask | match_offset));
  } else {
    writer.u8(0);  // root
  }
}

std::optional<Name> decode_name(WireReader& reader) {
  Name out;
  if (!decode_name_into(reader, out)) return std::nullopt;
  return out;
}

bool decode_name_into(WireReader& reader, Name& out) {
  Name::Builder builder(out);
  std::size_t wire_len = 1;
  std::size_t jumps = 0;
  std::optional<std::size_t> resume;  // position to restore after pointers
  while (true) {
    const std::size_t at = reader.position();
    const std::uint8_t len = reader.u8();
    if (!reader.ok()) return false;
    if ((len & 0xC0) == 0xC0) {
      const std::uint8_t lo = reader.u8();
      if (!reader.ok()) return false;
      const std::size_t target = (static_cast<std::size_t>(len & 0x3F) << 8) | lo;
      if (target >= at || ++jumps > kMaxPointerJumps) {  // must point backwards
        reader.fail();
        return false;
      }
      if (!resume) resume = reader.position();
      reader.seek(target);
      continue;
    }
    if ((len & 0xC0) != 0) {  // reserved label types
      reader.fail();
      return false;
    }
    if (len == 0) break;
    wire_len += 1 + len;
    if (wire_len > kMaxNameWire) {
      reader.fail();
      return false;
    }
    const auto raw = reader.bytes_view(len);
    if (!reader.ok()) return false;
    // Builder::append enforces the same label/wire limits as from_labels;
    // both are already guaranteed by the checks above, so append succeeds.
    if (!builder.append(std::string_view(
            reinterpret_cast<const char*>(raw.data()), raw.size()))) {
      reader.fail();
      return false;
    }
  }
  if (resume) reader.seek(*resume);
  return true;
}

ResourceRecord ResourceRecord::a(Name name, util::Ipv4 addr, std::uint32_t ttl) {
  return ResourceRecord{std::move(name), RrType::kA, RrClass::kIn, ttl, addr};
}
ResourceRecord ResourceRecord::aaaa(Name name, Ipv6Bytes addr, std::uint32_t ttl) {
  return ResourceRecord{std::move(name), RrType::kAaaa, RrClass::kIn, ttl, addr};
}
ResourceRecord ResourceRecord::cname(Name name, Name target, std::uint32_t ttl) {
  return ResourceRecord{std::move(name), RrType::kCname, RrClass::kIn, ttl,
                        std::move(target)};
}
ResourceRecord ResourceRecord::ns(Name zone, Name host, std::uint32_t ttl) {
  return ResourceRecord{std::move(zone), RrType::kNs, RrClass::kIn, ttl,
                        std::move(host)};
}
ResourceRecord ResourceRecord::ptr(Name name, Name target, std::uint32_t ttl) {
  return ResourceRecord{std::move(name), RrType::kPtr, RrClass::kIn, ttl,
                        std::move(target)};
}
ResourceRecord ResourceRecord::txt(Name name, TxtData strings, std::uint32_t ttl) {
  return ResourceRecord{std::move(name), RrType::kTxt, RrClass::kIn, ttl,
                        std::move(strings)};
}
ResourceRecord ResourceRecord::soa(Name zone, SoaData data, std::uint32_t ttl) {
  return ResourceRecord{std::move(zone), RrType::kSoa, RrClass::kIn, ttl,
                        std::move(data)};
}

std::vector<std::uint8_t> Message::encode(bool compress) const {
  WireWriter w;
  encode_into(w, compress);
  return std::move(w).take();
}

void Message::encode_into(WireWriter& w, bool compress) const {
  const std::size_t base = w.size();  // compression offsets are message-relative
  encode_header(w, header, questions.size(), answers.size(), authorities.size(),
                additionals.size());

  NameCompressor shared(base);
  for (const auto& q : questions) {
    if (compress) {
      shared.encode(w, q.name);
    } else {
      NameCompressor no_dict(base);
      no_dict.encode(w, q.name);
    }
    w.u16(static_cast<std::uint16_t>(q.type));
    w.u16(static_cast<std::uint16_t>(q.klass));
  }
  encode_section(w, shared, base, compress, answers);
  encode_section(w, shared, base, compress, authorities);
  encode_section(w, shared, base, compress, additionals);
}

void encode_answer_only_into(WireWriter& w, const Header& header,
                             std::span<const ResourceRecord> answers,
                             bool compress) {
  const std::size_t base = w.size();
  encode_header(w, header, 0, answers.size(), 0, 0);
  NameCompressor shared(base);
  encode_section(w, shared, base, compress, answers);
}

std::optional<Message> Message::decode(std::span<const std::uint8_t> wire) {
  Message m;
  if (!decode_into(wire, m)) return std::nullopt;
  return m;
}

bool Message::decode_into(std::span<const std::uint8_t> wire, Message& out) {
  WireReader r(wire);
  const std::uint16_t id = r.u16();
  const std::uint16_t flags = r.u16();
  const std::uint16_t qd = r.u16();
  const std::uint16_t an = r.u16();
  const std::uint16_t ns = r.u16();
  const std::uint16_t ar = r.u16();
  if (!r.ok()) return false;

  out.header = header_from(id, flags);
  std::size_t used_q = 0;
  for (std::uint16_t i = 0; i < qd; ++i) {
    Question& q = used_q < out.questions.size()
                      ? out.questions[used_q]
                      : out.questions.emplace_back();
    ++used_q;
    if (!decode_name_into(r, q.name)) return false;
    q.type = static_cast<RrType>(r.u16());
    q.klass = static_cast<RrClass>(r.u16());
    if (!r.ok()) return false;
  }
  out.questions.resize(used_q);
  if (!decode_section_into(r, out.answers, an)) return false;
  if (!decode_section_into(r, out.authorities, ns)) return false;
  if (!decode_section_into(r, out.additionals, ar)) return false;
  return r.remaining() == 0;  // reject trailing junk
}

bool decode_answer_only_into(std::span<const std::uint8_t> wire, Header& header,
                             std::vector<ResourceRecord>& answers) {
  WireReader r(wire);
  const std::uint16_t id = r.u16();
  const std::uint16_t flags = r.u16();
  const std::uint16_t qd = r.u16();
  const std::uint16_t an = r.u16();
  const std::uint16_t ns = r.u16();
  const std::uint16_t ar = r.u16();
  if (!r.ok() || qd != 0 || ns != 0 || ar != 0) return false;
  header = header_from(id, flags);
  return decode_section_into(r, answers, an) && r.remaining() == 0;
}

std::optional<util::Ipv4> Message::first_a() const {
  for (const auto& rr : answers)
    if (rr.type == RrType::kA)
      if (const auto* addr = std::get_if<util::Ipv4>(&rr.rdata)) return *addr;
  return std::nullopt;
}

std::vector<util::Ipv4> Message::all_a() const {
  std::vector<util::Ipv4> out;
  for (const auto& rr : answers)
    if (rr.type == RrType::kA)
      if (const auto* addr = std::get_if<util::Ipv4>(&rr.rdata)) out.push_back(*addr);
  return out;
}

}  // namespace encdns::dns
