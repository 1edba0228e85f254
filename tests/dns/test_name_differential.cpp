// Differential tests for the flat wire-form dns::Name (DESIGN.md §11)
// against a reference copy of the label-vector implementation it replaced:
// one std::string per label, case folded through std::tolower, and a
// NameCompressor whose entries are (name, first label) pairs compared label
// by label. Parse and from_labels limits, presentation and canonical forms,
// equality, subdomain tests and compressed encodings must all agree.
#include <gtest/gtest.h>

#include <cctype>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "dns/message.hpp"
#include "dns/name.hpp"
#include "dns/wire.hpp"
#include "util/rng.hpp"

#include "fuzz_corpus.hpp"

namespace encdns::dns {
namespace {

// --- reference: the label-vector Name ---------------------------------------

char ref_lower(char c) {
  return static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
}

bool ref_label_equals(const std::string& a, const std::string& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (ref_lower(a[i]) != ref_lower(b[i])) return false;
  return true;
}

using RefLabels = std::vector<std::string>;

std::optional<RefLabels> ref_from_labels(RefLabels labels) {
  std::size_t wire = 1;
  for (const auto& label : labels) {
    if (label.empty() || label.size() > 63) return std::nullopt;
    wire += 1 + label.size();
  }
  if (wire > 255) return std::nullopt;
  return labels;
}

std::optional<RefLabels> ref_parse(std::string_view text) {
  const auto valid = [](char c) {
    return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '-' || c == '_';
  };
  if (!text.empty() && text.back() == '.') text.remove_suffix(1);
  if (text.empty()) return RefLabels{};
  RefLabels labels;
  std::size_t start = 0;
  while (start <= text.size()) {
    std::size_t dot = text.find('.', start);
    if (dot == std::string_view::npos) dot = text.size();
    const auto label = text.substr(start, dot - start);
    if (label.empty() || label.size() > 63) return std::nullopt;
    for (char c : label)
      if (!valid(c)) return std::nullopt;
    labels.emplace_back(label);
    if (dot == text.size()) break;
    start = dot + 1;
  }
  return ref_from_labels(std::move(labels));
}

std::string ref_to_string(const RefLabels& labels) {
  if (labels.empty()) return ".";
  std::string out;
  for (std::size_t i = 0; i < labels.size(); ++i) {
    if (i) out.push_back('.');
    out += labels[i];
  }
  return out;
}

std::string ref_canonical(const RefLabels& labels) {
  std::string out;
  for (const auto& label : labels) {
    for (char c : label) out.push_back(ref_lower(c));
    out.push_back('.');
  }
  if (out.empty()) out.push_back('.');
  return out;
}

bool ref_is_subdomain_of(const RefLabels& name, const RefLabels& other) {
  if (other.size() > name.size()) return false;
  const std::size_t offset = name.size() - other.size();
  for (std::size_t i = 0; i < other.size(); ++i)
    if (!ref_label_equals(name[offset + i], other[i])) return false;
  return true;
}

bool ref_equals(const RefLabels& a, const RefLabels& b) {
  return a.size() == b.size() && ref_is_subdomain_of(a, b);
}

// --- reference: the label-pairwise NameCompressor and message encoder -------

class RefCompressor {
 public:
  explicit RefCompressor(std::size_t base) : base_(base) {}

  void encode(std::vector<std::uint8_t>& out, const Name& name) {
    names_.push_back(name.labels());
    const RefLabels& labels = names_.back();
    const std::size_t id = names_.size() - 1;
    std::size_t match_from = labels.size();
    std::uint16_t match_offset = 0;
    for (std::size_t from = 0; from < labels.size(); ++from) {
      if (const Entry* entry = find(labels, from)) {
        match_from = from;
        match_offset = entry->offset;
        break;
      }
    }
    for (std::size_t i = 0; i < match_from; ++i) {
      const std::size_t at = out.size() - base_;
      if (at <= 0x3FFF) entries_.push_back({id, i, static_cast<std::uint16_t>(at)});
      out.push_back(static_cast<std::uint8_t>(labels[i].size()));
      out.insert(out.end(), labels[i].begin(), labels[i].end());
    }
    if (match_from < labels.size()) {
      out.push_back(static_cast<std::uint8_t>(0xC0 | (match_offset >> 8)));
      out.push_back(static_cast<std::uint8_t>(match_offset));
    } else {
      out.push_back(0);
    }
  }

 private:
  struct Entry {
    std::size_t name;
    std::size_t from;
    std::uint16_t offset;
  };

  const Entry* find(const RefLabels& labels, std::size_t from) const {
    for (const auto& entry : entries_) {
      const RefLabels& other = names_[entry.name];
      if (other.size() - entry.from != labels.size() - from) continue;
      bool equal = true;
      for (std::size_t i = from, j = entry.from; i < labels.size(); ++i, ++j)
        equal = equal && ref_label_equals(labels[i], other[j]);
      if (equal) return &entry;
    }
    return nullptr;
  }

  std::size_t base_;
  std::vector<RefLabels> names_;
  std::vector<Entry> entries_;
};

void ref_u16(std::vector<std::uint8_t>& out, std::uint16_t v) {
  out.push_back(static_cast<std::uint8_t>(v >> 8));
  out.push_back(static_cast<std::uint8_t>(v));
}

void ref_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  ref_u16(out, static_cast<std::uint16_t>(v >> 16));
  ref_u16(out, static_cast<std::uint16_t>(v));
}

void ref_encode_rr(std::vector<std::uint8_t>& out, RefCompressor& compressor,
                   const ResourceRecord& rr) {
  compressor.encode(out, rr.name);
  ref_u16(out, static_cast<std::uint16_t>(rr.type));
  ref_u16(out, static_cast<std::uint16_t>(rr.klass));
  ref_u32(out, rr.ttl);
  const std::size_t len_at = out.size();
  ref_u16(out, 0);
  std::visit(
      [&](const auto& data) {
        using T = std::decay_t<decltype(data)>;
        if constexpr (std::is_same_v<T, util::Ipv4>) {
          ref_u32(out, data.value());
        } else if constexpr (std::is_same_v<T, Ipv6Bytes>) {
          out.insert(out.end(), data.begin(), data.end());
        } else if constexpr (std::is_same_v<T, Name>) {
          compressor.encode(out, data);
        } else if constexpr (std::is_same_v<T, SoaData>) {
          compressor.encode(out, data.mname);
          compressor.encode(out, data.rname);
          for (std::uint32_t v : {data.serial, data.refresh, data.retry,
                                  data.expire, data.minimum})
            ref_u32(out, v);
        } else if constexpr (std::is_same_v<T, TxtData>) {
          for (const auto& s : data) {
            const std::size_t n = std::min<std::size_t>(s.size(), 255);
            out.push_back(static_cast<std::uint8_t>(n));
            out.insert(out.end(), s.begin(), s.begin() + static_cast<std::ptrdiff_t>(n));
          }
        } else {
          out.insert(out.end(), data.begin(), data.end());
        }
      },
      rr.rdata);
  const std::size_t rdlength = out.size() - len_at - 2;
  out[len_at] = static_cast<std::uint8_t>(rdlength >> 8);
  out[len_at + 1] = static_cast<std::uint8_t>(rdlength);
}

std::vector<std::uint8_t> ref_encode(const Message& m, bool compress) {
  std::vector<std::uint8_t> out;
  const Header& h = m.header;
  std::uint16_t flags = static_cast<std::uint16_t>(
      (h.qr ? 0x8000 : 0) | (static_cast<int>(h.opcode) << 11) |
      (h.aa ? 0x0400 : 0) | (h.tc ? 0x0200 : 0) | (h.rd ? 0x0100 : 0) |
      (h.ra ? 0x0080 : 0) | (h.ad ? 0x0020 : 0) | (h.cd ? 0x0010 : 0) |
      (static_cast<int>(h.rcode) & 0x000F));
  ref_u16(out, h.id);
  ref_u16(out, flags);
  for (std::size_t count : {m.questions.size(), m.answers.size(),
                            m.authorities.size(), m.additionals.size()})
    ref_u16(out, static_cast<std::uint16_t>(count));
  RefCompressor shared(0);
  for (const auto& q : m.questions) {
    shared.encode(out, q.name);
    ref_u16(out, static_cast<std::uint16_t>(q.type));
    ref_u16(out, static_cast<std::uint16_t>(q.klass));
  }
  for (const auto* section : {&m.answers, &m.authorities, &m.additionals}) {
    for (const auto& rr : *section) {
      if (compress) {
        ref_encode_rr(out, shared, rr);
      } else {
        RefCompressor per_record(0);  // the golden-pinned per-record dictionary
        ref_encode_rr(out, per_record, rr);
      }
    }
  }
  return out;
}

// --- random inputs ------------------------------------------------------------

/// Labels over a small mixed-case alphabet (so suffixes collide often),
/// sometimes with a '.', a byte that looks like a length octet, a
/// non-ASCII byte or a limit-sized length.
std::string random_raw_label(util::Rng& rng) {
  static constexpr char kAlphabet[] = "abAB-_0.\x01\x02";
  switch (rng.below(10)) {
    case 0:
      return std::string(static_cast<std::size_t>(rng.range(62, 64)), 'x');
    case 1:
      return std::string(1, static_cast<char>(rng.range(0x80, 0xFF)));
    case 2:
      return {};
    default: {
      std::string label(static_cast<std::size_t>(rng.range(1, 3)), 'a');
      for (char& c : label) c = kAlphabet[rng.below(sizeof(kAlphabet) - 1)];
      return label;
    }
  }
}

std::string random_text(util::Rng& rng) {
  static constexpr char kAlphabet[] = "aZ9-_.. !";
  std::string text;
  const auto labels = rng.range(0, 6);
  for (std::int64_t i = 0; i < labels; ++i) {
    if (i) text.push_back('.');
    const auto length = rng.chance(0.1) ? rng.range(60, 66) : rng.range(0, 4);
    for (std::int64_t j = 0; j < length; ++j)
      text.push_back(kAlphabet[rng.below(sizeof(kAlphabet) - 1)]);
  }
  if (rng.chance(0.2)) text.push_back('.');
  return text;
}

void expect_matches_reference(const Name& name, const RefLabels& ref,
                              const std::string& what) {
  EXPECT_EQ(name.labels(), ref) << what;
  EXPECT_EQ(name.label_count(), ref.size()) << what;
  EXPECT_EQ(name.to_string(), ref_to_string(ref)) << what;
  EXPECT_EQ(name.canonical(), ref_canonical(ref)) << what;
  std::string into = "stale scratch contents, longer than most names";
  name.canonical_into(into);
  EXPECT_EQ(into, ref_canonical(ref)) << what;
  std::size_t wire = 1;
  for (const auto& label : ref) wire += 1 + label.size();
  EXPECT_EQ(name.wire_length(), wire) << what;
}

TEST(NameDifferential, ParseMatchesReference) {
  util::Rng rng(16);
  std::size_t accepted = 0;
  for (int i = 0; i < 20000; ++i) {
    const std::string text = random_text(rng);
    const auto name = Name::parse(text);
    const auto ref = ref_parse(text);
    ASSERT_EQ(name.has_value(), ref.has_value()) << "'" << text << "'";
    if (!name) continue;
    ++accepted;
    expect_matches_reference(*name, *ref, text);
  }
  EXPECT_GT(accepted, 2000u);
}

TEST(NameDifferential, LimitsAtTheBoundaries) {
  const std::string l63(63, 'a'), l61(61, 'b');
  // 3 x 64 + 62 + 1 = 255 octets fits; one more octet does not.
  const std::string fits = l63 + "." + l63 + "." + l63 + "." + l61;
  EXPECT_EQ(Name::parse(fits)->wire_length(), 255u);
  EXPECT_FALSE(Name::parse(fits + "b"));
  EXPECT_FALSE(Name::from_labels({l63, l63, l63, l61 + "bb"}));
  EXPECT_FALSE(Name::parse(std::string(64, 'a')));
  EXPECT_FALSE(Name::from_labels({std::string(64, 'a')}));
  // 127 one-octet labels are the most a name can hold.
  const RefLabels ones(127, "a");
  ASSERT_TRUE(Name::from_labels(ones));
  EXPECT_EQ(Name::from_labels(ones)->label_count(), 127u);
  RefLabels too_many = ones;
  too_many.push_back("a");
  EXPECT_FALSE(Name::from_labels(too_many));
  const auto base = *Name::from_labels(RefLabels(126, "a"));
  EXPECT_TRUE(base.prefixed_with("b"));
  EXPECT_FALSE(base.prefixed_with("bb"));
  Name slot;
  EXPECT_FALSE(slot.assign_prefixed("bad label", base));
}

TEST(NameDifferential, FromLabelsMatchesReference) {
  util::Rng rng(17);
  for (int i = 0; i < 20000; ++i) {
    RefLabels labels(static_cast<std::size_t>(rng.range(0, 6)));
    for (auto& label : labels) label = random_raw_label(rng);
    const auto name = Name::from_labels(labels);
    const auto ref = ref_from_labels(labels);
    ASSERT_EQ(name.has_value(), ref.has_value()) << "seed 17 iteration " << i;
    if (name) expect_matches_reference(*name, *ref, "iteration " + std::to_string(i));
  }
}

TEST(NameDifferential, EqualitySubdomainParentAndSldMatchReference) {
  util::Rng rng(18);
  const auto flip_case = [&rng](RefLabels labels) {
    for (auto& label : labels)
      for (char& c : label)
        if (rng.chance(0.5) && std::isalpha(static_cast<unsigned char>(c)))
          c = static_cast<char>(c ^ 0x20);
    return labels;
  };
  std::size_t compared = 0;
  for (int i = 0; i < 20000; ++i) {
    RefLabels a(static_cast<std::size_t>(rng.range(0, 5)));
    for (auto& label : a) {
      label = random_raw_label(rng);
      if (label.empty()) label = "a.b";
    }
    // b: a case-flipped suffix of a, sometimes perturbed.
    RefLabels b(a.begin() + static_cast<std::ptrdiff_t>(rng.below(a.size() + 1)), a.end());
    b = flip_case(b);
    if (rng.chance(0.3) && !b.empty()) b[rng.below(b.size())] += "a";
    if (rng.chance(0.1)) b.insert(b.begin(), "z");
    const auto valid_a = Name::from_labels(a), valid_b = Name::from_labels(b);
    if (!ref_from_labels(a) || !ref_from_labels(b)) continue;
    ASSERT_TRUE(valid_a && valid_b);
    ++compared;
    const Name& na = *valid_a;
    const Name& nb = *valid_b;
    const std::string what = ref_to_string(a) + " vs " + ref_to_string(b);
    EXPECT_EQ(na.is_subdomain_of(nb), ref_is_subdomain_of(a, b)) << what;
    EXPECT_EQ(nb.is_subdomain_of(na), ref_is_subdomain_of(b, a)) << what;
    EXPECT_EQ(na == nb, ref_equals(a, b)) << what;
    EXPECT_EQ(na.parent().labels(),
              a.size() <= 1 ? RefLabels{} : RefLabels(a.begin() + 1, a.end()))
        << what;
    EXPECT_EQ(na.sld().labels(), a.size() <= 2 ? a : RefLabels(a.end() - 2, a.end()))
        << what;
  }
  EXPECT_GT(compared, 10000u);
  // A label containing '.' is one label: {"a.b", "c"} is not under b.c,
  // and neither is {"x\1b", "c"}, whose last four octets spell b.c's wire
  // form without being label-aligned.
  const Name dotted = *Name::from_labels({"a.b", "c"});
  EXPECT_FALSE(dotted.is_subdomain_of(*Name::parse("b.c")));
  EXPECT_FALSE(Name::from_labels({"x\x01" "b", "c"})->is_subdomain_of(*Name::parse("b.c")));
  EXPECT_TRUE(dotted.is_subdomain_of(*Name::parse("C")));
  EXPECT_NE(dotted, *Name::parse("a.b.c"));
  EXPECT_EQ(dotted.to_string(), "a.b.c");
}

TEST(NameDifferential, CompressedEncodingsMatchReferenceOverFuzzCorpus) {
  for (std::uint64_t seed = 1; seed <= 400; ++seed) {
    util::Rng rng(seed);
    const Message msg = fuzz::random_message(rng);
    EXPECT_EQ(msg.encode(true), ref_encode(msg, true)) << "seed " << seed;
    EXPECT_EQ(msg.encode(false), ref_encode(msg, false)) << "seed " << seed;
  }
}

TEST(NameDifferential, SharedSuffixesAcrossCaseMatchReference) {
  // Names drawn from a tiny mixed-case pool share suffixes constantly, the
  // case the pairwise fold compare existed for.
  util::Rng rng(19);
  const RefLabels pool = {"a", "A", "ns1", "NS1", "example", "Example", "com"};
  for (int i = 0; i < 300; ++i) {
    const auto name = [&] {
      RefLabels labels(static_cast<std::size_t>(rng.range(0, 4)));
      for (auto& label : labels) label = pool[rng.below(pool.size())];
      return *Name::from_labels(labels);
    };
    Message msg;
    msg.questions.push_back(Question{name(), RrType::kA, RrClass::kIn});
    for (int r = 0; r < 6; ++r) {
      SoaData soa{name(), name()};
      msg.answers.push_back(r % 2 ? ResourceRecord::cname(name(), name())
                                  : ResourceRecord::soa(name(), soa));
    }
    EXPECT_EQ(msg.encode(true), ref_encode(msg, true)) << "iteration " << i;
    EXPECT_EQ(msg.encode(false), ref_encode(msg, false)) << "iteration " << i;
  }
}

TEST(NameDifferential, SoaRnameSharesTheRecordDictionaryUncompressed) {
  const Name zone = *Name::parse("Example.COM");
  SoaData soa{*Name::parse("ns1.example.com"), *Name::parse("hostmaster.EXAMPLE.com")};
  Message msg;
  msg.answers.push_back(ResourceRecord::soa(zone, soa));
  msg.answers.push_back(ResourceRecord::soa(zone, soa));
  const auto wire = msg.encode(false);
  EXPECT_EQ(wire, ref_encode(msg, false));
  // Each record starts a fresh dictionary, so the second repeats the owner
  // literally; within a record, mname and rname point into its owner name
  // (at 12 and 74). A record: owner 13 + fixed 10 + "ns1" 4 + pointer 2 +
  // "hostmaster" 11 + pointer 2 + 20 = 62 octets.
  ASSERT_EQ(wire.size(), 12u + 2 * 62u);
  EXPECT_EQ(wire[39], 0xC0);
  EXPECT_EQ(wire[40], 12);
  EXPECT_EQ(wire[101], 0xC0);
  EXPECT_EQ(wire[102], 74);
  const auto decoded = Message::decode(wire);
  ASSERT_TRUE(decoded);
  EXPECT_EQ(std::get<SoaData>(decoded->answers[1].rdata), soa);
}

TEST(NameDifferential, SuffixesPastThePointerLimitAreNotRegistered) {
  // ~22 KB of TXT records pushes later owner names past offset 0x3FFF, where
  // a 14-bit pointer cannot reach: suffixes first seen there (late.example)
  // must stay literal-only, while earlier ones are still pointed at.
  Message msg;
  const TxtData big = {std::string(200, 't')};
  for (int i = 0; i < 100; ++i) {
    const std::string owner =
        i < 80 ? "r" + std::to_string(i % 7) + ".Zone" + std::to_string(i % 3) + ".example"
               : "n" + std::to_string(i) + ".late.example";
    msg.answers.push_back(ResourceRecord::txt(*Name::parse(owner), big));
  }
  const auto compressed = msg.encode(true);
  ASSERT_GT(compressed.size(), 0x3FFFu + 1000);
  EXPECT_EQ(compressed, ref_encode(msg, true));
  EXPECT_EQ(msg.encode(false), ref_encode(msg, false));
  const auto decoded = Message::decode(compressed);
  ASSERT_TRUE(decoded);
  for (std::size_t i = 0; i < msg.answers.size(); ++i)
    EXPECT_EQ(decoded->answers[i].name, msg.answers[i].name) << i;
}

}  // namespace
}  // namespace encdns::dns
