#include "dns/name.hpp"

#include <cctype>

#include "util/strings.hpp"

namespace encdns::dns {
namespace {

constexpr std::size_t kMaxLabel = 63;
constexpr std::size_t kMaxWire = 255;

bool valid_label_char(char c) noexcept {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '-' || c == '_';
}

/// Offset of the label-aligned suffix of `wire` that is `size` bytes long
/// or, when none is, of the longest one shorter than that.
std::size_t suffix_offset(std::string_view wire, std::size_t size) noexcept {
  std::size_t at = 0;
  while (wire.size() - at > size) at = Name::next_label(wire, at);
  return at;
}

}  // namespace

std::optional<Name> Name::parse(std::string_view text) {
  if (!text.empty() && text.back() == '.') text.remove_suffix(1);
  Name n;
  if (text.empty()) return n;  // root
  Builder builder(n);
  std::size_t start = 0;
  while (true) {
    std::size_t dot = text.find('.', start);
    if (dot == std::string_view::npos) dot = text.size();
    const auto label = text.substr(start, dot - start);
    for (char c : label)
      if (!valid_label_char(c)) return std::nullopt;
    if (!builder.append(label)) return std::nullopt;
    if (dot == text.size()) return n;
    start = dot + 1;
  }
}

std::optional<Name> Name::from_labels(const std::vector<std::string>& labels) {
  Name n;
  Builder builder(n);
  for (const auto& label : labels)
    if (!builder.append(label)) return std::nullopt;
  return n;
}

std::vector<std::string> Name::labels() const {
  std::vector<std::string> out;
  for (std::size_t at = 0; at < wire_.size(); at = next_label(wire_, at))
    out.emplace_back(wire_, at + 1, static_cast<std::uint8_t>(wire_[at]));
  return out;
}

std::size_t Name::label_count() const noexcept {
  std::size_t count = 0;
  for (std::size_t at = 0; at < wire_.size(); at = next_label(wire_, at)) ++count;
  return count;
}

std::string Name::to_string() const {
  if (wire_.empty()) return ".";
  // Presentation form is the canonical layout (each length octet becomes the
  // following label's dot) shifted by one, in the original case.
  std::string out(wire_.size() - 1, '.');
  for (std::size_t at = 0; at < wire_.size(); at = next_label(wire_, at))
    wire_.copy(out.data() + at, static_cast<std::uint8_t>(wire_[at]), at + 1);
  return out;
}

bool Name::is_subdomain_of(const Name& other) const noexcept {
  if (other.wire_.size() > wire_.size()) return false;
  const std::size_t at = suffix_offset(wire_, other.wire_.size());
  return util::iequals(std::string_view(wire_).substr(at), other.wire_);
}

Name Name::parent() const {
  Name n;
  if (!wire_.empty()) n.wire_.assign(wire_, next_label(wire_, 0));
  return n;
}

std::optional<Name> Name::prefixed_with(std::string_view label) const {
  Name n;
  if (!n.assign_prefixed(label, *this)) return std::nullopt;
  return n;
}

Name Name::sld() const {
  std::size_t last = 0, second_last = 0;
  for (std::size_t at = 0; at < wire_.size(); at = next_label(wire_, at)) {
    second_last = last;
    last = at;
  }
  Name n;
  n.wire_.assign(wire_, second_last);
  return n;
}

bool Name::equals(const Name& other) const noexcept {
  return util::iequals(wire_, other.wire_);
}

std::string Name::canonical() const {
  std::string out;
  canonical_into(out);
  return out;
}

void Name::canonical_into(std::string& out) const {
  if (wire_.empty()) {
    out.assign(1, '.');
    return;
  }
  // "\3www\7example\3com" -> "www.example.com.": the same length, each label
  // moved one byte left and followed by a dot where the next length octet was.
  out.resize(wire_.size());
  for (std::size_t at = 0; at < wire_.size();) {
    const std::size_t end = next_label(wire_, at);
    for (std::size_t i = at + 1; i < end; ++i) out[i - 1] = util::ascii_lower(wire_[i]);
    out[end - 1] = '.';
    at = end;
  }
}

bool Name::assign_prefixed(std::string_view label, const Name& base) {
  for (char c : label)
    if (!valid_label_char(c)) return false;
  Builder builder(*this);
  if (!builder.append(label)) return false;
  if (wire_.size() + base.wire_.size() + 1 > kMaxWire) return false;
  wire_.append(base.wire_);
  return true;
}

bool Name::Builder::append(std::string_view label) {
  std::string& wire = name_->wire_;
  if (label.empty() || label.size() > kMaxLabel ||
      wire.size() + 1 + label.size() + 1 > kMaxWire)
    return false;
  wire.push_back(static_cast<char>(label.size()));
  wire.append(label);
  return true;
}

}  // namespace encdns::dns
