// Domain names (RFC 1035 §2.3): label sequences with length limits and
// case-insensitive comparison semantics.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace encdns::dns {

/// A fully-qualified domain name as an ordered list of labels, most-specific
/// first ("www.example.com" -> {"www", "example", "com"}). The root name has
/// zero labels. Comparison and hashing are case-insensitive, but the original
/// spelling is preserved for presentation.
///
/// Storage is flat (DESIGN.md §11): the labels in uncompressed wire form —
/// each a length octet followed by its bytes, in their original case — in
/// one buffer without the root octet. Length octets are below 64, so ASCII
/// case folding never changes them, and two label-aligned byte ranges
/// compare equal (folded) exactly when their labels do pairwise: equality,
/// subdomain tests and compression suffix matching are byte-range compares.
class Name {
 public:
  Name() = default;

  /// Parse a presentation-format name. Enforces: labels 1..63 octets, total
  /// wire length <= 255, labels limited to letters/digits/hyphen/underscore
  /// (underscore admitted for service labels such as _dns). A single trailing
  /// dot is accepted. "" and "." both denote the root.
  [[nodiscard]] static std::optional<Name> parse(std::string_view text);

  /// Construct from raw labels without charset validation (used by the wire
  /// decoder, which must accept any octets); still enforces length limits.
  [[nodiscard]] static std::optional<Name> from_labels(
      const std::vector<std::string>& labels);

  /// Copies of the labels, most-specific first. Allocates one string per
  /// label: for tests and cold paths (hot paths read `wire_labels()`).
  [[nodiscard]] std::vector<std::string> labels() const;

  /// The labels in uncompressed wire form without the root octet, original
  /// case: "\3www\7example\3com" for www.example.com, empty for the root.
  [[nodiscard]] std::string_view wire_labels() const noexcept { return wire_; }

  /// In a `wire_labels()` buffer, the offset of the label after the one
  /// starting at `at`: the step that walks a name's label-aligned suffixes.
  [[nodiscard]] static std::size_t next_label(std::string_view wire,
                                              std::size_t at) noexcept {
    return at + 1 + static_cast<std::uint8_t>(wire[at]);
  }

  [[nodiscard]] bool is_root() const noexcept { return wire_.empty(); }
  [[nodiscard]] std::size_t label_count() const noexcept;

  /// Presentation format without trailing dot; root renders as ".".
  [[nodiscard]] std::string to_string() const;

  /// Length of the uncompressed wire encoding (1 for root).
  [[nodiscard]] std::size_t wire_length() const noexcept { return wire_.size() + 1; }

  /// True if this name is `other` or a subdomain of it (case-insensitive).
  [[nodiscard]] bool is_subdomain_of(const Name& other) const noexcept;

  /// The name with its leftmost label removed ("www.example.com" -> "example.com").
  /// Root maps to root.
  [[nodiscard]] Name parent() const;

  /// Prepend a label; returns nullopt if limits would be exceeded.
  [[nodiscard]] std::optional<Name> prefixed_with(std::string_view label) const;

  /// Registrable second-level domain as a Name ({"example","com"}); names with
  /// fewer than 2 labels return themselves. Used for grouping DoT providers
  /// by certificate-CN SLD (§3.2).
  [[nodiscard]] Name sld() const;

  /// Case-insensitive equality.
  [[nodiscard]] bool equals(const Name& other) const noexcept;
  bool operator==(const Name& other) const noexcept { return equals(other); }

  /// Canonical (lowercased) form for map keys.
  [[nodiscard]] std::string canonical() const;

  /// `canonical()` appended to `out` in place (byte-identical), reusing the
  /// caller's string capacity. Hot paths build cache keys through this.
  void canonical_into(std::string& out) const;

  /// Rebuild this name as `label`.`base` in place, reusing the buffer's
  /// capacity — the slot-reuse twin of `base.prefixed_with(label)`, with
  /// identical validation (charset on the new label, length limits on the
  /// whole). Returns false (leaving the name unspecified but valid) if the
  /// result would be invalid. `base` may not alias `*this`.
  [[nodiscard]] bool assign_prefixed(std::string_view label, const Name& base);

  /// Slot-reusing rebuild for the wire decoder (DESIGN.md §11): restarts the
  /// Name as the root, keeping its buffer's capacity, and appends labels in
  /// place. Length limits are enforced exactly as in `from_labels`; charset
  /// is not checked (wire names may carry any octets). After a failed append
  /// the Name holds the labels appended so far.
  class Builder {
   public:
    explicit Builder(Name& name) noexcept : name_(&name) { name.wire_.clear(); }
    /// Append one label; false if label or total wire limits are exceeded.
    [[nodiscard]] bool append(std::string_view label);

   private:
    Name* name_;
  };

 private:
  friend class Builder;
  std::string wire_;
};

}  // namespace encdns::dns

template <>
struct std::hash<encdns::dns::Name> {
  std::size_t operator()(const encdns::dns::Name& n) const noexcept {
    return std::hash<std::string>{}(n.canonical());
  }
};
