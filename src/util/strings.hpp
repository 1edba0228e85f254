// Small string utilities shared across modules.
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace encdns::util {

/// Split on a separator character; empty fields are preserved.
[[nodiscard]] std::vector<std::string> split(std::string_view text, char sep);

/// Join with a separator string.
[[nodiscard]] std::string join(const std::vector<std::string>& parts,
                               std::string_view sep);

/// ASCII case fold of one octet: 'A'..'Z' map to 'a'..'z', every other
/// value (including bytes >= 0x80) is returned unchanged — exactly
/// std::tolower in the "C" locale, without the locale lookup. The single
/// case-fold primitive behind every case-insensitive comparison here (DNS
/// names, HTTP header names, env and config values).
[[nodiscard]] constexpr char ascii_lower(char c) noexcept {
  return c >= 'A' && c <= 'Z' ? static_cast<char>(c - 'A' + 'a') : c;
}

/// ASCII lowercase copy.
[[nodiscard]] std::string to_lower(std::string_view text);

/// Case-insensitive ASCII equality. Inline: DNS name, zone and compression
/// compares and HTTP header lookups run it on every query.
[[nodiscard]] constexpr bool iequals(std::string_view a, std::string_view b) noexcept {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (ascii_lower(a[i]) != ascii_lower(b[i])) return false;
  return true;
}

/// Trim ASCII whitespace from both ends.
[[nodiscard]] std::string_view trim(std::string_view text) noexcept;

/// True if `text` starts with / ends with the given suffix, case-insensitive.
[[nodiscard]] bool istarts_with(std::string_view text, std::string_view prefix) noexcept;
[[nodiscard]] bool iends_with(std::string_view text, std::string_view suffix) noexcept;

/// True if `haystack` contains `needle`, case-insensitive ASCII. An empty
/// needle is contained in everything. Allocation-free prefilter for hot scan
/// loops (DESIGN.md §12).
[[nodiscard]] bool icontains(std::string_view haystack, std::string_view needle) noexcept;

}  // namespace encdns::util
