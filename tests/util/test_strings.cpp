#include "util/strings.hpp"

#include <gtest/gtest.h>

#include <cctype>

namespace encdns::util {
namespace {

TEST(Split, PreservesEmptyFields) {
  EXPECT_EQ(split("a,b,c", ','), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(split(",a,", ','), (std::vector<std::string>{"", "a", ""}));
  EXPECT_EQ(split("", ','), (std::vector<std::string>{""}));
}

TEST(Join, Inverse) {
  EXPECT_EQ(join({"a", "b", "c"}, "."), "a.b.c");
  EXPECT_EQ(join({}, "."), "");
  EXPECT_EQ(join({"one"}, ", "), "one");
}

TEST(AsciiLower, MatchesCLocaleToLowerOnEveryByte) {
  // Nothing in the program calls setlocale, so std::tolower runs in the "C"
  // locale: only 'A'..'Z' fold, and bytes >= 0x80 pass through unchanged.
  for (int b = 0; b < 256; ++b) {
    const char c = static_cast<char>(b);
    EXPECT_EQ(static_cast<unsigned char>(ascii_lower(c)), std::tolower(b))
        << "byte " << b;
  }
  static_assert(ascii_lower('Q') == 'q' && ascii_lower('@') == '@' &&
                ascii_lower('[') == '[' && ascii_lower('\x3F') == '\x3F');
}

TEST(ToLower, Ascii) {
  EXPECT_EQ(to_lower("MiXeD123"), "mixed123");
  EXPECT_EQ(to_lower(""), "");
}

TEST(IEquals, CaseInsensitive) {
  EXPECT_TRUE(iequals("Content-Length", "content-length"));
  EXPECT_FALSE(iequals("abc", "abcd"));
  EXPECT_TRUE(iequals("", ""));
}

TEST(Trim, Whitespace) {
  EXPECT_EQ(trim("  x  "), "x");
  EXPECT_EQ(trim("\t a b \r\n"), "a b");
  EXPECT_EQ(trim("   "), "");
}

TEST(StartsEndsWith, CaseInsensitive) {
  EXPECT_TRUE(istarts_with("/dns-query/extra", "/dns-query"));
  EXPECT_FALSE(istarts_with("/dns", "/dns-query"));
  EXPECT_TRUE(iends_with("www.Example.COM", ".example.com"));
  EXPECT_FALSE(iends_with("example.com", ".example.org"));
}

}  // namespace
}  // namespace encdns::util
