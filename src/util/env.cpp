#include "util/env.hpp"

#include <cerrno>
#include <cmath>
#include <cstdlib>

#include "util/strings.hpp"

namespace encdns::util {
namespace {

[[noreturn]] void fail(const char* name, const std::string& value,
                       const char* expected) {
  throw EnvError(std::string(name) + "=\"" + value +
                 "\" is invalid: expected " + expected);
}

}  // namespace

std::optional<std::string> env_string(const char* name) {
  const char* raw = std::getenv(name);
  if (raw == nullptr) return std::nullopt;
  return std::string(raw);
}

std::optional<long long> env_int(const char* name) {
  const auto raw = env_string(name);
  if (!raw) return std::nullopt;
  if (raw->empty()) fail(name, *raw, "a base-10 integer");
  errno = 0;
  char* end = nullptr;
  const long long value = std::strtoll(raw->c_str(), &end, 10);
  if (errno == ERANGE) fail(name, *raw, "an integer within 64-bit range");
  if (end == raw->c_str() || *end != '\0') fail(name, *raw, "a base-10 integer");
  return value;
}

std::optional<long long> env_positive_int(const char* name) {
  const auto value = env_int(name);
  if (value && *value <= 0) fail(name, std::to_string(*value), "an integer > 0");
  return value;
}

std::optional<double> env_double(const char* name) {
  const auto raw = env_string(name);
  if (!raw) return std::nullopt;
  if (raw->empty()) fail(name, *raw, "a finite decimal number");
  errno = 0;
  char* end = nullptr;
  const double value = std::strtod(raw->c_str(), &end);
  if (end == raw->c_str() || *end != '\0' || errno == ERANGE ||
      !std::isfinite(value))
    fail(name, *raw, "a finite decimal number");
  return value;
}

std::optional<bool> env_bool(const char* name) {
  const auto raw = env_string(name);
  if (!raw) return std::nullopt;
  const std::string value = to_lower(*raw);
  if (value == "on" || value == "true" || value == "1") return true;
  if (value == "off" || value == "false" || value == "0") return false;
  fail(name, *raw, "on/off, true/false or 1/0");
}

}  // namespace encdns::util
