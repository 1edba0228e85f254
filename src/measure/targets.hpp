// The public resolvers under test (Figure 7's list): Cloudflare, Google,
// Quad9 and the study's self-built control resolver.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "util/ipv4.hpp"
#include "world/world.hpp"

namespace encdns::measure {

enum class Protocol { kDo53, kDoT, kDoH };

/// The last Protocol, which bounds its journal byte (util/fields.hpp).
[[nodiscard]] constexpr Protocol last_enumerator(Protocol) noexcept {
  return Protocol::kDoH;
}

[[nodiscard]] std::string to_string(Protocol protocol);

struct ResolverTarget {
  std::string name;
  util::Ipv4 do53_address;                  // primary clear-text address
  std::optional<util::Ipv4> dot_address;    // usually the same primary
  std::optional<std::string> doh_template;  // RFC 8484 URI template
  std::string dot_auth_name;                // ADN, recorded with certificates
};

/// The four targets of the reachability/performance tests.
[[nodiscard]] std::vector<ResolverTarget> default_targets();

/// Ports probed on unreachable 1.1.1.1 destinations (Figure 7 / Table 5).
[[nodiscard]] const std::vector<std::uint16_t>& diagnostic_ports();

}  // namespace encdns::measure
