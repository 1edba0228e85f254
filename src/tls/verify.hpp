// Certificate path validation, mirroring `openssl verify` semantics as used
// in §3.2 (path-only check for DoT, because resolver names are unknown) and
// the full hostname-checked validation a DoH client performs (§4.2).
#pragma once

#include <string>

#include "tls/certificate.hpp"
#include "tls/trust_store.hpp"
#include "util/date.hpp"

namespace encdns::tls {

enum class CertStatus {
  kValid,
  kEmptyChain,
  kExpired,         // leaf or intermediate outside validity window (past)
  kNotYetValid,     // validity window starts in the future
  kSelfSigned,      // single self-signed cert not present in the store
  kUntrustedChain,  // chain terminates at an unknown CA
  kBrokenSignature, // an element is not actually signed by its issuer
  kHostnameMismatch,
};

/// The last CertStatus, which bounds its journal byte (util/fields.hpp).
[[nodiscard]] constexpr CertStatus last_enumerator(CertStatus) noexcept {
  return CertStatus::kHostnameMismatch;
}

[[nodiscard]] std::string to_string(CertStatus status);

/// True for any status other than kValid.
[[nodiscard]] constexpr bool is_invalid(CertStatus status) noexcept {
  return status != CertStatus::kValid;
}

/// Path-only validation: chain integrity, validity dates, trust anchoring.
/// This is what the paper's scanner runs (it does not know DoT server names).
[[nodiscard]] CertStatus verify_path(const CertificateChain& chain,
                                     const TrustStore& store, const util::Date& now);

/// Full validation: path plus RFC 6125 hostname matching on the leaf. This is
/// what a Strict-profile DoT client or any DoH client performs.
[[nodiscard]] CertStatus verify_host(const CertificateChain& chain,
                                     const std::string& hostname,
                                     const TrustStore& store, const util::Date& now);

}  // namespace encdns::tls
