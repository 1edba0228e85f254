// DoH discovery from a URL dataset (§3.1): filter crawled URLs by the
// well-known DoH path templates, then probe each candidate with a genuine
// RFC 8484 GET and keep the endpoints that answer correctly.
#pragma once

#include <string>
#include <vector>

#include "client/doh.hpp"
#include "fault/retry.hpp"
#include "world/world.hpp"

namespace encdns::scan {

/// Path prefixes that point at DoH services (RFC 8484 + large-resolver
/// conventions; Figure 2 of the paper shows /dns-query and /resolve).
[[nodiscard]] const std::vector<std::string>& known_doh_paths();

struct DohCandidate {
  std::string url;        // as found in the dataset
  std::string host;
  std::string path;
  bool probe_ok = false;  // answered a DoH query correctly
  bool cert_valid = false;
  int http_status = 0;

  static void fields(auto& self, auto&& visit) {
    visit(self.url, self.host, self.path, self.probe_ok, self.cert_valid,
          self.http_status);
  }
};

struct DiscoveredDoh {
  std::string uri_template;  // normalized https://host/path{?dns}
  std::string host;
  std::string path;
  bool cert_valid = false;
  bool in_public_list = false;  // filled by the caller against a list

  static void fields(auto& self, auto&& visit) {
    visit(self.uri_template, self.host, self.path, self.cert_valid,
          self.in_public_list);
  }
};

struct DohDiscovery {
  std::size_t urls_in_dataset = 0;
  std::size_t path_candidates = 0;  // URLs matching known DoH paths
  std::size_t valid_urls = 0;       // candidates that answered DoH correctly
  std::vector<DohCandidate> candidates;
  std::vector<DiscoveredDoh> resolvers;  // deduplicated by (host, path)
  /// Retry accounting for the candidate probes (transient failures only).
  fault::LayerTally faults;

  static void fields(auto& self, auto&& visit) {
    visit(self.urls_in_dataset, self.path_candidates, self.valid_urls,
          self.faults, self.candidates, self.resolvers);
  }
};

class DohProber {
 public:
  DohProber(const world::World& world, world::Vantage origin, std::uint64_t seed,
            int attempts = 3)
      : world_(&world),
        origin_(std::move(origin)),
        client_(world.network(), origin_.context, seed),
        rng_(util::mix64(seed ^ 0xD0417ULL)),
        attempts_(attempts < 1 ? 1 : attempts) {}

  /// Run discovery over the full URL dataset at `date`.
  [[nodiscard]] DohDiscovery discover(const std::vector<std::string>& urls,
                                      const util::Date& date);

 private:
  const world::World* world_;
  world::Vantage origin_;
  client::DohClient client_;
  util::Rng rng_;
  int attempts_;
};

}  // namespace encdns::scan
