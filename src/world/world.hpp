// The assembled simulated internet for the whole study.
//
// World owns the Network (bindings for every deployment in the catalogue,
// plus conflicting devices, censors, filters, interceptors on client paths),
// the authoritative universe (probe zone + DoH bootstrap zones), the URL
// dataset, and vantage-point sampling for the two proxy platforms.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "fault/fault.hpp"
#include "net/network.hpp"
#include "resolver/recursive.hpp"
#include "resolver/services.hpp"
#include "resolver/universe.hpp"
#include "util/ipv4.hpp"
#include "util/rng.hpp"
#include "world/countries.hpp"
#include "world/middleboxes.hpp"
#include "world/providers.hpp"

namespace encdns::world {

/// The unique probe label for one rng draw: 'p' and the value as 16
/// zero-padded lowercase hex digits (printf's "p%016llx"), 17 characters.
[[nodiscard]] std::array<char, 17> probe_label(std::uint64_t value) noexcept;

struct WorldConfig {
  std::uint64_t seed = 2019;

  /// Fraction of the routable space with TCP/853 open but no DoT service
  /// (§3.2: millions of such hosts on the real internet; scaled here).
  double background_open853_density = 0.008;

  /// Global-platform client path probabilities.
  double conflict_rate = 0.011;        // device/blackhole on 1.1.1.1
  double conflict_blackhole_share = 0.55;  // of conflicts: silent (Table 5 "None")
  double intercept_rate = 17.0 / 29622.0;  // TLS interception
  double spoofer_rate = 0.0009;            // forged port-53 answers
  /// Baseline port-53 filtering outside the hotspot countries.
  double port53_base_rate = 0.045;

  /// Censored-platform (CN) specifics.
  double cn_cf_blackhole_rate = 0.151;  // 1.1.1.1 blackholed in-AS
  double cn_port53_rate = 0.011;        // mild filtering toward 8.8.8.8

  /// Extra tail probability on the study's own probe zone (modest
  /// authoritative deployment) — drives the Quad9 DoH SERVFAIL rate.
  double probe_zone_tail = 0.03;

  /// Loss rate on Quad9's internal DoH->Do53 forwarding hop ("busy
  /// networks", per Quad9's response to the disclosure).
  double quad9_forward_loss = 0.30;

  /// Per-(client, resolver, protocol) probability that the vantage point is
  /// persistently unusable (flaky NAT/firewall, dying exit node) — the
  /// sub-percent failure floor visible on every resolver in Table 4.
  double flaky_client_rate = 0.0015;

  /// Quad9's DoH frontend forwarding timeout (the Finding 2.4 defect).
  sim::Millis quad9_forward_timeout{2000.0};

  /// Non-DoH noise URLs in the crawler dataset.
  std::size_t url_noise_count = 20000;

  /// ISP local resolvers created for the §3.1 local-resolver DoT test.
  std::size_t local_resolver_count = 220;
  double local_resolver_dot_rate = 0.004;

  /// Transient-fault injection profile (DESIGN.md §8). Off by default so
  /// baseline runs stay byte-identical; FaultProfile::canonical() turns on
  /// every fault class at calibrated rates. The ENCDNS_FAULTS environment
  /// variable ("canonical"/"off") overrides this at World construction.
  fault::FaultProfile fault_profile{};

  /// Recursive-resolver record cache knobs (DESIGN.md §10), applied to every
  /// backend built for the world's resolver services. ENCDNS_CACHE_*
  /// environment variables override these at backend construction.
  std::size_t resolver_cache_entries = 200000;
  /// RFC 2308 bounded negative TTL (seconds) for NXDOMAIN/NODATA entries.
  std::uint32_t resolver_negative_ttl_s = 900;
  /// RFC 8767 serve-stale: expired entries answer while the upstream
  /// recursion is failing (FaultProfile::upstream_fail). Off by default.
  bool resolver_serve_stale = false;
};

/// One recruited vantage point, with simulation ground truth attached.
struct Vantage {
  net::ClientContext context;
  std::string country;
  std::uint32_t asn = 0;
  util::Ipv4 address;  // exit-node address (client identity)

  // Ground truth (what a real measurement would have to infer):
  bool conflict_1111 = false;
  std::string device_label;  // conflicting device, if any ("" = blackholed)
  bool port53_filtered = false;
  bool behind_spoofer = false;
  bool tls_intercepted = false;
  bool intercept_853 = false;
  std::string intercept_ca;
  bool cn_cf_blackholed = false;
};

/// An ISP-operated local resolver (not open to the public scan).
struct LocalResolver {
  util::Ipv4 address;
  std::string country;
  std::uint32_t asn = 0;
  bool dot_enabled = false;
};

/// A DNSCrypt service (Table 1's earliest protocol; OpenDNS since 2011,
/// Yandex since 2016).
struct DnscryptDeployment {
  std::string provider_name;  // "2.dnscrypt-cert.<provider>"
  util::Ipv4 address;
  std::string pop_country;
};

class World {
 public:
  explicit World(WorldConfig config = {});

  World(const World&) = delete;
  World& operator=(const World&) = delete;

  [[nodiscard]] const WorldConfig& config() const noexcept { return config_; }
  [[nodiscard]] const net::Network& network() const noexcept { return network_; }
  [[nodiscard]] resolver::AuthoritativeUniverse& universe() noexcept {
    return universe_;
  }
  [[nodiscard]] const Deployments& deployments() const noexcept {
    return deployments_;
  }

  /// The routable prefixes the §3 scanner sweeps.
  [[nodiscard]] const std::vector<util::Cidr>& scan_prefixes() const noexcept {
    return scan_prefixes_;
  }

  /// Whether a background (non-DoT) host has TCP/853 open at `date`.
  [[nodiscard]] bool background_open_853(util::Ipv4 addr, const util::Date& date) const;

  /// One bit per /16: set when a scan prefix starts in that /16 (8 KiB).
  using High16Bitmap = std::array<std::uint64_t, 65536 / 64>;

  /// Hoisted per-sweep form of background_open_853: the churn window, salts
  /// and density thresholds are resolved once per sweep instead of once per
  /// address, so the scan engine's closed-verdict hot path is one bitmap
  /// test plus one or two inline hash-and-compares. open() is bit-identical
  /// to calling background_open_853(addr, date) for the date the sweep was
  /// built with.
  class Background853Sweep {
   public:
    [[nodiscard]] bool open(util::Ipv4 addr) const noexcept {
      const std::uint32_t high16 = addr.value() >> 16;
      if (((*routable_)[high16 >> 6] >> (high16 & 63) & 1) == 0) return false;
      const std::uint64_t h1 = util::mix64(addr.value() ^ stable_salt_);
      if (static_cast<double>(h1 % 1000000) < stable_threshold_) return true;
      const std::uint64_t h2 = util::mix64(addr.value() ^ churn_salt_);
      return static_cast<double>(h2 % 1000000) < churn_threshold_;
    }

   private:
    friend class World;
    const High16Bitmap* routable_ = nullptr;
    std::uint64_t stable_salt_ = 0;
    std::uint64_t churn_salt_ = 0;
    double stable_threshold_ = 0.0;
    double churn_threshold_ = 0.0;
  };
  [[nodiscard]] Background853Sweep background_sweep_853(
      const util::Date& date) const;

  // --- vantage sampling ------------------------------------------------------

  /// A residential client on the global platform (country-weighted).
  [[nodiscard]] Vantage sample_global_vantage(util::Rng& rng) const;

  /// A client on the censored (CN-only) platform.
  [[nodiscard]] Vantage sample_cn_vantage(util::Rng& rng) const;

  /// A clean, well-connected vantage (scan origins, controlled machines).
  [[nodiscard]] Vantage make_clean_vantage(std::string_view country) const;

  // --- study infrastructure ---------------------------------------------------

  [[nodiscard]] const dns::Name& probe_apex() const noexcept { return probe_apex_; }
  [[nodiscard]] util::Ipv4 probe_answer() const noexcept { return probe_answer_; }

  /// A uniquely prefixed name under the probe zone (defeats caching, §4.1):
  /// `probe_label(rng.next())`.<probe apex>.
  [[nodiscard]] dns::Name unique_probe_name(util::Rng& rng) const;

  /// Slot-reusing twin of `unique_probe_name` (DESIGN.md §12): same single
  /// rng draw, but rebuilds `out` in place reusing its buffer, so a warmed
  /// scratch name costs no allocations per probe.
  void unique_probe_name_into(util::Rng& rng, dns::Name& out) const;

  /// Country's ISP recursive resolver (bootstrap for DoH hostnames).
  [[nodiscard]] util::Ipv4 bootstrap_resolver(const std::string& country) const;

  /// The industrial partner's URL dataset (§3.1 DoH discovery input).
  [[nodiscard]] const std::vector<std::string>& url_dataset() const noexcept {
    return urls_;
  }

  /// ISP local resolvers for the §3.1 RIPE-Atlas-style probe.
  [[nodiscard]] const std::vector<LocalResolver>& local_resolvers() const noexcept {
    return local_resolvers_;
  }

  /// DNSCrypt services operating in the world (extension of the §2 survey).
  [[nodiscard]] const std::vector<DnscryptDeployment>& dnscrypt_deployments()
      const noexcept {
    return dnscrypt_;
  }

  /// The self-built resolver's experimental DNS-over-QUIC endpoint (the
  /// protocol Table 1 lists as having no deployments — prototyped here).
  [[nodiscard]] util::Ipv4 doq_address() const noexcept { return doq_address_; }
  static constexpr const char* kDoqHostname = "doq.dnsmeasure.net";

  /// Per-country sampling weight on the global proxy platform (exposed for
  /// tests and the traffic generator).
  [[nodiscard]] double proxy_weight(const CountryInfo& info) const;

  /// Per-country probability that a client sits behind a port-53 filter.
  [[nodiscard]] double port53_rate(const std::string& country) const;

  /// The transient-fault injector wired into the network's transport
  /// primitives (disabled-profile injectors still exist, so counters read 0).
  [[nodiscard]] const fault::FaultInjector& fault_injector() const noexcept {
    return *fault_injector_;
  }

  /// Unhook the injector from the network entirely (benchmark ablations:
  /// measures the cost of the hook itself rather than of a disabled draw).
  void disable_fault_injection() noexcept { network_.set_fault_injector(nullptr); }

  /// Order-independent roll-up of every recursive backend's cache tallies
  /// (warm+record hits, misses, stale answers, upstream faults, evictions,
  /// live entries). Feeds Study::robustness_report's resolver layer and the
  /// thread-count-invariance acceptance tests.
  struct ResolverCacheTally {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t stale_served = 0;
    std::uint64_t upstream_faults = 0;
    std::uint64_t evictions = 0;
    std::uint64_t entries = 0;
  };
  [[nodiscard]] ResolverCacheTally resolver_cache_tally() const;

  /// Checkpoint export and merge of the recursive backends' record caches
  /// (DESIGN.md §13, §15), keyed by backend construction order — stable
  /// across processes for one config. Export only the entries the
  /// attribution token `owner` stored (a phase's obs::current_tally()
  /// pointer), and merge a capture additively instead of replacing — under
  /// phase overlap a record must carry and replay exactly its own phase's
  /// stores, nothing a concurrent phase wrote. merge throws
  /// std::runtime_error on a backend-count mismatch (foreign journal).
  [[nodiscard]] std::vector<std::vector<cache::ExportedEntry>>
  export_resolver_caches(const void* owner) const;
  void merge_resolver_caches(
      const std::vector<std::vector<cache::ExportedEntry>>& caches);

 private:
  WorldConfig config_;
  net::Network network_;
  std::unique_ptr<fault::FaultInjector> fault_injector_;
  resolver::AuthoritativeUniverse universe_;
  Deployments deployments_;
  std::vector<util::Cidr> scan_prefixes_;
  High16Bitmap routable_high16_{};  // /16s holding a scan prefix
  std::uint64_t background_salt_ = 0;

  dns::Name probe_apex_;
  util::Ipv4 probe_answer_{45, 90, 77, 99};

  // Owned path devices, shared across sampled vantages.
  std::unique_ptr<Port53FilterBox> port53_box_;
  std::unique_ptr<Port53FilterBox> cn_port53_box_;
  std::unique_ptr<Dns53SpooferBox> spoofer_box_;
  std::unique_ptr<CensorBox> censor_box_;
  std::unique_ptr<BlackholeBox> cf_blackhole_box_;
  std::vector<std::unique_ptr<AddressConflictBox>> conflict_boxes_;
  std::vector<double> conflict_weights_;  // aligned with conflict_boxes_
  std::vector<std::unique_ptr<TlsInterceptBox>> intercept_boxes_;

  std::unordered_map<std::string, util::Ipv4> bootstrap_;
  std::vector<std::shared_ptr<resolver::RecursiveBackend>> recursive_backends_;
  std::vector<LocalResolver> local_resolvers_;
  std::vector<DnscryptDeployment> dnscrypt_;
  util::Ipv4 doq_address_{45, 90, 77, 11};
  std::vector<std::string> urls_;

  // Sampling tables.
  std::vector<double> country_weights_;
  std::unordered_map<std::string, double> port53_rates_;

  /// All recursive backends are built here so the shared cache knobs and the
  /// fault injector are wired uniformly (and the tally above can see them).
  [[nodiscard]] std::shared_ptr<resolver::RecursiveBackend> make_backend(
      std::string label);

  void build_universe();
  void build_big_providers();
  void build_catalogue_services();
  void build_bootstrap_and_local();
  void build_dnscrypt();
  void build_middleboxes();
  void build_urls();

  [[nodiscard]] net::Location location_in(const CountryInfo& info, util::Rng& rng,
                                          std::uint32_t asn) const;
};

}  // namespace encdns::world
