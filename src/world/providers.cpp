#include "world/providers.hpp"

#include <algorithm>
#include <cstdio>
#include <unordered_map>
#include <unordered_set>

#include "util/rng.hpp"
#include "util/strings.hpp"

namespace encdns::world {
namespace {

// ---------------------------------------------------------------------------
// Address space: /16 prefixes per hosting country. The union of all prefixes
// is the routable (scannable) space of the simulated internet.
// ---------------------------------------------------------------------------

const std::unordered_map<std::string, std::vector<std::string>>& country_prefixes() {
  static const std::unordered_map<std::string, std::vector<std::string>> map = {
      {"IE", {"185.228.0.0/16", "52.16.0.0/16"}},
      {"US",
       {"45.90.0.0/16", "149.112.0.0/16", "66.70.0.0/16", "198.251.0.0/16",
        "64.6.0.0/16", "156.154.0.0/16", "199.85.0.0/16", "208.67.0.0/16"}},
      {"CN", {"103.247.0.0/16", "119.29.0.0/16", "223.5.0.0/16"}},
      {"DE", {"116.203.0.0/16", "88.198.0.0/16", "185.56.0.0/16"}},
      {"FR", {"163.172.0.0/16", "51.15.0.0/16", "89.81.0.0/16"}},
      {"JP", {"133.242.0.0/16", "210.149.0.0/16"}},
      {"NL", {"94.142.0.0/16", "37.97.0.0/16"}},
      {"GB", {"185.107.0.0/16", "77.68.0.0/16"}},
      {"BR", {"177.133.0.0/16", "186.202.0.0/16"}},
      {"RU", {"5.18.0.0/16", "95.213.0.0/16", "77.88.0.0/16"}},
      {"CH", {"185.95.0.0/16"}},
      {"SE", {"46.246.0.0/16"}},
      {"AU", {"103.73.0.0/16"}},
      {"CA", {"158.69.0.0/16"}},
      {"SG", {"128.199.0.0/16"}},
      {"HK", {"118.193.0.0/16"}},
      {"IN", {"139.59.0.0/16"}},
      {"PL", {"51.68.0.0/16"}},
      {"AT", {"91.143.0.0/16"}},
      {"CZ", {"185.43.0.0/16"}},
      {"IT", {"94.177.0.0/16"}},
      {"ES", {"185.93.0.0/16"}},
      {"FI", {"95.216.0.0/16"}},
      {"NO", {"185.125.0.0/16"}},
      {"DK", {"89.221.0.0/16"}},
      {"RO", {"89.33.0.0/16"}},
      {"UA", {"176.103.0.0/16"}},
      {"TW", {"101.101.0.0/16"}},
      {"KR", {"115.68.0.0/16"}},
      {"ZA", {"154.65.0.0/16"}},
      {"MX", {"189.206.0.0/16"}},
      {"AR", {"190.210.0.0/16"}},
      {"TR", {"185.84.0.0/16"}},
      {"ID", {"103.28.0.0/16"}},
      {"TH", {"103.86.0.0/16"}},
      {"VN", {"103.92.0.0/16"}},
      {"MY", {"60.48.0.0/16"}},
      {"NZ", {"103.106.0.0/16"}},
      {"PT", {"94.46.0.0/16"}},
      {"GR", {"185.4.0.0/16"}},
      {"IL", {"185.191.0.0/16"}},
      {"AE", {"185.93.0.0/16"}},
      {"CL", {"190.210.0.0/16"}},
      {"BE", {"185.232.0.0/16"}},
  };
  return map;
}

const std::vector<std::string>& special_prefixes() {
  static const std::vector<std::string> list = {
      "1.0.0.0/16",     // Cloudflare secondary
      "1.1.0.0/16",     // Cloudflare primary
      "8.8.0.0/16",     // Google public DNS
      "9.9.0.0/16",     // Quad9
      "104.16.0.0/16",  // Cloudflare DoH
      "216.58.0.0/16",  // Google DoH
      "146.112.0.0/16", // OpenDNS block
  };
  return list;
}

// ---------------------------------------------------------------------------
// Generation bookkeeping
// ---------------------------------------------------------------------------

struct Allocator {
  std::unordered_set<std::uint32_t> used;
  util::Rng rng{0};

  util::Ipv4 take(const std::string& country, std::uint64_t salt) {
    const auto it = country_prefixes().find(country);
    const auto& prefixes =
        it != country_prefixes().end() ? it->second : country_prefixes().at("US");
    for (std::uint32_t attempt = 0;; ++attempt) {
      const std::uint64_t h = util::mix64(salt * 0x9E37 + attempt * 2654435761ULL +
                                          util::fnv1a(country));
      const auto& prefix_text = prefixes[h % prefixes.size()];
      const auto prefix = util::Cidr::parse(prefix_text);
      const std::uint32_t host = 1 + static_cast<std::uint32_t>((h >> 16) % 65533);
      const util::Ipv4 addr = prefix->at(host);
      if (used.insert(addr.value()).second) return addr;
    }
  }

  bool reserve(util::Ipv4 addr) { return used.insert(addr.value()).second; }
};

constexpr util::Date kFeb1{2019, 2, 1};
constexpr util::Date kMay1{2019, 5, 1};
constexpr util::Date kAlwaysFrom{2017, 1, 1};
constexpr util::Date kAlwaysTo{2100, 1, 1};

/// A date strictly inside the scan window, for activations/deactivations.
util::Date mid_window(util::Rng& rng) {
  return kFeb1.plus_days(rng.range(8, 82));
}

struct ProviderPlan {
  std::string provider;
  std::string cert_cn;  // defaults to provider when empty
  CertKind kind = CertKind::kValid;
  util::Date cert_expiry{2019, 12, 1};
  std::string country = "US";
  int count_feb = 1;
  int count_may = 1;
  bool in_public_list = false;
  bool fixed_answer = false;
  bool is_large = false;
  bool is_dot_proxy = false;
  std::vector<util::Ipv4> literal_addresses;  // assigned first
};

void expand_plan(const ProviderPlan& plan, Allocator& alloc, util::Rng& rng,
                 std::vector<DotDeployment>& out) {
  const int peak = std::max(plan.count_feb, plan.count_may);
  for (int i = 0; i < peak; ++i) {
    DotDeployment d;
    d.provider = plan.provider;
    d.cert_cn = plan.cert_cn.empty() ? plan.provider : plan.cert_cn;
    d.cert_kind = plan.kind;
    d.cert_expiry = plan.cert_expiry;
    d.country = plan.country;
    d.in_public_list = plan.in_public_list;
    d.fixed_answer = plan.fixed_answer;
    d.is_large_provider = plan.is_large;
    d.is_dot_proxy = plan.is_dot_proxy;
    if (i < static_cast<int>(plan.literal_addresses.size())) {
      d.address = plan.literal_addresses[static_cast<std::size_t>(i)];
      alloc.reserve(d.address);
    } else {
      d.address = alloc.take(plan.country, util::fnv1a(plan.provider) + 131u *
                                               static_cast<unsigned>(i));
    }
    d.active_from = kAlwaysFrom;
    d.active_to = kAlwaysTo;
    if (plan.count_may > plan.count_feb && i >= plan.count_feb) {
      d.active_from = mid_window(rng);  // growth: new addresses appear mid-window
    } else if (plan.count_feb > plan.count_may && i >= plan.count_may) {
      d.active_to = mid_window(rng);  // shrink: addresses retire mid-window
    }
    out.push_back(std::move(d));
  }
}

std::string small_provider_name(const std::string& country, int index,
                                util::Rng& rng) {
  static constexpr const char* kHeads[] = {"dot",    "dns",   "secure", "privacy",
                                           "shield", "safe",  "quiet",  "cipher",
                                           "tls",    "trust", "vault",  "stealth"};
  static constexpr const char* kTails[] = {"dns",  "resolver", "zone", "cloud",
                                           "host", "net",      "box",  "relay"};
  static constexpr const char* kTlds[] = {"com", "net", "org", "io", "me", "dog"};
  char buf[96];
  std::snprintf(buf, sizeof(buf), "%s%s-%s%d.%s",
                kHeads[rng.below(std::size(kHeads))],
                kTails[rng.below(std::size(kTails))], country.c_str(), index,
                kTlds[rng.below(std::size(kTlds))]);
  return util::to_lower(buf);
}

/// Remaining invalid-certificate budget, spent while filling country quotas.
/// Calibrated to Finding 1.2's May-1 snapshot: 122 invalid resolvers across
/// 62 providers — 27 expired (9 back in 2018), 67 self-signed (47 of them
/// FortiGate defaults + 2 Perfect Privacy), 28 untrusted chains.
struct DefectBudget {
  int expired_2018 = 2;    // singles; featured providers cover the other 7
  int expired_recent = 18;
  int self_signed = 18;
  int bad_chain = 28;

  /// Try to spend `size` addresses from one pool; returns the kind used.
  std::optional<std::pair<CertKind, util::Date>> draw(int size, util::Rng& rng) {
    struct Pool {
      int* left;
      CertKind kind;
      util::Date expiry;
    };
    Pool pools[] = {
        {&expired_2018, CertKind::kExpiredLong, util::Date{2018, 9, 3}},
        {&expired_recent, CertKind::kExpired, util::Date{2019, 3, 12}},
        {&self_signed, CertKind::kSelfSigned, util::Date{2020, 1, 1}},
        {&bad_chain, CertKind::kBadChain, util::Date{2020, 6, 1}},
    };
    std::vector<double> weights;
    for (const auto& pool : pools)
      weights.push_back(*pool.left >= size ? static_cast<double>(*pool.left) : 0.0);
    double total = 0;
    for (double w : weights) total += w;
    if (total <= 0) return std::nullopt;
    auto& chosen = pools[rng.weighted(weights)];
    *chosen.left -= size;
    return std::make_pair(chosen.kind, chosen.expiry);
  }

  [[nodiscard]] int total() const {
    return expired_2018 + expired_recent + self_signed + bad_chain;
  }
};

/// Fill a country's address quota with a provider mix: mostly single-address
/// operators (Figure 4: ~70% of providers run one address), the rest
/// mid-sized multi-address deployments. Growth/shrink between the Feb 1 and
/// May 1 scans is expressed via per-address activation windows. A slice of
/// the providers draws invalid certificates from the shared defect budget.
void fill_country(const std::string& country, int feb, int may, Allocator& alloc,
                  util::Rng& rng, DefectBudget& defects,
                  std::vector<DotDeployment>& out) {
  const int peak = std::max(feb, may);
  std::vector<DotDeployment> batch;
  int produced = 0;
  int provider_index = 0;
  while (produced < peak) {
    int size = 1;
    if (!rng.chance(0.68)) {
      size = 2 + static_cast<int>(std::min(rng.pareto(2.0, 1.5), 25.0));
    }
    size = std::min(size, peak - produced);

    const std::string name = small_provider_name(country, provider_index++, rng);
    CertKind kind = CertKind::kValid;
    util::Date expiry{2019, 12, 1};
    // Spend the defect budget on small (1-2 address) operators — the paper's
    // invalid-certificate population averages ~2 resolvers per provider.
    if (size <= 2 && defects.total() > 0 && rng.chance(0.30)) {
      if (const auto drawn = defects.draw(size, rng)) {
        kind = drawn->first;
        expiry = drawn->second;
      }
    }
    for (int i = 0; i < size; ++i) {
      DotDeployment d;
      d.provider = name;
      d.cert_cn = name;
      d.cert_kind = kind;
      d.cert_expiry = expiry;
      d.country = country;
      d.in_public_list = rng.chance(0.03);
      d.address = alloc.take(country, util::fnv1a(name) + 977u *
                                          static_cast<unsigned>(i));
      batch.push_back(std::move(d));
    }
    produced += size;
  }

  // Express the Feb->May delta through activation windows on a random
  // subset of addresses.
  rng.shuffle(batch);
  if (may > feb) {
    for (int i = 0; i < may - feb && i < static_cast<int>(batch.size()); ++i)
      batch[static_cast<std::size_t>(i)].active_from = mid_window(rng);
  } else if (feb > may) {
    for (int i = 0; i < feb - may && i < static_cast<int>(batch.size()); ++i)
      batch[static_cast<std::size_t>(i)].active_to = mid_window(rng);
  }
  for (auto& d : batch) out.push_back(std::move(d));
}

}  // namespace

std::string to_string(CertKind kind) {
  switch (kind) {
    case CertKind::kValid: return "valid";
    case CertKind::kSelfSigned: return "self-signed";
    case CertKind::kFortigateDefault: return "fortigate-default";
    case CertKind::kExpired: return "expired";
    case CertKind::kExpiredLong: return "expired-2018";
    case CertKind::kBadChain: return "bad-chain";
  }
  return "?";
}

const std::vector<std::string>& routable_prefixes() {
  static const std::vector<std::string> all = [] {
    std::vector<std::string> list = special_prefixes();
    for (const auto& [country, prefixes] : country_prefixes())
      for (const auto& p : prefixes) list.push_back(p);
    std::sort(list.begin(), list.end());
    list.erase(std::unique(list.begin(), list.end()), list.end());
    return list;
  }();
  return all;
}

util::Ipv4 address_in_country(const std::string& country, std::uint64_t salt,
                              std::uint32_t index) {
  const auto it = country_prefixes().find(country);
  const auto& prefixes =
      it != country_prefixes().end() ? it->second : country_prefixes().at("US");
  const std::uint64_t h = util::mix64(salt + 0x51ED5EEDULL * index);
  const auto prefix = util::Cidr::parse(prefixes[h % prefixes.size()]);
  return prefix->at(1 + static_cast<std::uint32_t>((h >> 16) % 65533));
}

Deployments make_deployments(std::uint64_t seed) {
  Deployments result;
  util::Rng rng(util::mix64(seed ^ 0xDEB707ULL));
  Allocator alloc;
  alloc.rng = rng.fork(1);

  // --- Featured DoT providers -------------------------------------------------
  std::vector<ProviderPlan> plans;

  {  // Cloudflare: anycast primaries + unadvertised extras.
    ProviderPlan p;
    p.provider = "cloudflare-dns.com";
    p.kind = CertKind::kValid;
    p.country = "US";
    p.count_feb = 20;
    p.count_may = 26;
    p.in_public_list = true;
    p.is_large = true;
    p.literal_addresses = {addrs::kCloudflarePrimary, addrs::kCloudflareSecondary,
                           util::Ipv4{89, 81, 172, 185}};
    plans.push_back(p);
  }
  {  // Quad9.
    ProviderPlan p;
    p.provider = "quad9.net";
    p.cert_cn = "dns.quad9.net";
    p.country = "US";
    p.count_feb = 10;
    p.count_may = 42;
    p.in_public_list = true;
    p.is_large = true;
    p.literal_addresses = {addrs::kQuad9Primary, util::Ipv4{149, 112, 112, 112}};
    plans.push_back(p);
  }
  {  // CleanBrowsing: the Ireland block driving Table 2's IE counts.
    ProviderPlan p;
    p.provider = "cleanbrowsing.org";
    p.country = "IE";
    p.count_feb = 440;
    p.count_may = 930;
    p.in_public_list = true;
    p.is_large = true;
    p.literal_addresses = {util::Ipv4{185, 228, 168, 9}};
    plans.push_back(p);
  }
  {  // The Chinese cloud platform that shut its resolvers down (-84% CN).
    ProviderPlan p;
    p.provider = "yunbaodns.cn";
    p.country = "CN";
    p.count_feb = 240;
    p.count_may = 20;
    p.is_large = true;
    plans.push_back(p);
  }
  {  // US growth providers (+431% US).
    ProviderPlan p;
    p.provider = "privacyfirst-dns.com";
    p.country = "US";
    p.count_feb = 40;
    p.count_may = 320;
    p.is_large = true;
    plans.push_back(p);
    ProviderPlan q;
    q.provider = "dnsforge-us.net";
    q.country = "US";
    q.count_feb = 10;
    q.count_may = 130;
    q.is_large = true;
    plans.push_back(q);
  }
  {  // Perfect Privacy: the large provider running self-signed certificates.
    ProviderPlan p;
    p.provider = "perfect-privacy.com";
    p.kind = CertKind::kSelfSigned;
    p.country = "DE";
    p.count_feb = 2;
    p.count_may = 2;
    p.in_public_list = true;
    p.is_large = true;
    plans.push_back(p);
  }
  {  // dnsfilter: answers every query with one fixed address for
     // non-subscribers (§3.2 validation finding).
    ProviderPlan p;
    p.provider = "dnsfilter.com";
    p.country = "US";
    p.count_feb = 6;
    p.count_may = 6;
    p.fixed_answer = true;
    p.literal_addresses = {util::Ipv4{103, 247, 37, 37}};
    plans.push_back(p);
  }
  {  // Known public-list members.
    ProviderPlan p;
    p.provider = "adguard.com";
    p.country = "RU";
    p.count_feb = 4;
    p.count_may = 6;
    p.in_public_list = true;
    plans.push_back(p);
    ProviderPlan q;
    q.provider = "securedns.eu";
    q.country = "NL";
    q.count_feb = 2;
    q.count_may = 2;
    q.in_public_list = true;
    plans.push_back(q);
    ProviderPlan r;
    r.provider = "blahdns.com";
    r.country = "DE";
    r.count_feb = 2;
    r.count_may = 2;
    r.in_public_list = true;
    plans.push_back(r);
    ProviderPlan s;
    s.provider = "appliedprivacy.net";
    s.country = "AT";
    s.count_feb = 1;
    s.count_may = 1;
    s.in_public_list = true;
    plans.push_back(s);
    ProviderPlan t;
    t.provider = "digitale-gesellschaft.ch";
    t.country = "CH";
    t.count_feb = 2;
    t.count_may = 2;
    t.in_public_list = true;
    plans.push_back(t);
    ProviderPlan u;
    u.provider = "qq.dog";
    u.cert_cn = "dot.qq.dog";
    u.country = "DE";
    plans.push_back(u);
    ProviderPlan v;
    v.provider = "securedns.zone";
    v.country = "CZ";
    plans.push_back(v);
  }

  // --- Featured providers with expired certificates (Finding 1.2) ------------
  {
    // legacy-dns.jp: out of maintenance since mid-2018.
    ProviderPlan p;
    p.provider = "legacy-dns.jp";
    p.kind = CertKind::kExpiredLong;
    p.cert_expiry = util::Date{2018, 7, 15};
    p.country = "JP";
    p.count_feb = 4;
    p.count_may = 4;
    plans.push_back(p);
  }
  {
    // park-dns.de includes the paper's example 185.56.24.52 (expired Jul 2018).
    ProviderPlan p;
    p.provider = "park-dns.de";
    p.kind = CertKind::kExpiredLong;
    p.cert_expiry = util::Date{2018, 7, 1};
    p.country = "DE";
    p.count_feb = 3;
    p.count_may = 3;
    p.literal_addresses = {util::Ipv4{185, 56, 24, 52}};
    plans.push_back(p);
  }

  // --- FortiGate DoT proxies: 47 devices at May 1, each its own "provider".
  {
    const struct {
      const char* country;
      int feb;
      int may;
    } fgt[] = {{"DE", 6, 12}, {"JP", 6, 8}, {"FR", 6, 8}, {"GB", 4, 6},
               {"BR", 3, 5},  {"NL", 2, 4}, {"RU", 1, 4}};
    int serial = 4400;
    for (const auto& row : fgt) {
      for (int i = 0; i < row.may; ++i) {
        ProviderPlan p;
        char name[48];
        std::snprintf(name, sizeof(name), "FGT60E%d.local", serial++);
        p.provider = name;
        p.cert_cn = "FortiGate";
        p.kind = CertKind::kFortigateDefault;
        p.country = row.country;
        p.count_feb = i < row.feb ? 1 : 0;
        p.count_may = 1;
        p.is_dot_proxy = true;
        plans.push_back(p);
      }
    }
  }

  for (const auto& plan : plans) {
    if (plan.count_feb == 0) {
      // Activates during the window.
      auto copy = plan;
      copy.count_feb = copy.count_may;
      std::vector<DotDeployment> tmp;
      expand_plan(copy, alloc, rng, tmp);
      for (auto& d : tmp) d.active_from = mid_window(rng);
      for (auto& d : tmp) result.dot.push_back(std::move(d));
    } else {
      expand_plan(plan, alloc, rng, result.dot);
    }
  }

  // --- Per-country fills (Table 2 quotas minus the featured providers) -------
  DefectBudget defects;
  fill_country("IE", 16, 21, alloc, rng, defects, result.dot);
  fill_country("CN", 17, 20, alloc, rng, defects, result.dot);
  fill_country("US", 14, 7, alloc, rng, defects, result.dot);
  fill_country("DE", 57, 66, alloc, rng, defects, result.dot);
  fill_country("FR", 53, 48, alloc, rng, defects, result.dot);
  fill_country("JP", 24, 15, alloc, rng, defects, result.dot);
  fill_country("NL", 26, 30, alloc, rng, defects, result.dot);
  fill_country("GB", 21, 15, alloc, rng, defects, result.dot);
  fill_country("BR", 19, 44, alloc, rng, defects, result.dot);
  fill_country("RU", 12, 30, alloc, rng, defects, result.dot);
  // The long tail outside the top-10 countries (roughly constant).
  const struct {
    const char* country;
    int count;
  } rest[] = {{"CA", 25}, {"AU", 22}, {"SG", 20}, {"CH", 18}, {"SE", 16},
              {"IN", 15}, {"HK", 14}, {"PL", 14}, {"CZ", 12}, {"IT", 12},
              {"ES", 11}, {"FI", 10}, {"NO", 9},  {"DK", 9},  {"AT", 9},
              {"RO", 9},  {"UA", 9},  {"TW", 8},  {"KR", 8},  {"ZA", 7},
              {"MX", 7},  {"AR", 7},  {"TR", 7},  {"ID", 7},  {"TH", 6},
              {"VN", 6},  {"MY", 6},  {"NZ", 5},  {"PT", 5},  {"GR", 5},
              {"IL", 5},  {"AE", 4},  {"CL", 4},  {"BE", 8}};
  for (const auto& row : rest)
    fill_country(row.country, row.count, row.count, alloc, rng, defects,
                 result.dot);

  // --- DoH deployments (17 public resolvers; 15 in lists + 2 beyond) ---------
  const auto doh = [&](const char* provider, const char* tmpl,
                       std::vector<util::Ipv4> addresses, const char* country,
                       bool in_list, bool forwarding, bool anycast) {
    DohDeployment d;
    d.provider = provider;
    d.uri_template = tmpl;
    d.addresses = std::move(addresses);
    d.pop_country = country;
    d.in_public_list = in_list;
    d.forwarding_frontend = forwarding;
    d.anycast = anycast;
    result.doh.push_back(std::move(d));
  };
  doh("cloudflare", "https://mozilla.cloudflare-dns.com/dns-query{?dns}",
      {addrs::kCloudflareDohA}, "US", true, false, true);
  doh("cloudflare", "https://cloudflare-dns.com/dns-query{?dns}",
      {addrs::kCloudflareDohB}, "US", true, false, true);
  doh("google", "https://dns.google.com/resolve{?dns}",
      {addrs::kGoogleDohA, addrs::kGoogleDohB}, "US", true, false, true);
  doh("quad9", "https://dns.quad9.net/dns-query{?dns}", {addrs::kQuad9Primary},
      "US", true, true, true);
  doh("cleanbrowsing", "https://doh.cleanbrowsing.org/doh/family-filter{?dns}",
      {util::Ipv4{185, 228, 168, 10}}, "IE", true, false, false);
  doh("crypto.sx", "https://doh.crypto.sx/dns-query{?dns}",
      {util::Ipv4{116, 203, 70, 70}}, "DE", true, false, false);
  doh("securedns.eu", "https://doh.securedns.eu/dns-query{?dns}",
      {util::Ipv4{146, 112, 41, 2}}, "NL", true, false, false);
  doh("commons.host", "https://commons.host/dns-query{?dns}",
      {util::Ipv4{149, 112, 28, 30}}, "US", true, false, false);
  doh("blahdns", "https://doh.blahdns.com/dns-query{?dns}",
      {util::Ipv4{116, 203, 81, 4}}, "DE", true, false, false);
  doh("dnsoverhttps.net", "https://dns.dnsoverhttps.net/dns-query{?dns}",
      {util::Ipv4{66, 70, 228, 164}}, "US", true, false, false);
  doh("doh.li", "https://doh.li/dns-query{?dns}", {util::Ipv4{77, 68, 45, 12}},
      "GB", true, false, false);
  doh("dns-over-https.com", "https://dns.dns-over-https.com/dns-query{?dns}",
      {util::Ipv4{198, 251, 90, 114}}, "US", true, false, false);
  doh("appliedprivacy", "https://doh.appliedprivacy.net/dns-query{?dns}",
      {util::Ipv4{91, 143, 80, 169}}, "AT", true, false, false);
  doh("containerpi", "https://dns.containerpi.com/dns-query{?dns}",
      {util::Ipv4{133, 242, 146, 73}}, "JP", true, false, false);
  doh("captnemo", "https://doh.captnemo.in/dns-query{?dns}",
      {util::Ipv4{139, 59, 48, 222}}, "IN", true, false, false);
  // Beyond the public lists (discovered only via the URL dataset).
  doh("rubyfish", "https://dns.rubyfish.cn/dns-query{?dns}",
      {util::Ipv4{119, 29, 107, 85}}, "CN", false, false, false);
  doh("233py", "https://dns.233py.com/dns-query{?dns}",
      {util::Ipv4{223, 5, 102, 22}}, "CN", false, false, false);

  return result;
}

}  // namespace encdns::world
