#include <gtest/gtest.h>

#include <set>
#include <string>

#include "core/experiments.hpp"
#include "core/implementation_survey.hpp"
#include "core/protocol_matrix.hpp"
#include "core/study.hpp"
#include "core/timeline.hpp"
#include "fault/fault.hpp"

namespace encdns::core {
namespace {

TEST(ProtocolMatrix, TenCriteriaFiveCategories) {
  const ProtocolMatrix matrix;
  EXPECT_EQ(matrix.criteria().size(), 10u);
  std::set<std::string> categories;
  for (const auto& criterion : matrix.criteria())
    categories.insert(criterion.category);
  EXPECT_EQ(categories.size(), 5u);
  EXPECT_EQ(ProtocolMatrix::protocols().size(), 5u);
}

TEST(ProtocolMatrix, PaperJudgments) {
  const ProtocolMatrix matrix;
  const auto rating_of = [&](DoeProtocol protocol, const std::string& criterion) {
    for (std::size_t i = 0; i < matrix.criteria().size(); ++i)
      if (matrix.criteria()[i].name == criterion) return matrix.rating(protocol, i);
    ADD_FAILURE() << "no criterion " << criterion;
    return Rating::kNot;
  };
  // DoH embeds DNS in another application protocol; DoT does not.
  EXPECT_EQ(rating_of(DoeProtocol::kDoH, "Stays on the DNS application layer"),
            Rating::kNot);
  EXPECT_EQ(rating_of(DoeProtocol::kDoT, "Stays on the DNS application layer"),
            Rating::kSatisfying);
  // DoH has no fallback (strict-only); DoT's opportunistic profile does.
  EXPECT_EQ(rating_of(DoeProtocol::kDoH, "Provides fallback mechanism"),
            Rating::kNot);
  EXPECT_EQ(rating_of(DoeProtocol::kDoT, "Provides fallback mechanism"),
            Rating::kSatisfying);
  // DoH mixes with HTTPS and resists traffic analysis best.
  EXPECT_EQ(rating_of(DoeProtocol::kDoH, "Resists DNS traffic analysis"),
            Rating::kSatisfying);
  // DNSCrypt is not standard TLS and never standardized.
  EXPECT_EQ(rating_of(DoeProtocol::kDnsCrypt, "Uses standard TLS"), Rating::kNot);
  EXPECT_EQ(rating_of(DoeProtocol::kDnsCrypt, "Standardized by IETF"), Rating::kNot);
  // DoDTLS and DoQUIC have no deployments.
  EXPECT_EQ(rating_of(DoeProtocol::kDoDtls, "Extensively supported by resolvers"),
            Rating::kNot);
  EXPECT_EQ(rating_of(DoeProtocol::kDoQuic, "Extensively supported by resolvers"),
            Rating::kNot);
}

TEST(ProtocolMatrix, DotAndDohLeadOnDeployabilityAndMaturity) {
  // §2.2's conclusion: DoT and DoH are the two leading, mature protocols.
  // Compare on the Deployability + Maturity criteria specifically.
  const ProtocolMatrix matrix;
  const auto score = [&](DoeProtocol protocol) {
    int points = 0;
    for (std::size_t i = 0; i < matrix.criteria().size(); ++i) {
      const auto& category = matrix.criteria()[i].category;
      if (category != "Deployability" && category != "Maturity") continue;
      const auto rating = matrix.rating(protocol, i);
      points += rating == Rating::kSatisfying ? 2 : rating == Rating::kPartial ? 1 : 0;
    }
    return points;
  };
  for (const auto other :
       {DoeProtocol::kDoDtls, DoeProtocol::kDoQuic, DoeProtocol::kDnsCrypt}) {
    EXPECT_GT(score(DoeProtocol::kDoT), score(other));
    EXPECT_GT(score(DoeProtocol::kDoH), score(other));
  }
}

TEST(ProtocolMatrix, RationalesNonEmpty) {
  const ProtocolMatrix matrix;
  for (std::size_t i = 0; i < matrix.criteria().size(); ++i)
    for (const auto protocol : ProtocolMatrix::protocols())
      EXPECT_FALSE(matrix.rationale(protocol, i).empty());
}

TEST(Timeline, ChronologicalAndAnchored) {
  const auto& events = dns_privacy_timeline();
  ASSERT_GT(events.size(), 10u);
  for (std::size_t i = 1; i < events.size(); ++i)
    EXPECT_LE(events[i - 1].date, events[i].date);
  // Key anchors from Figure 1.
  const auto has = [&](int year, const char* needle) {
    for (const auto& event : events)
      if (event.date.year == year &&
          event.label.find(needle) != std::string::npos)
        return true;
    return false;
  };
  EXPECT_TRUE(has(2016, "7858"));   // DoT standardized 2016
  EXPECT_TRUE(has(2018, "8484"));   // DoH standardized 2018
  EXPECT_TRUE(has(2014, "DPRIVE"));
}

TEST(ImplementationSurvey, Table8Anchors) {
  const auto& rows = implementation_survey();
  const auto find = [&](const char* name) -> const Implementation* {
    for (const auto& row : rows)
      if (row.name == name) return &row;
    return nullptr;
  };
  const auto* cloudflare = find("Cloudflare");
  ASSERT_NE(cloudflare, nullptr);
  EXPECT_TRUE(cloudflare->dot);
  EXPECT_TRUE(cloudflare->doh);
  const auto* firefox = find("Firefox");
  ASSERT_NE(firefox, nullptr);
  EXPECT_TRUE(firefox->doh);
  EXPECT_FALSE(firefox->dot);
  const auto* android = find("Android");
  ASSERT_NE(android, nullptr);
  EXPECT_TRUE(android->dot);
  const auto* windows = find("Windows");
  ASSERT_NE(windows, nullptr);
  EXPECT_FALSE(windows->dot);  // no built-in support in 2019
}

TEST(ImplementationSurvey, DoeAdoptionOutpacesInSurvey) {
  // The appendix's observation: DoT/DoH support spread quickly among the
  // surveyed implementations.
  const auto totals = survey_totals();
  EXPECT_GT(totals.dot, 10);
  EXPECT_GT(totals.doh, 10);
  EXPECT_GT(totals.total, 35);
  EXPECT_GT(totals.dot, totals.dnscrypt);
}

TEST(Experiments, StaticTablesRender) {
  for (const auto& table :
       {experiment_table1(), experiment_figure1(), experiment_figure2(),
        experiment_table8()}) {
    EXPECT_FALSE(table.title().empty());
    EXPECT_GT(table.row_count(), 3u);
    EXPECT_FALSE(table.render().empty());
    EXPECT_FALSE(table.to_csv().empty());
  }
}

TEST(Experiments, Figure2UsesRealCodec) {
  const auto table = experiment_figure2();
  const std::string rendered = table.render();
  // The GET URL embeds a base64url dns parameter produced by the codec.
  EXPECT_NE(rendered.find("?dns="), std::string::npos);
  EXPECT_NE(rendered.find("application/dns-message"), std::string::npos);
}

TEST(Experiments, RegistryCoversPaper) {
  const auto& experiments = all_experiments();
  EXPECT_EQ(experiments.size(), 25u);
  std::set<std::string> ids;
  for (const auto& experiment : experiments) {
    EXPECT_FALSE(experiment.title.empty());
    EXPECT_TRUE(ids.insert(experiment.id).second);
  }
  // Every table (1-8) and every figure (1-13) of the paper has a runner.
  for (const char* id :
       {"table1", "table2", "table3", "table4", "table5", "table6", "table7",
        "table8", "fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7",
        "fig8", "fig9", "fig10", "fig11", "fig12", "fig13"})
    EXPECT_TRUE(ids.contains(id)) << id;
}

// Every row that sets a measured table against figures or claims from the
// paper carries that reference text, which encdns_study prints above the
// table. fig5, fig7 and fig8 (workflow diagrams) and fig11-trend (an
// extension) quote nothing.
TEST(Experiments, QuotedRowsCarryPaperReference) {
  const std::set<std::string> quoted = {
      "table1", "table2", "table3", "table4", "table5", "table6", "table7",
      "table8", "fig1", "fig2", "fig3", "fig4", "fig6", "fig9", "fig10",
      "fig11", "fig12", "fig13", "doh-discovery", "doh-scan", "local-probe"};
  std::size_t seen = 0;
  for (const auto& experiment : all_experiments()) {
    if (!quoted.contains(experiment.id)) continue;
    ++seen;
    EXPECT_FALSE(experiment.paper_reference.empty()) << experiment.id;
    for (const auto& line : experiment.paper_reference)
      EXPECT_FALSE(line.empty()) << experiment.id;
  }
  EXPECT_EQ(seen, quoted.size());
}

// Acceptance for the fault-injection stack (DESIGN.md §8): a quick study under
// the canonical profile must show every layer both absorbing faults (injected)
// and recovering from them (recovered) — client retries, scanner
// retries/breaker, and proxy failover all demonstrably in the loop.
TEST(Study, RobustnessReportCoversEveryLayerUnderCanonicalFaults) {
  StudyConfig config = StudyConfig::quick();
  config.world.fault_profile = fault::FaultProfile::canonical();
  Study study(config);
  const fault::RobustnessReport report = study.robustness_report();

  EXPECT_GT(report.client.injected, 0u);
  EXPECT_GT(report.client.recovered, 0u);
  EXPECT_GT(report.scanner.injected, 0u);
  EXPECT_GT(report.scanner.recovered, 0u);
  EXPECT_GT(report.proxy.injected, 0u);
  EXPECT_GT(report.proxy.recovered, 0u);
  EXPECT_FALSE(report.to_string().empty());
}

}  // namespace
}  // namespace encdns::core
