#include <gtest/gtest.h>

#include "core/parallel_campaign.h"
#include "core/recommend.h"

namespace ednsm::core {
namespace {

// Build a synthetic CampaignResult without running a campaign: recommendation
// logic is a pure function of records.
CampaignResult synthetic_result() {
  CampaignResult result;
  result.spec.resolvers = {"dns.google", "ordns.he.net", "doh.ffmuc.net",
                           "kronos.plan9-dns.com", "dns.quad9.net"};
  result.spec.vantage_ids = {"ec2-ohio"};

  auto add = [&](const std::string& host, std::vector<double> times, int errors) {
    for (double t : times) {
      ResultRecord r;
      r.vantage = "ec2-ohio";
      r.resolver = host;
      r.domain = "google.com";
      r.ok = true;
      r.response_ms = t;
      result.availability.record(r);
      result.records.push_back(std::move(r));
    }
    for (int i = 0; i < errors; ++i) {
      ResultRecord r;
      r.vantage = "ec2-ohio";
      r.resolver = host;
      r.domain = "google.com";
      r.ok = false;
      r.error_class = "connect-timeout";
      result.availability.record(r);
      result.records.push_back(std::move(r));
    }
  };

  add("dns.google", {30, 31, 29, 30, 32, 30, 31, 30}, 0);        // fast, clean
  add("ordns.he.net", {28, 29, 30, 28, 31, 29, 30, 28}, 0);      // slightly faster
  add("doh.ffmuc.net", {390, 400, 395, 392, 401, 388, 399, 394}, 0);  // too slow
  add("kronos.plan9-dns.com", {85, 88, 86, 84, 90, 87, 89, 85}, 4);   // 33% errors
  add("dns.quad9.net", {30, 30}, 0);                              // too few samples
  return result;
}

TEST(Recommend, RanksByScoreAndFilters) {
  const CampaignResult result = synthetic_result();
  const RecommendationReport report = recommend_resolvers(result, "ec2-ohio");

  ASSERT_EQ(report.ranked.size(), 2u);
  EXPECT_EQ(report.ranked[0].hostname, "ordns.he.net");  // best median
  EXPECT_EQ(report.ranked[1].hostname, "dns.google");
  EXPECT_LT(report.ranked[0].score, report.ranked[1].score);

  ASSERT_EQ(report.rejected.size(), 3u);
  std::map<std::string, RejectionReason> reasons;
  for (const Rejection& r : report.rejected) reasons[r.hostname] = r.reason;
  EXPECT_EQ(reasons["doh.ffmuc.net"], RejectionReason::MedianTooHigh);
  EXPECT_EQ(reasons["kronos.plan9-dns.com"], RejectionReason::TooUnreliable);
  EXPECT_EQ(reasons["dns.quad9.net"], RejectionReason::TooFewSamples);
}

TEST(Recommend, BestAlternativeSkipsMainstream) {
  const RecommendationReport report =
      recommend_resolvers(synthetic_result(), "ec2-ohio");
  const auto alt = report.best_alternative();
  ASSERT_TRUE(alt.has_value());
  EXPECT_EQ(alt->hostname, "ordns.he.net");
  EXPECT_FALSE(alt->mainstream);
}

TEST(Recommend, ExcludeMainstreamMode) {
  RecommendCriteria criteria;
  criteria.exclude_mainstream = true;
  const RecommendationReport report =
      recommend_resolvers(synthetic_result(), "ec2-ohio", criteria);
  for (const Recommendation& r : report.ranked) EXPECT_FALSE(r.mainstream);
  bool saw_excluded = false;
  for (const Rejection& r : report.rejected) {
    if (r.reason == RejectionReason::MainstreamExcluded) saw_excluded = true;
  }
  EXPECT_TRUE(saw_excluded);
}

TEST(Recommend, TailBarRejectsSpikyResolvers) {
  CampaignResult result;
  result.spec.resolvers = {"spiky.example"};
  result.spec.vantage_ids = {"v"};
  for (int i = 0; i < 10; ++i) {
    ResultRecord r;
    r.vantage = "v";
    r.resolver = "spiky.example";
    r.domain = "d";
    r.ok = true;
    r.response_ms = (i < 8) ? 20.0 : 900.0;  // good median, horrible tail
    result.availability.record(r);
    result.records.push_back(std::move(r));
  }
  const RecommendationReport report = recommend_resolvers(result, "v");
  ASSERT_EQ(report.rejected.size(), 1u);
  EXPECT_EQ(report.rejected[0].reason, RejectionReason::TailTooHigh);
}

TEST(Recommend, ErrorRateMovesScore) {
  CampaignResult result;
  result.spec.resolvers = {"clean.example", "flaky.example"};
  result.spec.vantage_ids = {"v"};
  auto add = [&](const char* host, bool ok) {
    ResultRecord r;
    r.vantage = "v";
    r.resolver = host;
    r.domain = "d";
    r.ok = ok;
    r.response_ms = ok ? 25.0 : 0.0;
    if (!ok) r.error_class = "timeout";
    result.availability.record(r);
    result.records.push_back(std::move(r));
  };
  for (int i = 0; i < 30; ++i) add("clean.example", true);
  for (int i = 0; i < 30; ++i) add("flaky.example", true);
  add("flaky.example", false);  // ~3.2% errors: passes the bar, worse score
  const RecommendationReport report = recommend_resolvers(result, "v");
  ASSERT_EQ(report.ranked.size(), 2u);
  EXPECT_EQ(report.ranked[0].hostname, "clean.example");
}

TEST(Recommend, EndToEndOnRealCampaign) {
  MeasurementSpec spec;
  spec.resolvers = {"dns.google", "ordns.he.net", "freedns.controld.com",
                    "doh.ffmuc.net", "dns.alidns.com"};
  spec.vantage_ids = {"ec2-ohio"};
  spec.rounds = 8;
  spec.seed = 101;
  const CampaignResult result = run_parallel_campaign(spec, 1);

  const RecommendationReport report = recommend_resolvers(result, "ec2-ohio");
  ASSERT_GE(report.ranked.size(), 2u);
  // The distant unicast/Asia resolvers cannot pass the 100 ms bar from Ohio.
  for (const Recommendation& r : report.ranked) {
    EXPECT_NE(r.hostname, "doh.ffmuc.net");
    EXPECT_NE(r.hostname, "dns.alidns.com");
    EXPECT_LE(r.median_ms, 100.0);
  }
  EXPECT_TRUE(report.best_alternative().has_value());
}

TEST(Recommend, RejectionReasonNames) {
  EXPECT_EQ(to_string(RejectionReason::TooFewSamples), "too-few-samples");
  EXPECT_EQ(to_string(RejectionReason::TooUnreliable), "too-unreliable");
}

}  // namespace
}  // namespace ednsm::core
