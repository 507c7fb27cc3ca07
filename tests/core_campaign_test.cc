#include <gtest/gtest.h>

#include <sstream>

#include "core/parallel_campaign.h"
#include "core/scheduler.h"
#include "core/world.h"
#include "resolver/registry.h"

namespace ednsm::core {
namespace {

MeasurementSpec tiny_spec() {
  MeasurementSpec spec;
  spec.resolvers = {"dns.google", "ordns.he.net", "doh.ffmuc.net"};
  spec.vantage_ids = {"ec2-ohio"};
  spec.rounds = 4;
  spec.seed = 77;
  return spec;
}

TEST(Scheduler, RoundTimesSpacedByInterval) {
  MeasurementSpec spec = tiny_spec();
  spec.rounds = 3;
  const ProbeScheduler sched(spec);
  const auto t = sched.timeline(0);
  ASSERT_EQ(t.size(), 3u);
  EXPECT_EQ(t[1] - t[0], spec.round_interval);
  EXPECT_EQ(t[2] - t[1], spec.round_interval);
}

TEST(Scheduler, VantagesAreStaggered) {
  MeasurementSpec spec = tiny_spec();
  spec.vantage_ids = {"ec2-ohio", "ec2-frankfurt"};
  const ProbeScheduler sched(spec);
  EXPECT_GT(sched.round_start(0, 1), sched.round_start(0, 0));
  EXPECT_LT(sched.round_start(0, 1) - sched.round_start(0, 0), spec.round_interval);
}

TEST(Scheduler, SpanCoversAllRounds) {
  const ProbeScheduler sched(tiny_spec());
  EXPECT_GE(sched.span(), sched.round_start(3, 0));
}

TEST(Campaign, RecordCountsMatchSpec) {
  const CampaignResult result = run_parallel_campaign(tiny_spec(), 1);
  // rounds x vantages x resolvers x domains records.
  EXPECT_EQ(result.records.size(), 4u * 1u * 3u * 3u);
  // rounds x vantages x resolvers pings.
  EXPECT_EQ(result.pings.size(), 4u * 1u * 3u);
}

TEST(Campaign, RecordsCarryIdentity) {
  MeasurementSpec spec = tiny_spec();
  spec.seed = 1;
  const CampaignResult result = run_parallel_campaign(spec, 1);
  for (const ResultRecord& r : result.records) {
    EXPECT_EQ(r.vantage, "ec2-ohio");
    EXPECT_FALSE(r.resolver.empty());
    EXPECT_FALSE(r.domain.empty());
    EXPECT_EQ(r.protocol, client::Protocol::DoH);
    if (r.ok) {
      EXPECT_GT(r.response_ms, 0.0);
      EXPECT_FALSE(r.rcode.empty());
    } else {
      EXPECT_FALSE(r.error_class.empty());
    }
  }
}

TEST(Campaign, DeterministicForSeed) {
  auto run = [] {
    MeasurementSpec spec = tiny_spec();
    spec.seed = 123;
    return run_parallel_campaign(spec, 1);
  };
  const CampaignResult a = run();
  const CampaignResult b = run();
  ASSERT_EQ(a.records.size(), b.records.size());
  for (std::size_t i = 0; i < a.records.size(); ++i) {
    EXPECT_EQ(a.records[i].resolver, b.records[i].resolver);
    EXPECT_DOUBLE_EQ(a.records[i].response_ms, b.records[i].response_ms);
    EXPECT_EQ(a.records[i].ok, b.records[i].ok);
  }
  ASSERT_EQ(a.pings.size(), b.pings.size());
  for (std::size_t i = 0; i < a.pings.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.pings[i].rtt_ms, b.pings[i].rtt_ms);
  }
}

TEST(Campaign, DifferentSeedsProduceDifferentSamples) {
  MeasurementSpec spec = tiny_spec();
  spec.seed = 1;
  const CampaignResult a = run_parallel_campaign(spec, 1);
  spec.seed = 2;
  const CampaignResult b = run_parallel_campaign(spec, 1);
  ASSERT_EQ(a.records.size(), b.records.size());
  int different = 0;
  for (std::size_t i = 0; i < a.records.size(); ++i) {
    if (a.records[i].response_ms != b.records[i].response_ms) ++different;
  }
  EXPECT_GT(different, static_cast<int>(a.records.size() / 2));
}

TEST(Campaign, InvalidSpecThrows) {
  MeasurementSpec bad = tiny_spec();
  bad.rounds = 0;
  EXPECT_THROW((void)run_parallel_campaign(bad, 1), std::invalid_argument);
}

TEST(Campaign, ResponseTimeAccessors) {
  MeasurementSpec spec = tiny_spec();
  spec.seed = 5;
  const CampaignResult result = run_parallel_campaign(spec, 1);
  const auto rts = result.response_times("ec2-ohio", "dns.google");
  EXPECT_GT(rts.size(), 6u);  // 12 queries, few failures at most
  const auto pings = result.ping_times("ec2-ohio", "dns.google");
  EXPECT_GT(pings.size(), 2u);
  EXPECT_TRUE(result.response_times("ec2-seoul", "dns.google").empty());
}

TEST(Campaign, JsonRoundTrip) {
  MeasurementSpec spec = tiny_spec();
  spec.rounds = 2;
  spec.seed = 9;
  const CampaignResult result = run_parallel_campaign(spec, 1);

  std::ostringstream os;
  result.write_json(os);
  auto parsed = util::Json::parse(os.str());
  ASSERT_TRUE(parsed.has_value()) << parsed.error();
  auto round = CampaignResult::from_json(parsed.value());
  ASSERT_TRUE(round.has_value()) << round.error();
  EXPECT_EQ(round.value().records.size(), result.records.size());
  EXPECT_EQ(round.value().pings.size(), result.pings.size());
  EXPECT_EQ(round.value().spec.resolvers, spec.resolvers);
  // Availability is rebuilt from records.
  EXPECT_EQ(round.value().availability.overall().successes,
            result.availability.overall().successes);
  EXPECT_EQ(round.value().availability.overall().errors,
            result.availability.overall().errors);
}

// The encoder writes keys by hand; re-dumping the parsed file (whose objects
// are sorted maps) must reproduce it byte for byte, which pins the key order
// to sorted order and the layout to Json::dump's.
void expect_canonical(const CampaignResult& result) {
  std::ostringstream os;
  result.write_json(os);
  const std::string bytes = os.str();
  const auto parsed = util::Json::parse(bytes);
  ASSERT_TRUE(parsed.has_value()) << parsed.error();
  EXPECT_TRUE(parsed.value().dump(2) + "\n" == bytes);
}

TEST(Campaign, JsonIsCanonicalForFig2SizedResult) {
  MeasurementSpec spec;
  for (const auto& r : resolver::paper_resolver_list()) spec.resolvers.push_back(r.hostname);
  spec.vantage_ids = {"home-chicago-1", "ec2-ohio", "ec2-frankfurt", "ec2-seoul"};
  spec.rounds = 30;
  spec.seed = 20250704;
  const CampaignResult result = run_parallel_campaign(spec, 4);
  ASSERT_EQ(result.records.size(), spec.resolvers.size() * 4u * 30u * 3u);
  expect_canonical(result);
}

// Hand-built records that, between them, set every optional field in both
// an ok and a failed record.
TEST(Campaign, JsonIsCanonicalWithEveryOptionalField) {
  CampaignResult result;
  result.spec = tiny_spec();
  result.spec.fault_windows.push_back({"dns.google", 1, 3});
  ResultRecord ok;
  ok.vantage = "ec2-ohio";
  ok.resolver = "dns.google";
  ok.domain = "google.com";
  ok.protocol = client::Protocol::DoQ;
  ok.round = 2;
  ok.issued_at_ms = 28800000.25;
  ok.ok = true;
  ok.response_ms = 84.125;
  ok.connect_ms = 41.5;
  ok.tcp_handshake_ms = 20.25;
  ok.tls_handshake_ms = 19.75;
  ok.quic_handshake_ms = 0.5;
  ok.pool_wait_ms = 1.0 / 3.0;
  ok.exchange_ms = 42.75;
  ok.connection_reused = true;
  ok.rcode = "NOERROR";
  ok.http_status = 200;
  ok.answer_count = 2;
  ResultRecord failed = ok;
  failed.ok = false;
  failed.connection_reused = false;
  failed.rcode.clear();
  failed.error_class = "http-error";
  failed.error_detail = "status 503 \"unavailable\"\n";
  failed.failure_stage = "query";
  failed.http_status = 503;
  failed.answer_count = 0;
  result.records = {ok, failed, ResultRecord{}};
  PingRecord ping{"ec2-ohio", "dns.google", 1, true, 12.5};
  PingRecord lost{"ec2-ohio", "dns.google", 2, false, 0};
  result.pings = {ping, lost};
  expect_canonical(result);

  // Every optional key is present in the ok or the failed record.
  std::ostringstream os;
  result.write_json(os);
  const util::Json doc = util::Json::parse(os.str()).value();
  const util::JsonArray& recs = doc.at("records").as_array();
  for (const char* key : {"tcp_handshake_ms", "tls_handshake_ms", "quic_handshake_ms",
                          "pool_wait_ms", "exchange_ms", "http_status"}) {
    EXPECT_TRUE(recs[0].at(key).is_number()) << key;
    EXPECT_TRUE(recs[1].at(key).is_number()) << key;
  }
  EXPECT_TRUE(recs[0].at("rcode").is_string());
  EXPECT_TRUE(recs[1].at("failure_stage").is_string());
  EXPECT_TRUE(recs[1].at("error_class").is_string());
  EXPECT_TRUE(recs[1].at("error_detail").is_string());
}

TEST(Campaign, MultiVantageRecordsAllVantages) {
  MeasurementSpec spec = tiny_spec();
  spec.vantage_ids = {"ec2-ohio", "ec2-frankfurt", "home-chicago-1"};
  spec.rounds = 2;
  spec.seed = 3;
  const CampaignResult result = run_parallel_campaign(spec, 1);
  for (const std::string& vid : spec.vantage_ids) {
    int count = 0;
    for (const ResultRecord& r : result.records) {
      if (r.vantage == vid) ++count;
    }
    EXPECT_EQ(count, 2 * 3 * 3) << vid;
  }
}

// ---- availability ledger ----------------------------------------------------------

TEST(Availability, CountsAndClasses) {
  AvailabilityLedger ledger;
  ResultRecord ok;
  ok.vantage = "v";
  ok.resolver = "r";
  ok.ok = true;
  ResultRecord bad = ok;
  bad.ok = false;
  bad.error_class = "connect-timeout";

  ledger.record(ok);
  ledger.record(ok);
  ledger.record(bad);
  EXPECT_EQ(ledger.overall().successes, 2u);
  EXPECT_EQ(ledger.overall().errors, 1u);
  EXPECT_NEAR(ledger.overall().error_rate(), 1.0 / 3.0, 1e-12);
  EXPECT_EQ(ledger.per_resolver("r").total(), 3u);
  EXPECT_EQ(ledger.per_pair("v", "r").errors, 1u);
  EXPECT_EQ(ledger.dominant_error_class(), "connect-timeout");
  EXPECT_EQ(ledger.resolvers(), std::vector<std::string>{"r"});
}

TEST(Availability, UnresponsivePredicate) {
  AvailabilityLedger ledger;
  ResultRecord bad;
  bad.vantage = "v";
  bad.resolver = "dead";
  bad.ok = false;
  bad.error_class = "timeout";
  ledger.record(bad);
  EXPECT_TRUE(ledger.unresponsive_from("v", "dead"));
  EXPECT_FALSE(ledger.unresponsive_from("v", "never-measured"));

  ResultRecord ok = bad;
  ok.ok = true;
  ledger.record(ok);
  EXPECT_FALSE(ledger.unresponsive_from("v", "dead"));
}

TEST(Availability, EmptyLedger) {
  AvailabilityLedger ledger;
  EXPECT_EQ(ledger.overall().total(), 0u);
  EXPECT_DOUBLE_EQ(ledger.overall().error_rate(), 0.0);
  EXPECT_EQ(ledger.dominant_error_class(), "");
}

// ---- world ---------------------------------------------------------------------

TEST(World, VantageIsCachedAndQuirked) {
  SimWorld world(4);
  auto& v1 = world.vantage("home-chicago-1");
  auto& v2 = world.vantage("home-chicago-1");
  EXPECT_EQ(&v1, &v2);
  EXPECT_TRUE(v1.info.is_home());
  EXPECT_THROW((void)world.vantage("nope"), std::out_of_range);
}

TEST(World, FleetCoversWholeRegistry) {
  SimWorld world(4);
  EXPECT_EQ(world.fleet().specs().size(), resolver::paper_resolver_list().size());
}


TEST(Campaign, OutageIsObservedAndClears) {
  MeasurementSpec spec = tiny_spec();
  spec.rounds = 2;
  spec.seed = 89;
  spec.resolvers = {"dns.google", "kronos.plan9-dns.com"};

  spec.fault_windows = {{"kronos.plan9-dns.com", 0, spec.rounds}};
  const CampaignResult down = run_parallel_campaign(spec, 1);
  EXPECT_TRUE(down.availability.unresponsive_from("ec2-ohio", "kronos.plan9-dns.com"));
  EXPECT_FALSE(down.availability.unresponsive_from("ec2-ohio", "dns.google"));
  // Every failed record is a connection failure, like a real dark host.
  for (const ResultRecord& r : down.records) {
    if (r.resolver == "kronos.plan9-dns.com") {
      EXPECT_FALSE(r.ok);
      EXPECT_EQ(r.error_class, "connect-timeout");
    }
  }

  spec.fault_windows.clear();
  const CampaignResult up = run_parallel_campaign(spec, 1);
  EXPECT_FALSE(up.availability.unresponsive_from("ec2-ohio", "kronos.plan9-dns.com"));
}

TEST(Campaign, OutageSilencesDo53Too) {
  MeasurementSpec spec = tiny_spec();
  spec.rounds = 1;
  spec.seed = 90;
  spec.protocol = client::Protocol::Do53;
  spec.resolvers = {"kronos.plan9-dns.com"};
  spec.fault_windows = {{"kronos.plan9-dns.com", 0, spec.rounds}};
  const CampaignResult result = run_parallel_campaign(spec, 1);
  for (const ResultRecord& r : result.records) EXPECT_FALSE(r.ok);
}

TEST(Campaign, DoqCampaignRuns) {
  MeasurementSpec spec = tiny_spec();
  spec.protocol = client::Protocol::DoQ;
  spec.rounds = 2;
  spec.seed = 91;
  const CampaignResult result = run_parallel_campaign(spec, 1);
  EXPECT_EQ(result.records.size(), 2u * 3u * 3u);
  int ok = 0;
  for (const ResultRecord& r : result.records) {
    EXPECT_EQ(r.protocol, client::Protocol::DoQ);
    if (r.ok) ++ok;
  }
  EXPECT_GT(ok, 12);
}

}  // namespace
}  // namespace ednsm::core
