#include <gtest/gtest.h>

#include <limits>

#include "core/spec.h"
#include "encode_util.h"

namespace ednsm::core {
namespace {

MeasurementSpec small_spec() {
  MeasurementSpec spec;
  spec.resolvers = {"dns.google", "ordns.he.net"};
  spec.vantage_ids = {"ec2-ohio"};
  spec.rounds = 3;
  spec.seed = 7;
  return spec;
}

TEST(Spec, DefaultsMatchPaper) {
  const MeasurementSpec spec;
  EXPECT_EQ(spec.domains,
            (std::vector<std::string>{"google.com", "amazon.com", "wikipedia.com"}));
  EXPECT_EQ(spec.protocol, client::Protocol::DoH);
  EXPECT_EQ(spec.round_interval, std::chrono::hours(8));  // three times a day
}

TEST(Spec, ValidationCatchesEmptyLists) {
  MeasurementSpec spec = small_spec();
  spec.resolvers.clear();
  EXPECT_FALSE(spec.validate().has_value());

  spec = small_spec();
  spec.domains.clear();
  EXPECT_FALSE(spec.validate().has_value());

  spec = small_spec();
  spec.vantage_ids.clear();
  EXPECT_FALSE(spec.validate().has_value());
}

TEST(Spec, ValidationCatchesBadNumbers) {
  MeasurementSpec spec = small_spec();
  spec.rounds = 0;
  EXPECT_FALSE(spec.validate().has_value());

  spec = small_spec();
  spec.round_interval = netsim::kZeroDuration;
  EXPECT_FALSE(spec.validate().has_value());

  spec = small_spec();
  spec.query_options.timeout = netsim::kZeroDuration;
  EXPECT_FALSE(spec.validate().has_value());

  EXPECT_TRUE(small_spec().validate().has_value());
}

TEST(Spec, JsonRoundTrip) {
  MeasurementSpec spec = small_spec();
  spec.protocol = client::Protocol::DoT;
  spec.query_options.reuse = transport::ReusePolicy::TicketResumption;
  spec.query_options.use_post = true;
  spec.query_options.use_http2 = false;
  spec.query_options.timeout = std::chrono::milliseconds(2500);

  auto round = MeasurementSpec::from_json(test::as_dom(spec));
  ASSERT_TRUE(round.has_value()) << round.error();
  EXPECT_EQ(round.value().resolvers, spec.resolvers);
  EXPECT_EQ(round.value().domains, spec.domains);
  EXPECT_EQ(round.value().vantage_ids, spec.vantage_ids);
  EXPECT_EQ(round.value().protocol, spec.protocol);
  EXPECT_EQ(round.value().rounds, spec.rounds);
  EXPECT_EQ(round.value().round_interval, spec.round_interval);
  EXPECT_EQ(round.value().query_options.reuse, spec.query_options.reuse);
  EXPECT_EQ(round.value().query_options.use_post, spec.query_options.use_post);
  EXPECT_EQ(round.value().query_options.use_http2, spec.query_options.use_http2);
  EXPECT_EQ(round.value().query_options.timeout, spec.query_options.timeout);
  EXPECT_EQ(round.value().seed, spec.seed);
}

// A JSON number holds 53 bits; the seed is written as 16 hex digits instead,
// and a numeric seed is refused with the expected format named.
TEST(Spec, SeedRoundTripsAllSixtyFourBitsAsHex) {
  MeasurementSpec spec = small_spec();
  spec.seed = std::numeric_limits<std::uint64_t>::max();
  const std::string bytes = test::encode(spec);
  EXPECT_NE(bytes.find("\"seed\":\"ffffffffffffffff\""), std::string::npos) << bytes;
  auto round = MeasurementSpec::from_json(test::as_dom(spec));
  ASSERT_TRUE(round.has_value()) << round.error();
  EXPECT_EQ(round.value().seed, spec.seed);

  util::Json j = test::as_dom(small_spec());
  j.as_object()["seed"] = util::Json(7.0);
  const auto numeric = MeasurementSpec::from_json(j);
  ASSERT_FALSE(numeric.has_value());
  EXPECT_NE(numeric.error().find("seed must be a string of 16 lowercase hex digits"),
            std::string::npos)
      << numeric.error();
}

TEST(Spec, FromJsonRejectsBadInput) {
  EXPECT_FALSE(MeasurementSpec::from_json(util::Json(nullptr)).has_value());
  util::JsonObject o;
  o["resolvers"] = util::Json("not-an-array");
  EXPECT_FALSE(MeasurementSpec::from_json(util::Json(o)).has_value());

  // Unknown protocol.
  MeasurementSpec spec = small_spec();
  util::Json j = test::as_dom(spec);
  j.as_object()["protocol"] = util::Json("DoX");
  EXPECT_FALSE(MeasurementSpec::from_json(j).has_value());

  // Unknown reuse policy.
  j = test::as_dom(spec);
  j.as_object()["reuse"] = util::Json("sometimes");
  EXPECT_FALSE(MeasurementSpec::from_json(j).has_value());
}

TEST(ResultRecord, JsonRoundTripOk) {
  ResultRecord r;
  r.vantage = "ec2-ohio";
  r.resolver = "dns.google";
  r.domain = "google.com";
  r.protocol = client::Protocol::DoH;
  r.round = 4;
  r.issued_at_ms = 123.5;
  r.ok = true;
  r.response_ms = 31.25;
  r.connect_ms = 20.5;
  r.connection_reused = true;
  r.rcode = "NOERROR";
  r.http_status = 200;
  r.answer_count = 2;

  auto round = ResultRecord::from_json(test::as_dom(r));
  ASSERT_TRUE(round.has_value()) << round.error();
  EXPECT_EQ(round.value().vantage, r.vantage);
  EXPECT_EQ(round.value().resolver, r.resolver);
  EXPECT_EQ(round.value().ok, r.ok);
  EXPECT_DOUBLE_EQ(round.value().response_ms, r.response_ms);
  EXPECT_EQ(round.value().rcode, r.rcode);
  EXPECT_EQ(round.value().http_status, r.http_status);
  EXPECT_EQ(round.value().answer_count, r.answer_count);
  EXPECT_TRUE(round.value().connection_reused);
}

TEST(ResultRecord, JsonRoundTripError) {
  ResultRecord r;
  r.vantage = "home-chicago-1";
  r.resolver = "doh.ffmuc.net";
  r.domain = "amazon.com";
  r.ok = false;
  r.error_class = "connect-timeout";
  r.error_detail = "tcp: connection timed out";

  auto round = ResultRecord::from_json(test::as_dom(r));
  ASSERT_TRUE(round.has_value());
  EXPECT_FALSE(round.value().ok);
  EXPECT_EQ(round.value().error_class, "connect-timeout");
  EXPECT_EQ(round.value().error_detail, "tcp: connection timed out");
  EXPECT_TRUE(round.value().rcode.empty());
}

TEST(ResultRecord, FromJsonRejectsMissingFields) {
  util::JsonObject o;
  o["vantage"] = util::Json("x");
  EXPECT_FALSE(ResultRecord::from_json(util::Json(o)).has_value());
  EXPECT_FALSE(ResultRecord::from_json(util::Json(3)).has_value());
}

TEST(PingRecord, JsonRoundTrip) {
  PingRecord p;
  p.vantage = "ec2-seoul";
  p.resolver = "dns.alidns.com";
  p.round = 2;
  p.ok = true;
  p.rtt_ms = 8.5;
  auto round = PingRecord::from_json(test::as_dom(p));
  ASSERT_TRUE(round.has_value());
  EXPECT_EQ(round.value().vantage, p.vantage);
  EXPECT_DOUBLE_EQ(round.value().rtt_ms, p.rtt_ms);

  PingRecord fail;
  fail.vantage = "v";
  fail.resolver = "r";
  fail.ok = false;
  auto round2 = PingRecord::from_json(test::as_dom(fail));
  ASSERT_TRUE(round2.has_value());
  EXPECT_FALSE(round2.value().ok);
}

// Integer fields reject numbers a cast cannot hold: a bare static_cast of
// 1e300 to int is undefined behaviour.
TEST(ResultRecord, FromJsonRejectsHostileNumbers) {
  ResultRecord r;
  r.vantage = "ec2-ohio";
  r.resolver = "dns.google";
  r.domain = "google.com";
  r.ok = true;
  r.rcode = "NOERROR";
  const util::Json good = test::as_dom(r);
  for (const char* field : {"round", "answers", "http_status"}) {
    for (const double bad : {1e300, -1e20, 2147483648.0, -2147483649.0, 0.5}) {
      util::Json j = good;
      j.as_object()[field] = util::Json(bad);
      const auto parsed = ResultRecord::from_json(j);
      ASSERT_FALSE(parsed.has_value()) << field << " = " << bad;
      EXPECT_NE(parsed.error().find(field), std::string::npos) << parsed.error();
    }
  }
  // The int range itself is accepted, ends included.
  util::Json j = good;
  j.as_object()["round"] = util::Json(2147483647.0);
  j.as_object()["answers"] = util::Json(-2147483648.0);
  const auto edges = ResultRecord::from_json(j);
  ASSERT_TRUE(edges.has_value()) << edges.error();
  EXPECT_EQ(edges.value().round, 2147483647);
  EXPECT_EQ(edges.value().answer_count, -2147483647 - 1);
}

TEST(PingRecord, FromJsonRejectsHostileNumbers) {
  PingRecord p;
  p.vantage = "v";
  p.resolver = "r";
  util::Json j = test::as_dom(p);
  j.as_object()["round"] = util::Json(1e300);
  EXPECT_FALSE(PingRecord::from_json(j).has_value());
}

TEST(Spec, FromJsonRejectsHostileNumbers) {
  MeasurementSpec spec = small_spec();
  spec.fault_windows.push_back({"dns.google", 0, 2});
  ASSERT_TRUE(MeasurementSpec::from_json(test::as_dom(spec)).has_value());
  const std::pair<const char*, double> cases[] = {
      {"rounds", 1e300},           {"rounds", 2.5},         {"round_interval_s", 1e300},
      {"round_interval_s", -1e19}, {"pad_block", -1.0},     {"pad_block", 1e30},
      {"seed", -1.0},              {"seed", 1.8446744073709552e19},
      {"timeout_ms", 1e300},       {"ping_timeout_ms", -1e300}};
  for (const auto& [field, bad] : cases) {
    util::Json j = test::as_dom(spec);
    j.as_object()[field] = util::Json(bad);
    const auto parsed = MeasurementSpec::from_json(j);
    ASSERT_FALSE(parsed.has_value()) << field << " = " << bad;
    EXPECT_NE(parsed.error().find(field), std::string::npos) << parsed.error();
  }
  for (const char* field : {"from_round", "to_round"}) {
    util::Json j = test::as_dom(spec);
    j.as_object()["fault_windows"].as_array()[0].as_object()[field] = util::Json(1e10);
    EXPECT_FALSE(MeasurementSpec::from_json(j).has_value()) << field;
  }
}

// An in-range integer can still overflow the microsecond clock once scaled.
TEST(Spec, FromJsonRejectsOverflowingRoundInterval) {
  for (const double seconds : {1e13, -1e13, -9223372036854775808.0}) {
    util::Json j = test::as_dom(small_spec());
    j.as_object()["round_interval_s"] = util::Json(seconds);
    const auto parsed = MeasurementSpec::from_json(j);
    ASSERT_FALSE(parsed.has_value()) << seconds;
    EXPECT_NE(parsed.error().find("round_interval_s"), std::string::npos) << parsed.error();
  }
}

}  // namespace
}  // namespace ednsm::core
