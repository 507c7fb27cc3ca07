// Hostile-input table for every JSON decoder: each row mutates one field of a
// document the encoder wrote and requires from_json to refuse it with an error
// naming that field. Integer fields get 1e300, -1e300, 2^64, 0.5 and a string;
// number, string, bool and array fields get a value of the wrong JSON type.
// Casting 1e300 to an integer is undefined behaviour, which the UBSan build
// (float-cast-overflow, no recover) turns into a hard failure, so a decoder
// that still casts unchecked fails here under both builds.
#include <gtest/gtest.h>

#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/parallel_campaign.h"
#include "core/shard_io.h"
#include "encode_util.h"
#include "monitor/diagnose.h"
#include "monitor/monitor.h"
#include "obs/runtime.h"
#include "obs/timeseries.h"

namespace ednsm {
namespace {

enum class Kind { Integer, Number, String, Bool, Array };

struct Field {
  std::string path;  // "/"-separated object keys and array indices
  Kind kind;
};

struct Decoder {
  std::string name;
  util::Json good;
  // "" when the document decodes, the error otherwise.
  std::function<std::string(const util::Json&)> decode;
  std::vector<Field> fields;
};

template <typename T>
std::function<std::string(const util::Json&)> via_from_json() {
  return [](const util::Json& j) {
    const auto r = T::from_json(j);
    return r ? std::string() : r.error();
  };
}

std::vector<util::Json> bad_values(Kind kind) {
  switch (kind) {
    case Kind::Integer:
      return {util::Json(1e300), util::Json(-1e300), util::Json(18446744073709551616.0),
              util::Json(0.5), util::Json("7")};
    case Kind::Number:
      return {util::Json("7")};
    case Kind::String:
      return {util::Json(7.0)};
    case Kind::Bool:
      return {util::Json(1.0)};
    case Kind::Array:
      return {util::Json("x")};
  }
  return {};
}

bool is_index(const std::string& part) {
  return !part.empty() && part.find_first_not_of("0123456789") == std::string::npos;
}

std::vector<std::string> split_path(const std::string& path) {
  std::vector<std::string> parts;
  std::size_t start = 0;
  while (true) {
    const std::size_t slash = path.find('/', start);
    parts.push_back(path.substr(start, slash - start));
    if (slash == std::string::npos) return parts;
    start = slash + 1;
  }
}

// The slot `path` names: intermediate steps must exist; a missing last object
// key is created (an absent optional field must be refused just the same).
util::Json* slot(util::Json& doc, const std::string& path) {
  util::Json* node = &doc;
  const std::vector<std::string> parts = split_path(path);
  for (std::size_t i = 0; i < parts.size(); ++i) {
    const bool last = i + 1 == parts.size();
    if (node->is_array() && is_index(parts[i])) {
      const std::size_t idx = std::stoul(parts[i]);
      if (idx >= node->as_array().size()) return nullptr;
      node = &node->as_array()[idx];
    } else if (node->is_object()) {
      util::JsonObject& o = node->as_object();
      if (!last && o.find(parts[i]) == o.end()) return nullptr;
      node = &o[parts[i]];
    } else {
      return nullptr;
    }
  }
  return node;
}

// The field an error must name: the last object key on the path.
std::string field_name(const std::string& path) {
  const std::vector<std::string> parts = split_path(path);
  for (auto it = parts.rbegin(); it != parts.rend(); ++it) {
    if (!is_index(*it)) return *it;
  }
  return {};
}

// ---- the documents ------------------------------------------------------------

core::MeasurementSpec small_spec() {
  core::MeasurementSpec spec;
  spec.resolvers = {"dns.google"};
  spec.vantage_ids = {"ec2-ohio"};
  spec.rounds = 2;
  spec.seed = 7;
  return spec;
}

core::ShardFile traced_shard_file() {
  core::CampaignObsOptions obs;
  obs.trace = true;
  obs.metrics = true;
  core::ShardFile file;
  file.spec = small_spec();
  const auto plans = core::expand_spec(file.spec);
  file.slice = {0, 1};
  file.total_shards = plans.size();
  file.has_trace = true;
  file.has_metrics = true;
  for (const core::ShardPlan& plan : plans) {
    file.outcomes.push_back(core::run_shard(file.spec, plan, obs));
  }
  return file;
}

monitor::MonitorSpec small_monitor_spec() {
  monitor::MonitorSpec spec;
  spec.base = small_spec();
  spec.base.rounds = 1;
  spec.epochs = 4;
  spec.outages.push_back({"dns.google", 1, 2});
  return spec;
}

std::size_t first_failed_row(const monitor::MonitorResult& result) {
  for (std::size_t i = 0; i < result.evidence.size(); ++i) {
    if (!result.evidence[i].ok) return i;
  }
  throw std::logic_error("the monitor run has no failed evidence row");
}

obs::RuntimeStageSnapshot sample_stage() {
  obs::RuntimeStageSnapshot s;
  s.stage = "simulate";
  s.items_in = 12;
  s.items_out = 10;
  s.busy_ns = 1000;
  return s;
}

obs::RuntimeHeartbeat sample_heartbeat() {
  obs::RuntimeHeartbeat h;
  h.status = "running";
  h.spec_fingerprint = 0xdeadbeefcafef00dull;
  h.shard_k = 1;
  h.shard_n = 4;
  h.threads = 2;
  h.started_unix_ms = 1000;
  h.updated_unix_ms = 3500;
  h.elapsed_ms = 2500.0;
  h.plans_total = 40;
  h.plans_done = 10;
  h.completion = 0.25;
  h.stages.push_back(sample_stage());
  return h;
}

obs::RunManifest sample_manifest() {
  obs::RunManifest m;
  m.spec_fingerprint = 0x0123456789abcdefull;
  m.seed = 42;
  m.shard_k = 1;
  m.shard_n = 4;
  m.total_shards = 40;
  m.plans = 10;
  m.status = "ok";
  m.started_unix_ms = 1000;
  m.finished_unix_ms = 6000;
  m.wall_ms = 5000.0;
  m.stages.push_back(sample_stage());
  return m;
}

std::vector<Decoder> decoders() {
  using K = Kind;
  std::vector<Decoder> out;

  // -- core ---------------------------------------------------------------------
  core::MeasurementSpec spec = small_spec();
  spec.fault_windows.push_back({"dns.google", 0, 1});
  out.push_back({"FaultWindow", test::as_dom(spec.fault_windows[0]),
                 via_from_json<core::FaultWindow>(),
                 {{"resolver", K::String}, {"from_round", K::Integer}, {"to_round", K::Integer}}});
  out.push_back({"MeasurementSpec", test::as_dom(spec), via_from_json<core::MeasurementSpec>(),
                 {{"resolvers", K::Array},
                  {"resolvers/0", K::String},
                  {"domains", K::Array},
                  {"vantage_ids", K::Array},
                  {"protocol", K::String},
                  {"rounds", K::Integer},
                  {"round_interval_s", K::Integer},
                  {"ping_timeout_ms", K::Number},
                  {"timeout_ms", K::Number},
                  {"reuse", K::String},
                  {"use_post", K::Bool},
                  {"use_http2", K::Bool},
                  {"early_data", K::Bool},
                  {"pad_block", K::Integer},
                  {"seed", K::String},
                  {"fault_windows", K::Array},
                  {"fault_windows/0/from_round", K::Integer}}});

  // Campaign metrics carry no distributions; splice in a registry that does,
  // so the shard rows reach the histogram bins too.
  obs::Metrics metrics;
  metrics.add("netsim.datagrams_sent", 3);
  metrics.set_gauge("pool.open", 1.5);
  metrics.observe("client.response_ms", 12.0);
  const core::ShardFile shard = traced_shard_file();
  util::Json shard_doc = test::as_dom(shard);
  shard_doc.as_object()["outcomes"].as_array().at(0).as_object()["metrics"] = metrics.to_json();
  const core::CampaignResult& campaign = shard.outcomes.at(0).result;
  out.push_back({"ResultRecord", test::as_dom(campaign.records.at(0)),
                 via_from_json<core::ResultRecord>(),
                 {{"vantage", K::String},          {"resolver", K::String},
                  {"domain", K::String},           {"ok", K::Bool},
                  {"protocol", K::String},         {"round", K::Integer},
                  {"issued_at_ms", K::Number},     {"response_ms", K::Number},
                  {"connect_ms", K::Number},       {"tcp_handshake_ms", K::Number},
                  {"tls_handshake_ms", K::Number}, {"quic_handshake_ms", K::Number},
                  {"pool_wait_ms", K::Number},     {"exchange_ms", K::Number},
                  {"reused", K::Bool},             {"rcode", K::String},
                  {"error_class", K::String},      {"error_detail", K::String},
                  {"failure_stage", K::String},    {"http_status", K::Integer},
                  {"answers", K::Integer}}});
  out.push_back({"PingRecord", test::as_dom(campaign.pings.at(0)),
                 via_from_json<core::PingRecord>(),
                 {{"vantage", K::String},
                  {"resolver", K::String},
                  {"ok", K::Bool},
                  {"round", K::Integer},
                  {"rtt_ms", K::Number}}});
  out.push_back({"CampaignResult", test::as_dom(campaign), via_from_json<core::CampaignResult>(),
                 {{"records", K::Array},
                  {"records/0/round", K::Integer},
                  {"pings", K::Array},
                  {"pings/0/round", K::Integer},
                  {"spec/rounds", K::Integer}}});
  out.push_back({"ShardFile", shard_doc, via_from_json<core::ShardFile>(),
                 {{"magic", K::String},
                  {"version", K::Integer},
                  {"spec_fingerprint", K::String},
                  {"spec/seed", K::String},
                  {"slice/k", K::Integer},
                  {"slice/n", K::Integer},
                  {"total_shards", K::Integer},
                  {"has_trace", K::Bool},
                  {"has_metrics", K::Bool},
                  {"outcomes", K::Array},
                  {"outcomes/0/index", K::Integer},
                  {"outcomes/0/vantage", K::String},
                  {"outcomes/0/seed", K::String},
                  {"outcomes/0/records/0/answers", K::Integer},
                  {"outcomes/0/pings/0/rtt_ms", K::Number},
                  {"outcomes/0/metrics/counters/0/0", K::String},
                  {"outcomes/0/metrics/counters/0/1", K::Integer},
                  {"outcomes/0/metrics/gauges/0/1", K::Number},
                  {"outcomes/0/metrics/dists/0/count", K::Integer},
                  {"outcomes/0/metrics/dists/0/bins/0/0", K::Integer},
                  {"outcomes/0/metrics/dists/0/bins/0/1", K::Integer},
                  {"outcomes/0/trace/symbols/0", K::String},
                  {"outcomes/0/trace/emitted", K::Integer},
                  {"outcomes/0/trace/events/0/0", K::Integer},
                  {"outcomes/0/trace/events/0/1", K::Integer},
                  {"outcomes/0/trace/events/0/2", K::Integer},
                  {"outcomes/0/trace/events/0/3", K::Integer},
                  {"outcomes/0/trace/events/0/4", K::Integer}}});

  // -- obs ----------------------------------------------------------------------
  out.push_back({"Metrics", metrics.to_json(), via_from_json<obs::Metrics>(),
                 {{"counters", K::Array},
                  {"counters/0/0", K::String},
                  {"counters/0/1", K::Integer},
                  {"gauges", K::Array},
                  {"gauges/0/1", K::Number},
                  {"dists", K::Array},
                  {"dists/0/name", K::String},
                  {"dists/0/count", K::Integer},
                  {"dists/0/mean", K::Number},
                  {"dists/0/m2", K::Number},
                  {"dists/0/min", K::Number},
                  {"dists/0/max", K::Number},
                  {"dists/0/bins", K::Array},
                  {"dists/0/bins/0/0", K::Integer},
                  {"dists/0/bins/0/1", K::Integer}}});
  out.push_back({"TraceData", shard.outcomes.at(0).trace.to_json(),
                 via_from_json<obs::TraceData>(),
                 {{"symbols", K::Array},
                  {"symbols/0", K::String},
                  {"emitted", K::Integer},
                  {"dropped", K::Integer},
                  {"events", K::Array},
                  {"events/0/0", K::Integer},
                  {"events/0/1", K::Integer},
                  {"events/0/2", K::Integer},
                  {"events/0/3", K::Integer},
                  {"events/0/4", K::Integer}}});
  out.push_back({"RuntimeStageSnapshot", sample_stage().stage_json(),
                 [](const util::Json& j) {
                   const auto r = obs::RuntimeStageSnapshot::stage_from_json(j);
                   return r ? std::string() : r.error();
                 },
                 {{"stage", K::String},
                  {"items_in", K::Integer},
                  {"items_out", K::Integer},
                  {"busy_ns", K::Integer}}});
  out.push_back({"RuntimeHeartbeat", sample_heartbeat().heartbeat_json(),
                 [](const util::Json& j) {
                   const auto r = obs::RuntimeHeartbeat::heartbeat_from_json(j);
                   return r ? std::string() : r.error();
                 },
                 {{"schema", K::String},
                  {"version", K::Integer},
                  {"status", K::String},
                  {"spec_fingerprint", K::String},
                  {"shard/k", K::Integer},
                  {"shard/n", K::Integer},
                  {"threads", K::Integer},
                  {"started_unix_ms", K::Integer},
                  {"updated_unix_ms", K::Integer},
                  {"elapsed_ms", K::Number},
                  {"plans_total", K::Integer},
                  {"plans_done", K::Integer},
                  {"collector_lag", K::Integer},
                  {"records", K::Integer},
                  {"bytes_encoded", K::Integer},
                  {"completion", K::Number},
                  {"plans_per_sec", K::Number},
                  {"eta_ms", K::Number},
                  {"stages", K::Array},
                  {"stages/0/items_in", K::Integer}}});
  out.push_back({"RunManifest", sample_manifest().manifest_json(),
                 [](const util::Json& j) {
                   const auto r = obs::RunManifest::manifest_from_json(j);
                   return r ? std::string() : r.error();
                 },
                 {{"schema", K::String},
                  {"version", K::Integer},
                  {"spec_fingerprint", K::String},
                  {"seed", K::String},
                  {"shard/k", K::Integer},
                  {"shard/n", K::Integer},
                  {"total_shards", K::Integer},
                  {"plans", K::Integer},
                  {"threads", K::Integer},
                  {"status", K::String},
                  {"started_unix_ms", K::Integer},
                  {"finished_unix_ms", K::Integer},
                  {"wall_ms", K::Number},
                  {"records", K::Integer},
                  {"pings", K::Integer},
                  {"bytes_encoded", K::Integer},
                  {"stages", K::Array},
                  {"stages/0/busy_ns", K::Integer}}});
  obs::SeriesPoint point;
  point.metric = "monitor.response_ms";
  point.vantage = "ec2-ohio";
  point.resolver = "dns.google";
  point.protocol = "DoH";
  point.kind = "histogram";
  point.count = 2;
  point.bins = {{3, 2}};
  out.push_back({"SeriesPoint", test::as_dom(point), via_from_json<obs::SeriesPoint>(),
                 {{"metric", K::String},
                  {"vantage", K::String},
                  {"resolver", K::String},
                  {"protocol", K::String},
                  {"kind", K::String},
                  {"bucket", K::Integer},
                  {"value", K::Number},
                  {"count", K::Integer},
                  {"mean", K::Number},
                  {"m2", K::Number},
                  {"min", K::Number},
                  {"max", K::Number},
                  {"bins", K::Array},
                  {"bins/0/0", K::Integer},
                  {"bins/0/1", K::Integer}}});

  // -- monitor ------------------------------------------------------------------
  const monitor::MonitorSpec mspec = small_monitor_spec();
  const auto run = monitor::run_monitor(mspec, 1);
  if (!run) throw std::logic_error("monitor run failed: " + run.error());
  const auto report = monitor::diagnose_events(run.value(), 1, {});
  if (!report) throw std::logic_error("diagnosis failed: " + report.error());

  monitor::MonitorEvent event;
  event.type = "flap";
  event.vantage = "ec2-ohio";
  event.resolver = "dns.google";
  event.protocol = "DoH";
  event.start_epoch = 1;
  event.end_epoch = 3;
  event.transitions = 3;
  out.push_back({"MonitorEvent", test::as_dom(event), via_from_json<monitor::MonitorEvent>(),
                 {{"type", K::String},
                  {"vantage", K::String},
                  {"resolver", K::String},
                  {"protocol", K::String},
                  {"start_epoch", K::Integer},
                  {"end_epoch", K::Integer},
                  {"transitions", K::Integer}}});
  out.push_back({"SloThresholds", test::as_dom(monitor::SloThresholds{}),
                 via_from_json<monitor::SloThresholds>(),
                 {{"min_availability", K::Number},
                  {"max_p50_ms", K::Number},
                  {"max_p95_ms", K::Number},
                  {"max_p99_ms", K::Number}}});
  out.push_back({"SloConfig", test::as_dom(monitor::SloConfig{}),
                 via_from_json<monitor::SloConfig>(),
                 {{"window_epochs", K::Integer},
                  {"outage_availability", K::Number},
                  {"flap_transitions", K::Integer},
                  {"hyperscale/max_p50_ms", K::Number},
                  {"managed/min_availability", K::Number},
                  {"hobbyist/max_p99_ms", K::Number}}});
  const monitor::Diagnosis& diagnosis = report.value().diagnoses.at(0);
  out.push_back({"CauseVerdict", test::as_dom(diagnosis.verdicts.at(0)),
                 via_from_json<monitor::CauseVerdict>(),
                 {{"cause", K::String},
                  {"score", K::Number},
                  {"evidence", K::Integer},
                  {"rationale", K::String}}});
  monitor::DiagnosisScope scope;
  scope.classification = "regional";
  scope.affected_vantages = {"ec2-ohio"};
  scope.affected_regions = {"NA"};
  scope.vantages_observed = 1;
  out.push_back({"DiagnosisScope", test::as_dom(scope), via_from_json<monitor::DiagnosisScope>(),
                 {{"classification", K::String},
                  {"affected_vantages", K::Array},
                  {"affected_vantages/0", K::String},
                  {"affected_regions", K::Array},
                  {"affected_regions/0", K::String},
                  {"vantages_observed", K::Integer}}});
  out.push_back({"StageBreakdown", test::as_dom(monitor::StageBreakdown{1, 2, 3, 4, 5}),
                 via_from_json<monitor::StageBreakdown>(),
                 {{"connect", K::Integer},
                  {"handshake", K::Integer},
                  {"query", K::Integer},
                  {"timeout", K::Integer},
                  {"other", K::Integer}}});
  out.push_back({"PhaseProfile", test::as_dom(monitor::PhaseProfile{}),
                 via_from_json<monitor::PhaseProfile>(),
                 {{"queries", K::Integer},
                  {"failures", K::Integer},
                  {"availability", K::Number},
                  {"reused_fraction", K::Number},
                  {"response_ms", K::Number},
                  {"tcp_ms", K::Number},
                  {"tls_ms", K::Number},
                  {"quic_ms", K::Number},
                  {"wait_ms", K::Number},
                  {"exchange_ms", K::Number}}});
  out.push_back({"PhaseDelta", test::as_dom(monitor::PhaseDelta{}), via_from_json<monitor::PhaseDelta>(),
                 {{"availability", K::Number},
                  {"reused_fraction", K::Number},
                  {"response_ms", K::Number},
                  {"tcp_ms", K::Number},
                  {"tls_ms", K::Number},
                  {"quic_ms", K::Number},
                  {"wait_ms", K::Number},
                  {"exchange_ms", K::Number}}});
  out.push_back({"Exemplar", test::as_dom(monitor::Exemplar{}), via_from_json<monitor::Exemplar>(),
                 {{"vantage", K::String},
                  {"domain", K::String},
                  {"epoch", K::Integer},
                  {"round", K::Integer},
                  {"ok", K::Bool},
                  {"response_ms", K::Number},
                  {"failure_stage", K::String},
                  {"error_class", K::String},
                  {"flight_ref", K::String}}});
  out.push_back({"Diagnosis", test::as_dom(diagnosis), via_from_json<monitor::Diagnosis>(),
                 {{"version", K::Integer},
                  {"event/start_epoch", K::Integer},
                  {"baseline_from", K::Integer},
                  {"baseline_to", K::Integer},
                  {"dominant_stage", K::String},
                  {"stages/connect", K::Integer},
                  {"baseline/queries", K::Integer},
                  {"window/response_ms", K::Number},
                  {"delta/tcp_ms", K::Number},
                  {"scope/vantages_observed", K::Integer},
                  {"verdicts", K::Array},
                  {"verdicts/0/evidence", K::Integer},
                  {"exemplars", K::Array},
                  {"exemplars/0/round", K::Integer}}});
  out.push_back({"DiagnosisReport", test::as_dom(report.value()),
                 via_from_json<monitor::DiagnosisReport>(),
                 {{"version", K::Integer},
                  {"diagnoses", K::Array},
                  {"diagnoses/0/baseline_to", K::Integer}}});
  out.push_back({"OutageScript", test::as_dom(mspec.outages.at(0)),
                 via_from_json<monitor::OutageScript>(),
                 {{"resolver", K::String}, {"from_epoch", K::Integer}, {"to_epoch", K::Integer}}});
  out.push_back({"MonitorSpec", test::as_dom(mspec), via_from_json<monitor::MonitorSpec>(),
                 {{"base/rounds", K::Integer},
                  {"epochs", K::Integer},
                  {"outages", K::Array},
                  {"outages/0/to_epoch", K::Integer},
                  {"slo/window_epochs", K::Integer}}});
  std::vector<Field> result_fields = {{"spec/epochs", K::Integer},
                                      {"spec/base/seed", K::String},
                                      {"evidence", K::Array},
                                      {"evidence/0", K::Array}};
  // Evidence rows are positional: [resolver, vantage, domain, epoch, round,
  // ok, reused, six phase values(, failure_stage, error_class)].
  const Kind row_kinds[] = {K::Integer, K::Integer, K::Integer, K::Integer, K::Integer,
                            K::Bool,    K::Bool,    K::Number,  K::Number,  K::Number,
                            K::Number,  K::Number,  K::Number};
  for (std::size_t i = 0; i < std::size(row_kinds); ++i) {
    result_fields.push_back({"evidence/0/" + std::to_string(i), row_kinds[i]});
  }
  const std::string failed = "evidence/" + std::to_string(first_failed_row(run.value()));
  result_fields.push_back({failed + "/13", K::String});
  result_fields.push_back({failed + "/14", K::String});
  out.push_back({"MonitorResult", test::as_dom(run.value()), via_from_json<monitor::MonitorResult>(),
                 std::move(result_fields)});
  return out;
}

TEST(HostileJson, EveryDecoderRefusesBadFieldsByName) {
  std::size_t rows = 0;
  for (const Decoder& d : decoders()) {
    ASSERT_EQ(d.decode(d.good), "") << d.name << ": the unmutated document must decode";
    for (const Field& f : d.fields) {
      const std::string name = field_name(f.path);
      for (const util::Json& bad : bad_values(f.kind)) {
        util::Json doc = d.good;
        util::Json* target = slot(doc, f.path);
        ASSERT_NE(target, nullptr) << d.name << ": no slot " << f.path;
        *target = bad;
        const std::string err = d.decode(doc);
        const std::string row = d.name + " " + f.path + " = " + bad.dump();
        ++rows;
        EXPECT_NE(err, "") << row << " was accepted";
        EXPECT_TRUE(err.find(name + " must") != std::string::npos ||
                    err.find(name + "[") != std::string::npos)
            << row << ": error does not name the field: " << err;
      }
    }
  }
  EXPECT_GT(rows, 500u);  // the table did not silently empty
}

// Mutations the type table cannot express: values of the right JSON type,
// or rows that do not follow the spec's plan, that the monitor codec must
// still refuse, each with the words its error must contain.
TEST(HostileJson, EvidenceAndEpochSeedsAreCheckedAgainstTheSpec) {
  const monitor::MonitorSpec mspec = small_monitor_spec();
  const auto run = monitor::run_monitor(mspec, 1);
  ASSERT_TRUE(run) << run.error();
  const util::Json good = test::as_dom(run.value());
  ASSERT_TRUE(monitor::MonitorResult::from_json(good));
  const std::string failed = "evidence/" + std::to_string(first_failed_row(run.value()));

  struct Mutation {
    std::string what;
    std::function<void(util::Json&)> apply;
    std::string error;
  };
  const auto set = [](std::string path, util::Json value) {
    return [path, value](util::Json& doc) {
      util::Json* target = slot(doc, path);
      if (target == nullptr) throw std::logic_error("no slot " + path);
      *target = value;
    };
  };
  const auto resize = [](std::string path, std::size_t size) {
    return [path, size](util::Json& doc) {
      util::Json* target = slot(doc, path);
      if (target == nullptr) throw std::logic_error("no slot " + path);
      target->as_array().resize(size, util::Json("connect"));
    };
  };
  // The spec plans 1 resolver x 1 vantage x 3 domains x 1 round: rows
  // [3e, 3e + 3) belong to epoch e.
  const auto rows = [](util::Json& doc) -> util::JsonArray& {
    return doc.as_object()["evidence"].as_array();
  };
  const auto drop_row = [rows](std::size_t i) {
    return [rows, i](util::Json& doc) {
      util::JsonArray& all = rows(doc);
      all.erase(all.begin() + static_cast<std::ptrdiff_t>(i));
    };
  };
  const auto repeat_row = [rows](std::size_t i) {
    return [rows, i](util::Json& doc) {
      util::JsonArray& all = rows(doc);
      const util::Json copy = all[i];
      all.insert(all.begin() + static_cast<std::ptrdiff_t>(i), copy);
    };
  };
  const std::vector<Mutation> mutations = {
      {"resolver index past the list", set("evidence/0/0", util::Json(2)), "resolver index 2"},
      {"vantage index past the list", set("evidence/0/1", util::Json(1)), "vantage index 1"},
      {"domain index past the list", set("evidence/0/2", util::Json(3)), "domain index 3"},
      {"epoch past the spec", set("evidence/0/3", util::Json(4)), "epoch 4"},
      {"negative epoch", set("evidence/0/3", util::Json(-1)), "epoch -1"},
      {"round past the spec", set("evidence/0/4", util::Json(1)), "round 1"},
      {"non-integral epoch", set("evidence/0/3", util::Json(1.5)), "evidence[0]"},
      {"epoch 1e300", set("evidence/0/3", util::Json(1e300)), "evidence[0]"},
      {"round 1e300", set("evidence/0/4", util::Json(1e300)), "evidence[0]"},
      {"ok row with 12 slots", resize("evidence/0", 12), "array of 13"},
      {"ok row with 15 slots", resize("evidence/0", 15), "ok row has 13"},
      {"failed row with 13 slots", resize(failed, 13), "ok row has 13"},
      {"row of 16 slots", resize("evidence/0", 16), "array of 13"},
      {"seed not hex", set("spec/base/seed", util::Json("zzzzzzzzzzzzzzzz")), "seed"},
      {"seed too short", set("spec/base/seed", util::Json("ff")), "seed"},
      {"seed in upper case", set("spec/base/seed", util::Json("FFFFFFFFFFFFFFFF")), "seed"},
      {"seed as a number", set("spec/base/seed", util::Json(7.0)), "16 lowercase hex digits"},
      {"missing evidence", [](util::Json& doc) { doc.as_object().erase("evidence"); },
       "missing evidence"},
      {"an epoch short one row", drop_row(4), "3 per epoch over 4 epochs"},
      {"an epoch with one extra row", repeat_row(4), "3 per epoch over 4 epochs"},
      {"rows out of epoch order",
       [rows](util::Json& doc) { std::swap(rows(doc)[2], rows(doc)[3]); }, "out of order"},
      {"one epoch short, the next one over",
       [rows](util::Json& doc) { rows(doc)[2] = rows(doc)[3]; }, "out of order"},
  };
  for (const Mutation& m : mutations) {
    util::Json doc = good;
    m.apply(doc);
    const auto r = monitor::MonitorResult::from_json(doc);
    ASSERT_FALSE(r) << m.what << " was accepted";
    EXPECT_NE(r.error().find(m.error), std::string::npos)
        << m.what << ": error does not say \"" << m.error << "\": " << r.error();
  }
}

}  // namespace
}  // namespace ednsm
