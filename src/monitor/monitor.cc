#include "monitor/monitor.h"

#include <map>
#include <optional>
#include <ostream>
#include <string_view>
#include <tuple>

#include "util/bytes.h"

namespace ednsm::monitor {

namespace {

constexpr std::size_t kOkSlots = 13;
constexpr std::size_t kFailedSlots = 15;

// Position of each name in a spec list; a repeated name keeps its first index.
std::map<std::string_view, std::uint32_t> index_names(const std::vector<std::string>& names) {
  std::map<std::string_view, std::uint32_t> out;
  for (std::size_t i = 0; i < names.size(); ++i) {
    out.emplace(names[i], static_cast<std::uint32_t>(i));
  }
  return out;
}

Result<void> check_row(const EvidenceRow& row, const MonitorSpec& spec) {
  const auto in_list = [](std::uint32_t index, const std::vector<std::string>& list) {
    return index < list.size();
  };
  if (!in_list(row.resolver, spec.base.resolvers)) {
    return Err{"resolver index " + std::to_string(row.resolver) + " is not in the spec"};
  }
  if (!in_list(row.vantage, spec.base.vantage_ids)) {
    return Err{"vantage index " + std::to_string(row.vantage) + " is not in the spec"};
  }
  if (!in_list(row.domain, spec.base.domains)) {
    return Err{"domain index " + std::to_string(row.domain) + " is not in the spec"};
  }
  if (row.epoch < 0 || row.epoch >= spec.epochs) {
    return Err{"epoch " + std::to_string(row.epoch) + " is outside the spec's epochs"};
  }
  if (row.round < 0 || row.round >= spec.base.rounds) {
    return Err{"round " + std::to_string(row.round) + " is outside the spec's rounds"};
  }
  return {};
}

}  // namespace

// Keys in sorted order, as Json::dump writes objects; the encoders below
// follow the same rule.
void OutageScript::to_json(util::JsonWriter& w) const {
  w.begin_object();
  w.key("from_epoch").value(from_epoch);
  w.key("resolver").value(resolver);
  w.key("to_epoch").value(to_epoch);
  w.end_object();
}

Result<OutageScript> OutageScript::from_json(const util::Json& j) {
  OutageScript s;
  util::JsonFields f(j, "outage script");
  f.required("resolver", s.resolver).required("from_epoch", s.from_epoch)
      .required("to_epoch", s.to_epoch);
  return f.result(std::move(s));
}

Result<void> MonitorSpec::validate() const {
  if (auto v = base.validate(); !v) return Err{v.error()};
  if (epochs < 1) return Err{std::string("monitor: epochs must be >= 1")};
  if (auto v = slo.validate(); !v) return Err{v.error()};
  for (const OutageScript& o : outages) {
    if (o.resolver.empty()) return Err{std::string("monitor: outage script needs a resolver")};
    if (o.from_epoch < 0 || o.to_epoch <= o.from_epoch) {
      return Err{std::string("monitor: outage epochs must satisfy 0 <= from < to")};
    }
  }
  return {};
}

void MonitorSpec::to_json(util::JsonWriter& w) const {
  w.begin_object();
  w.key("base").value(base.to_json());
  w.key("epochs").value(epochs);
  w.key("outages").begin_array();
  for (const OutageScript& s : outages) s.to_json(w);
  w.end_array();
  w.key("slo");
  slo.to_json(w);
  w.end_object();
}

Result<MonitorSpec> MonitorSpec::from_json(const util::Json& j) {
  MonitorSpec spec;
  util::JsonFields f(j, "monitor spec");
  f.required("base", spec.base)
      .optional("epochs", spec.epochs)
      .optional("outages", spec.outages)
      .optional("slo", spec.slo);
  if (!f) return Err{f.error()};
  if (auto v = spec.validate(); !v) return Err{v.error()};
  return spec;
}

void EpochSummary::to_json(util::JsonWriter& w) const {
  w.begin_object();
  w.key("availability").value(availability);
  w.key("epoch").value(epoch);
  w.key("failures").value(failures);
  w.key("queries").value(queries);
  w.key("seed").value(util::u64_to_hex(seed));
  w.end_object();
}

Result<EpochSummary> EpochSummary::from_json(const util::Json& j) {
  EpochSummary s;
  std::optional<std::string> seed;
  util::JsonFields f(j, "epoch summary");
  f.required("epoch", s.epoch)
      .optional("seed", seed)
      .optional("queries", s.queries)
      .optional("failures", s.failures)
      .optional("availability", s.availability);
  if (!f) return Err{f.error()};
  if (seed.has_value()) {
    auto parsed = util::u64_from_hex(*seed);
    if (!parsed) return Err{"epoch summary: seed: " + parsed.error()};
    s.seed = parsed.value();
  }
  return s;
}

void EvidenceRow::to_json(util::JsonWriter& w) const {
  w.begin_array()
      .value(static_cast<std::uint64_t>(resolver))
      .value(static_cast<std::uint64_t>(vantage))
      .value(static_cast<std::uint64_t>(domain))
      .value(epoch)
      .value(round)
      .value(ok)
      .value(reused)
      .shortest(response_ms)
      .shortest(tcp_ms)
      .shortest(tls_ms)
      .shortest(quic_ms)
      .shortest(wait_ms)
      .shortest(exchange_ms);
  if (!ok) w.value(failure_stage).value(error_class);
  w.end_array();
}

Result<EvidenceRow> EvidenceRow::from_json(const util::Json& j) {
  EvidenceRow r;
  const std::size_t slots = j.is_array() ? j.as_array().size() : 0;
  if (slots != kOkSlots && slots != kFailedSlots) {
    return Err{std::string("evidence row must be an array of 13 (ok) or 15 (failed) slots")};
  }
  auto common = std::tie(r.resolver, r.vantage, r.domain, r.epoch, r.round, r.ok, r.reused,
                         r.response_ms, r.tcp_ms, r.tls_ms, r.quic_ms, r.wait_ms, r.exchange_ms);
  std::string err;
  if (slots == kOkSlots) {
    err = util::json_read::read(j, common);
  } else {
    auto all = std::tuple_cat(common, std::tie(r.failure_stage, r.error_class));
    err = util::json_read::read(j, all);
  }
  if (!err.empty()) return Err{"evidence row" + err};
  if (r.ok != (slots == kOkSlots)) {
    return Err{std::string("evidence row: an ok row has 13 slots, a failed row 15")};
  }
  return r;
}

Result<void> MonitorResult::check_evidence() const {
  for (std::size_t i = 0; i < evidence.size(); ++i) {
    if (auto v = check_row(evidence[i], spec); !v) {
      return Err{"evidence[" + std::to_string(i) + "]: " + v.error()};
    }
  }
  return {};
}

void MonitorResult::to_json(util::JsonWriter& w) const {
  w.begin_object();
  w.key("epochs").begin_array();
  for (const EpochSummary& e : epochs) e.to_json(w);
  w.end_array();
  w.key("events");
  events_to_json(events, w);
  w.key("evidence").begin_array();
  for (const EvidenceRow& row : evidence) row.to_json(w);
  w.end_array();
  w.key("series").begin_object();
  w.key("bucket_width").value(series.bucket_width());
  w.key("points").begin_array();
  for (const obs::SeriesPoint& p : series.snapshot()) p.to_json(w);
  w.end_array();
  w.end_object();
  w.key("slos");
  slos_to_json(slos, w);
  w.key("spec");
  spec.to_json(w);
  w.end_object();
}

Result<MonitorResult> MonitorResult::from_json(const util::Json& j) {
  MonitorResult out;
  std::optional<std::int64_t> bucket_width;
  std::vector<obs::SeriesPoint> points;
  util::JsonFields f(j, "monitor result");
  f.required("spec", out.spec)
      .optional("epochs", out.epochs)
      .optional("slos", out.slos)
      .optional("events", out.events)
      .optional("evidence", out.evidence);
  util::JsonFields series = f.object("series");
  series.optional("bucket_width", bucket_width).optional("points", points);
  if (!f) return Err{f.error()};
  if (auto v = out.check_evidence(); !v) return Err{"monitor result: " + v.error()};
  if (bucket_width.has_value()) out.series = obs::TimeSeries(*bucket_width);
  for (const obs::SeriesPoint& p : points) {
    if (auto ins = out.series.insert(p); !ins) return Err{ins.error()};
  }
  return out;
}

void MonitorResult::write_json(std::ostream& os, int indent) const {
  util::JsonWriter w(os, indent);
  to_json(w);
  w.flush();
  os << '\n';
}

void evaluate_result(MonitorResult& result) {
  result.slos = evaluate_slos(result.series, result.spec.slo, result.spec.base.vantage_ids,
                              result.spec.base.resolvers,
                              client::to_string(result.spec.base.protocol), result.spec.epochs);
  result.events = detect_events(result.slos, result.spec.slo);
}

core::MeasurementSpec epoch_campaign_spec(const MonitorSpec& spec, std::uint64_t epoch_seed,
                                          int epoch) {
  core::MeasurementSpec epoch_spec = spec.base;
  epoch_spec.seed = epoch_seed;
  for (const OutageScript& script : spec.outages) {
    if (script.from_epoch <= epoch && epoch < script.to_epoch) {
      // Whole-epoch outage: every round of this epoch's campaign.
      epoch_spec.fault_windows.push_back(core::FaultWindow{script.resolver, 0, epoch_spec.rounds});
    }
  }
  return epoch_spec;
}

Result<MonitorResult> run_monitor(const MonitorSpec& spec, int threads) {
  if (auto v = spec.validate(); !v) return Err{v.error()};
  if (threads < 1) return Err{std::string("monitor: threads must be >= 1")};

  MonitorResult out;
  out.spec = spec;

  // One seed per epoch, derived exactly like campaign shards: the whole run
  // is a pure function of (spec, epochs) for any thread count.
  const std::vector<std::uint64_t> seeds =
      core::shard_seeds(spec.base.seed, static_cast<std::size_t>(spec.epochs));
  const auto resolvers = index_names(spec.base.resolvers);
  const auto vantages = index_names(spec.base.vantage_ids);
  const auto domains = index_names(spec.base.domains);
  out.evidence.reserve(spec.base.resolvers.size() * spec.base.vantage_ids.size() *
                       spec.base.domains.size() * static_cast<std::size_t>(spec.base.rounds) *
                       static_cast<std::size_t>(spec.epochs));

  for (int e = 0; e < spec.epochs; ++e) {
    const core::MeasurementSpec epoch_spec =
        epoch_campaign_spec(spec, seeds[static_cast<std::size_t>(e)], e);
    const core::CampaignResult result = core::run_parallel_campaign(epoch_spec, threads);

    EpochSummary summary;
    summary.epoch = e;
    summary.seed = epoch_spec.seed;
    for (const core::ResultRecord& r : result.records) {
      const std::string_view proto = client::to_string(r.protocol);
      out.series.add_counter(kMetricQueries, r.vantage, r.resolver, proto, e);
      ++summary.queries;
      if (r.ok) {
        out.series.observe(kMetricResponseMs, r.vantage, r.resolver, proto, e, r.response_ms);
      } else {
        out.series.add_counter(kMetricFailures, r.vantage, r.resolver, proto, e);
        ++summary.failures;
      }
      EvidenceRow& row = out.evidence.emplace_back();
      row.resolver = resolvers.at(r.resolver);
      row.vantage = vantages.at(r.vantage);
      row.domain = domains.at(r.domain);
      row.epoch = e;
      row.round = r.round;
      row.ok = r.ok;
      row.reused = r.connection_reused;
      row.response_ms = r.response_ms;
      row.tcp_ms = r.tcp_handshake_ms;
      row.tls_ms = r.tls_handshake_ms;
      row.quic_ms = r.quic_handshake_ms;
      row.wait_ms = r.pool_wait_ms;
      row.exchange_ms = r.exchange_ms;
      if (!r.ok) {
        row.failure_stage = r.failure_stage;
        row.error_class = r.error_class;
      }
    }
    summary.availability =
        summary.queries > 0
            ? 1.0 - static_cast<double>(summary.failures) / static_cast<double>(summary.queries)
            : 1.0;
    out.epochs.push_back(summary);
  }

  evaluate_result(out);
  return out;
}

}  // namespace ednsm::monitor
