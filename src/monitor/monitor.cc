#include "monitor/monitor.h"

#include <cstdint>
#include <map>
#include <ostream>
#include <string_view>
#include <tuple>

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

// Queries one epoch's campaign issues: resolvers x vantages x domains x
// rounds, saturating at SIZE_MAX (which no row count can match).
std::size_t planned_rows(const core::MeasurementSpec& base) {
  std::size_t rows = 1;
  for (const std::size_t factor : {base.resolvers.size(), base.vantage_ids.size(),
                                   base.domains.size(), static_cast<std::size_t>(base.rounds)}) {
    if (factor != 0 && rows > SIZE_MAX / factor) return SIZE_MAX;
    rows *= factor;
  }
  return rows;
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
  w.key("base");
  base.to_json(w);
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
  w.key("evidence").begin_array();
  for (const EvidenceRow& row : evidence) row.to_json(w);
  w.end_array();
  w.key("spec");
  spec.to_json(w);
  w.end_object();
}

Result<MonitorResult> MonitorResult::from_json(const util::Json& j) {
  MonitorResult out;
  util::JsonFields f(j, "monitor result");
  f.required("spec", out.spec).required("evidence", out.evidence);
  if (!f) return Err{f.error()};
  if (auto v = fold_evidence(out); !v) return Err{"monitor result: " + v.error()};
  return out;
}

void MonitorResult::write_json(std::ostream& os, int indent) const {
  util::JsonWriter w(os, indent);
  to_json(w);
  w.flush();
  os << '\n';
}

Result<void> fold_evidence(MonitorResult& result) {
  const MonitorSpec& spec = result.spec;
  if (auto v = spec.validate(); !v) return Err{v.error()};
  const core::MeasurementSpec& base = spec.base;
  const std::vector<EvidenceRow>& rows = result.evidence;
  const std::size_t per_epoch = planned_rows(base);
  const auto epochs = static_cast<std::size_t>(spec.epochs);
  if (rows.size() % per_epoch != 0 || rows.size() / per_epoch != epochs) {
    return Err{"evidence holds " + std::to_string(rows.size()) + " rows; the spec plans " +
               std::to_string(per_epoch) + " per epoch over " + std::to_string(epochs) +
               " epochs"};
  }

  // The seeds run_monitor gave each epoch's campaign.
  const std::vector<std::uint64_t> seeds = core::shard_seeds(base.seed, epochs);
  result.epochs.assign(epochs, EpochSummary{});
  for (std::size_t e = 0; e < epochs; ++e) {
    result.epochs[e].epoch = static_cast<int>(e);
    result.epochs[e].seed = seeds[e];
  }
  result.series = obs::TimeSeries();
  const std::string_view proto = client::to_string(base.protocol);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const EvidenceRow& row = rows[i];
    if (auto v = check_row(row, spec); !v) {
      return Err{"evidence[" + std::to_string(i) + "]: " + v.error()};
    }
    if (static_cast<std::size_t>(row.epoch) != i / per_epoch) {
      return Err{"evidence[" + std::to_string(i) + "]: epoch " + std::to_string(row.epoch) +
                 " is out of order: epochs ascend, " + std::to_string(per_epoch) + " rows each"};
    }
    const std::string& vantage = base.vantage_ids[row.vantage];
    const std::string& resolver = base.resolvers[row.resolver];
    EpochSummary& summary = result.epochs[static_cast<std::size_t>(row.epoch)];
    result.series.add_counter(kMetricQueries, vantage, resolver, proto, row.epoch);
    ++summary.queries;
    if (row.ok) {
      result.series.observe(kMetricResponseMs, vantage, resolver, proto, row.epoch,
                            row.response_ms);
    } else {
      result.series.add_counter(kMetricFailures, vantage, resolver, proto, row.epoch);
      ++summary.failures;
    }
  }
  for (EpochSummary& summary : result.epochs) {
    summary.availability =
        1.0 - static_cast<double>(summary.failures) / static_cast<double>(summary.queries);
  }
  evaluate_result(result);
  return {};
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
  out.evidence.reserve(planned_rows(spec.base) * static_cast<std::size_t>(spec.epochs));

  for (int e = 0; e < spec.epochs; ++e) {
    const core::MeasurementSpec epoch_spec =
        epoch_campaign_spec(spec, seeds[static_cast<std::size_t>(e)], e);
    const core::CampaignResult result = core::run_parallel_campaign(epoch_spec, threads);
    for (const core::ResultRecord& r : result.records) {
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
  }

  if (auto v = fold_evidence(out); !v) return Err{"monitor: " + v.error()};
  return out;
}

}  // namespace ednsm::monitor
