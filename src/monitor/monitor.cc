#include "monitor/monitor.h"

#include <optional>
#include <ostream>

namespace ednsm::monitor {

util::Json OutageScript::to_json() const {
  util::JsonObject o;
  o["resolver"] = resolver;
  o["from_epoch"] = from_epoch;
  o["to_epoch"] = to_epoch;
  return util::Json(std::move(o));
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

util::Json MonitorSpec::to_json() const {
  util::JsonObject o;
  o["base"] = base.to_json();
  o["epochs"] = epochs;
  util::JsonArray arr;
  arr.reserve(outages.size());
  for (const OutageScript& s : outages) arr.push_back(s.to_json());
  o["outages"] = util::Json(std::move(arr));
  o["slo"] = slo.to_json();
  return util::Json(std::move(o));
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

util::Json EpochSummary::to_json() const {
  util::JsonObject o;
  o["epoch"] = epoch;
  o["seed"] = seed;
  o["queries"] = queries;
  o["failures"] = failures;
  o["availability"] = availability;
  return util::Json(std::move(o));
}

Result<EpochSummary> EpochSummary::from_json(const util::Json& j) {
  EpochSummary s;
  util::JsonFields f(j, "epoch summary");
  f.required("epoch", s.epoch)
      .optional("seed", s.seed)
      .optional("queries", s.queries)
      .optional("failures", s.failures)
      .optional("availability", s.availability);
  return f.result(s);
}

util::Json MonitorResult::to_json() const {
  util::JsonObject o;
  o["spec"] = spec.to_json();
  util::JsonArray epoch_arr;
  epoch_arr.reserve(epochs.size());
  for (const EpochSummary& e : epochs) epoch_arr.push_back(e.to_json());
  o["epochs"] = util::Json(std::move(epoch_arr));
  util::JsonObject series_obj;
  series_obj["bucket_width"] = series.bucket_width();
  util::JsonArray points;
  for (const obs::SeriesPoint& p : series.snapshot()) points.push_back(p.to_json());
  series_obj["points"] = util::Json(std::move(points));
  o["series"] = util::Json(std::move(series_obj));
  util::JsonArray slo_arr;
  slo_arr.reserve(slos.size());
  for (const SloSample& s : slos) slo_arr.push_back(s.to_json());
  o["slos"] = util::Json(std::move(slo_arr));
  o["events"] = events_to_json(events);
  return util::Json(std::move(o));
}

Result<MonitorResult> MonitorResult::from_json(const util::Json& j) {
  MonitorResult out;
  std::optional<std::int64_t> bucket_width;
  std::vector<obs::SeriesPoint> points;
  util::JsonFields f(j, "monitor result");
  f.required("spec", out.spec)
      .optional("epochs", out.epochs)
      .optional("slos", out.slos)
      .optional("events", out.events);
  util::JsonFields series = f.object("series");
  series.optional("bucket_width", bucket_width).optional("points", points);
  if (!f) return Err{f.error()};
  if (bucket_width.has_value()) out.series = obs::TimeSeries(*bucket_width);
  for (const obs::SeriesPoint& p : points) {
    if (auto ins = out.series.insert(p); !ins) return Err{ins.error()};
  }
  return out;
}

void MonitorResult::write_json(std::ostream& os, int indent) const {
  os << to_json().dump(indent) << '\n';
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
