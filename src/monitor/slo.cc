#include "monitor/slo.h"

#include <algorithm>
#include <cmath>

namespace ednsm::monitor {

namespace {

constexpr std::string_view kHealthy = "healthy";
constexpr std::string_view kDegraded = "degraded";
constexpr std::string_view kOutage = "outage";

// Window quantiles come back NaN when no successful query landed in the
// window; report 0 so the JSON stays finite (the availability signal already
// covers the all-failures case).
double finite_or_zero(double v) noexcept { return std::isnan(v) ? 0.0 : v; }

}  // namespace

// Keys in sorted order, as Json::dump writes objects.
void SloThresholds::to_json(util::JsonWriter& w) const {
  w.begin_object();
  w.key("max_p50_ms").value(max_p50_ms);
  w.key("max_p95_ms").value(max_p95_ms);
  w.key("max_p99_ms").value(max_p99_ms);
  w.key("min_availability").value(min_availability);
  w.end_object();
}

Result<SloThresholds> SloThresholds::from_json(const util::Json& j) {
  SloThresholds t;
  util::JsonFields f(j, "slo thresholds");
  f.optional("min_availability", t.min_availability)
      .optional("max_p50_ms", t.max_p50_ms)
      .optional("max_p95_ms", t.max_p95_ms)
      .optional("max_p99_ms", t.max_p99_ms);
  return f.result(t);
}

const SloThresholds& SloConfig::for_tier(resolver::OperatorTier tier) const noexcept {
  switch (tier) {
    case resolver::OperatorTier::Hyperscale:
      return hyperscale;
    case resolver::OperatorTier::Managed:
      return managed;
    case resolver::OperatorTier::Hobbyist:
      return hobbyist;
  }
  return hobbyist;
}

const SloThresholds& SloConfig::for_resolver(std::string_view hostname) const noexcept {
  const resolver::ResolverSpec* spec = resolver::find_resolver(hostname);
  return for_tier(spec != nullptr ? spec->tier : resolver::OperatorTier::Hobbyist);
}

Result<void> SloConfig::validate() const {
  if (window_epochs < 1) return Err{std::string("slo: window_epochs must be >= 1")};
  if (outage_availability < 0.0 || outage_availability > 1.0) {
    return Err{std::string("slo: outage_availability must be in [0, 1]")};
  }
  if (flap_transitions < 2) return Err{std::string("slo: flap_transitions must be >= 2")};
  return {};
}

void SloConfig::to_json(util::JsonWriter& w) const {
  w.begin_object();
  w.key("flap_transitions").value(flap_transitions);
  w.key("hobbyist");
  hobbyist.to_json(w);
  w.key("hyperscale");
  hyperscale.to_json(w);
  w.key("managed");
  managed.to_json(w);
  w.key("outage_availability").value(outage_availability);
  w.key("window_epochs").value(window_epochs);
  w.end_object();
}

Result<SloConfig> SloConfig::from_json(const util::Json& j) {
  SloConfig c;
  util::JsonFields f(j, "slo config");
  f.optional("window_epochs", c.window_epochs)
      .optional("outage_availability", c.outage_availability)
      .optional("flap_transitions", c.flap_transitions)
      .optional("hyperscale", c.hyperscale)
      .optional("managed", c.managed)
      .optional("hobbyist", c.hobbyist);
  if (!f) return Err{f.error()};
  if (auto v = c.validate(); !v) return Err{v.error()};
  return c;
}

void SloSample::to_json(util::JsonWriter& w) const {
  w.begin_object();
  w.key("availability").value(availability);
  w.key("epoch").value(epoch);
  w.key("failures").value(failures);
  w.key("p50_ms").value(p50_ms);
  w.key("p95_ms").value(p95_ms);
  w.key("p99_ms").value(p99_ms);
  w.key("protocol").value(protocol);
  w.key("queries").value(queries);
  w.key("resolver").value(resolver);
  w.key("state").value(state);
  w.key("vantage").value(vantage);
  w.key("window_availability").value(window_availability);
  w.key("window_failures").value(window_failures);
  w.key("window_queries").value(window_queries);
  w.end_object();
}

std::string slos_json(const std::vector<SloSample>& slos) {
  util::JsonWriter w(2);
  w.begin_array();
  for (const SloSample& s : slos) s.to_json(w);
  w.end_array();
  return std::move(w).take();
}

std::vector<SloSample> evaluate_slos(const obs::TimeSeries& series, const SloConfig& config,
                                     const std::vector<std::string>& vantage_ids,
                                     const std::vector<std::string>& resolvers,
                                     std::string_view protocol, int epochs) {
  std::vector<SloSample> out;
  out.reserve(vantage_ids.size() * resolvers.size() * static_cast<std::size_t>(epochs));
  for (const std::string& vantage : vantage_ids) {
    for (const std::string& resolver_host : resolvers) {
      const SloThresholds& limits = config.for_resolver(resolver_host);
      for (int e = 0; e < epochs; ++e) {
        SloSample s;
        s.vantage = vantage;
        s.resolver = resolver_host;
        s.protocol = std::string(protocol);
        s.epoch = e;
        s.queries = series.counter_at(kMetricQueries, vantage, resolver_host, protocol, e);
        s.failures = series.counter_at(kMetricFailures, vantage, resolver_host, protocol, e);
        s.availability =
            s.queries > 0
                ? 1.0 - static_cast<double>(s.failures) / static_cast<double>(s.queries)
                : 1.0;

        const int from = std::max(0, e - config.window_epochs + 1);
        for (int w = from; w <= e; ++w) {
          s.window_queries += series.counter_at(kMetricQueries, vantage, resolver_host, protocol, w);
          s.window_failures +=
              series.counter_at(kMetricFailures, vantage, resolver_host, protocol, w);
        }
        s.window_availability =
            s.window_queries > 0 ? 1.0 - static_cast<double>(s.window_failures) /
                                             static_cast<double>(s.window_queries)
                                 : 1.0;
        s.p50_ms = finite_or_zero(
            series.window_quantile(kMetricResponseMs, vantage, resolver_host, protocol, from, e, 0.50));
        s.p95_ms = finite_or_zero(
            series.window_quantile(kMetricResponseMs, vantage, resolver_host, protocol, from, e, 0.95));
        s.p99_ms = finite_or_zero(
            series.window_quantile(kMetricResponseMs, vantage, resolver_host, protocol, from, e, 0.99));

        if (s.queries > 0 && s.availability < config.outage_availability) {
          s.state = std::string(kOutage);
        } else if (s.window_queries > 0 &&
                   (s.window_availability < limits.min_availability ||
                    s.p50_ms > limits.max_p50_ms || s.p95_ms > limits.max_p95_ms ||
                    s.p99_ms > limits.max_p99_ms)) {
          s.state = std::string(kDegraded);
        } else {
          s.state = std::string(kHealthy);
        }
        out.push_back(std::move(s));
      }
    }
  }
  return out;
}

}  // namespace ednsm::monitor
