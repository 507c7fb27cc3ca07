#include "monitor/diagnose.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>
#include <optional>
#include <ostream>
#include <set>
#include <sstream>
#include <string_view>
#include <tuple>

#include "geo/vantage.h"
#include "stats/quantile.h"

namespace ednsm::monitor {

namespace {

constexpr double kAvailabilityDropAffected = 0.2;  // baseline -> window drop
constexpr double kLatencyRiseAffected = 1.5;       // window / baseline median
constexpr double kNoBaselineAffectedBelow = 0.8;   // absolute, epoch-0 events

double clamp01(double v) { return std::clamp(v, 0.0, 1.0); }

std::string fmt(const char* spec, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), spec, v);
  return std::string(buf);
}

// Continent of a vantage id; "Unknown" instead of the registry's throwing
// lookup so hand-written specs with ad-hoc ids stay diagnosable.
std::string region_of_vantage(const std::string& id) {
  for (const geo::VantagePoint& v : geo::paper_vantage_points()) {
    if (v.id == id) return std::string(geo::to_string(v.continent));
  }
  return "Unknown";
}

// Vantage indices of `names`, sorted by name; a repeated name keeps its first
// index, as the evidence rows do.
std::vector<std::uint32_t> by_name(const std::vector<std::string>& names) {
  std::vector<std::uint32_t> order(names.size());
  std::iota(order.begin(), order.end(), 0u);
  std::stable_sort(order.begin(), order.end(),
                   [&names](std::uint32_t a, std::uint32_t b) { return names[a] < names[b]; });
  order.erase(std::unique(order.begin(), order.end(),
                          [&names](std::uint32_t a, std::uint32_t b) {
                            return names[a] == names[b];
                          }),
              order.end());
  return order;
}

// Every vantage's view of the event's resolver, in vantage-name order.
DiagnosisScope classify_scope(const MonitorResult& result, std::uint32_t resolver,
                              int baseline_from, int baseline_to, int window_from,
                              int window_to) {
  const std::vector<std::string>& vantages = result.spec.base.vantage_ids;
  DiagnosisScope scope;
  std::set<std::string> regions;
  for (const std::uint32_t vantage : by_name(vantages)) {
    const PhaseProfile window =
        profile_phases(result.evidence, {resolver, vantage, window_from, window_to});
    if (window.queries == 0) continue;
    ++scope.vantages_observed;
    const PhaseProfile base =
        profile_phases(result.evidence, {resolver, vantage, baseline_from, baseline_to});
    bool affected = false;
    if (base.queries == 0) {
      affected = window.availability < kNoBaselineAffectedBelow;
    } else {
      if (window.availability < base.availability - kAvailabilityDropAffected) affected = true;
      if (base.response_ms > 0.0 && window.response_ms > kLatencyRiseAffected * base.response_ms) {
        affected = true;
      }
    }
    if (affected) {
      scope.affected_vantages.push_back(vantages[vantage]);
      regions.insert(region_of_vantage(vantages[vantage]));
    }
  }
  scope.affected_regions.assign(regions.begin(), regions.end());

  if (scope.affected_vantages.size() <= 1) {
    scope.classification = "single-vantage";
  } else if (static_cast<int>(scope.affected_vantages.size()) == scope.vantages_observed) {
    scope.classification = "global";
  } else {
    scope.classification = "regional";
  }
  return scope;
}

std::vector<CauseVerdict> rank_causes(const Diagnosis& d) {
  const StageBreakdown& st = d.stages;
  const std::uint64_t failures = st.total();
  const std::uint64_t successes = d.window.queries - d.window.failures;
  const double fail_frac =
      d.window.queries > 0
          ? static_cast<double>(d.window.failures) / static_cast<double>(d.window.queries)
          : 0.0;
  const auto share = [&](std::uint64_t count) {
    return failures > 0 ? static_cast<double>(count) / static_cast<double>(failures) : 0.0;
  };
  const std::size_t observed = static_cast<std::size_t>(std::max(d.scope.vantages_observed, 1));
  const double scope_frac =
      static_cast<double>(std::max<std::size_t>(d.scope.affected_vantages.size(),
                                                d.scope.classification == "single-vantage" ? 1 : 0)) /
      static_cast<double>(observed);

  const double base_hs_ms = d.baseline.tcp_ms + d.baseline.tls_ms + d.baseline.quic_ms;
  const double hs_delta_ms = d.delta.tcp_ms + d.delta.tls_ms + d.delta.quic_ms;
  const double hs_rise =
      base_hs_ms > 0.0 ? clamp01(std::max(0.0, hs_delta_ms) / base_hs_ms) : 0.0;
  const double lat_rise = d.baseline.response_ms > 0.0
                              ? clamp01(std::max(0.0, d.delta.response_ms) / d.baseline.response_ms)
                              : 0.0;
  const double ex_rise = d.baseline.exchange_ms > 0.0
                             ? clamp01(std::max(0.0, d.delta.exchange_ms) / d.baseline.exchange_ms)
                             : 0.0;
  const double reuse_shift = clamp01(2.0 * std::fabs(d.delta.reused_fraction));

  std::vector<CauseVerdict> verdicts;
  {
    CauseVerdict v;
    v.cause = "resolver-outage";
    v.score = clamp01(fail_frac * (share(st.connect) + share(st.timeout)) * scope_frac);
    v.evidence = st.connect + st.timeout;
    v.rationale = fmt("%.0f", fail_frac * 100.0) + "% of " + std::to_string(d.window.queries) +
                  " window queries failed; connect+timeout stage share " +
                  fmt("%.0f", (share(st.connect) + share(st.timeout)) * 100.0) + "%; " +
                  std::to_string(d.scope.affected_vantages.size()) + "/" +
                  std::to_string(d.scope.vantages_observed) + " vantages affected";
    verdicts.push_back(std::move(v));
  }
  {
    CauseVerdict v;
    v.cause = "handshake-layer-failure";
    v.score = clamp01(fail_frac * share(st.handshake) + 0.5 * (1.0 - fail_frac) * hs_rise);
    v.evidence = st.handshake;
    v.rationale = "handshake-stage share " + fmt("%.0f", share(st.handshake) * 100.0) +
                  "% of failures; handshake median delta " + fmt("%+.1f", hs_delta_ms) + " ms";
    verdicts.push_back(std::move(v));
  }
  {
    CauseVerdict v;
    v.cause = "path-degradation";
    // A latency rise seen from every vantage at once points at the resolver,
    // not the paths to it; halve the path score when the scope is global.
    v.score = clamp01((1.0 - fail_frac) * lat_rise *
                      (d.scope.classification == "global" ? 0.5 : 1.0));
    v.evidence = successes;
    v.rationale = "median response " + fmt("%+.1f", d.delta.response_ms) + " ms vs baseline (" +
                  fmt("%.1f", d.baseline.response_ms) + " -> " + fmt("%.1f", d.window.response_ms) +
                  "); scope " + d.scope.classification;
    verdicts.push_back(std::move(v));
  }
  {
    CauseVerdict v;
    v.cause = "cache-behavior-shift";
    v.score = clamp01((1.0 - fail_frac) * 0.5 * (ex_rise + reuse_shift));
    v.evidence = successes;
    v.rationale = "exchange median delta " + fmt("%+.1f", d.delta.exchange_ms) +
                  " ms; reused-connection fraction delta " + fmt("%+.2f", d.delta.reused_fraction);
    verdicts.push_back(std::move(v));
  }
  std::sort(verdicts.begin(), verdicts.end(), [](const CauseVerdict& a, const CauseVerdict& b) {
    if (a.score != b.score) return a.score > b.score;
    return a.cause < b.cause;
  });
  return verdicts;
}

}  // namespace

std::string_view StageBreakdown::dominant() const noexcept {
  if (total() == 0) return {};
  std::string_view name = "connect";
  std::uint64_t best = connect;
  const std::pair<std::string_view, std::uint64_t> rest[] = {
      {"handshake", handshake}, {"query", query}, {"timeout", timeout}, {"other", other}};
  for (const auto& [candidate, count] : rest) {
    if (count > best) {
      best = count;
      name = candidate;
    }
  }
  return name;
}

// Keys in sorted order, as Json::dump writes objects; the diagnosis golden
// pins it. The other encoders in this file follow the same rule.
void StageBreakdown::to_json(util::JsonWriter& w) const {
  w.begin_object();
  w.key("connect").value(connect);
  w.key("handshake").value(handshake);
  w.key("other").value(other);
  w.key("query").value(query);
  w.key("timeout").value(timeout);
  w.end_object();
}

Result<StageBreakdown> StageBreakdown::from_json(const util::Json& j) {
  StageBreakdown b;
  util::JsonFields f(j, "stage breakdown");
  f.optional("connect", b.connect)
      .optional("handshake", b.handshake)
      .optional("query", b.query)
      .optional("timeout", b.timeout)
      .optional("other", b.other);
  return f.result(b);
}

void PhaseProfile::to_json(util::JsonWriter& w) const {
  w.begin_object();
  w.key("availability").value(availability);
  w.key("exchange_ms").value(exchange_ms);
  w.key("failures").value(failures);
  w.key("queries").value(queries);
  w.key("quic_ms").value(quic_ms);
  w.key("response_ms").value(response_ms);
  w.key("reused_fraction").value(reused_fraction);
  w.key("tcp_ms").value(tcp_ms);
  w.key("tls_ms").value(tls_ms);
  w.key("wait_ms").value(wait_ms);
  w.end_object();
}

Result<PhaseProfile> PhaseProfile::from_json(const util::Json& j) {
  PhaseProfile p;
  util::JsonFields f(j, "phase profile");
  f.optional("queries", p.queries)
      .optional("failures", p.failures)
      .optional("availability", p.availability)
      .optional("reused_fraction", p.reused_fraction)
      .optional("response_ms", p.response_ms)
      .optional("tcp_ms", p.tcp_ms)
      .optional("tls_ms", p.tls_ms)
      .optional("quic_ms", p.quic_ms)
      .optional("wait_ms", p.wait_ms)
      .optional("exchange_ms", p.exchange_ms);
  return f.result(p);
}

void PhaseDelta::to_json(util::JsonWriter& w) const {
  w.begin_object();
  w.key("availability").value(availability);
  w.key("exchange_ms").value(exchange_ms);
  w.key("quic_ms").value(quic_ms);
  w.key("response_ms").value(response_ms);
  w.key("reused_fraction").value(reused_fraction);
  w.key("tcp_ms").value(tcp_ms);
  w.key("tls_ms").value(tls_ms);
  w.key("wait_ms").value(wait_ms);
  w.end_object();
}

Result<PhaseDelta> PhaseDelta::from_json(const util::Json& j) {
  PhaseDelta d;
  util::JsonFields f(j, "phase delta");
  f.optional("availability", d.availability)
      .optional("reused_fraction", d.reused_fraction)
      .optional("response_ms", d.response_ms)
      .optional("tcp_ms", d.tcp_ms)
      .optional("tls_ms", d.tls_ms)
      .optional("quic_ms", d.quic_ms)
      .optional("wait_ms", d.wait_ms)
      .optional("exchange_ms", d.exchange_ms);
  return f.result(d);
}

void Exemplar::to_json(util::JsonWriter& w) const {
  w.begin_object();
  w.key("domain").value(domain);
  w.key("epoch").value(epoch);
  w.key("error_class").value(error_class);
  w.key("failure_stage").value(failure_stage);
  w.key("flight_ref").value(flight_ref);
  w.key("ok").value(ok);
  w.key("response_ms").value(response_ms);
  w.key("round").value(round);
  w.key("vantage").value(vantage);
  w.end_object();
}

Result<Exemplar> Exemplar::from_json(const util::Json& j) {
  Exemplar e;
  util::JsonFields f(j, "exemplar");
  f.optional("vantage", e.vantage)
      .optional("domain", e.domain)
      .optional("epoch", e.epoch)
      .optional("round", e.round)
      .optional("ok", e.ok)
      .optional("response_ms", e.response_ms)
      .optional("failure_stage", e.failure_stage)
      .optional("error_class", e.error_class)
      .optional("flight_ref", e.flight_ref);
  return f.result(std::move(e));
}

StageBreakdown count_stages(const std::vector<EvidenceRow>& rows, const RowFilter& filter) {
  StageBreakdown b;
  for (const EvidenceRow& row : rows) {
    if (row.ok || !filter.matches(row)) continue;
    if (row.failure_stage == "connect") {
      ++b.connect;
    } else if (row.failure_stage == "handshake") {
      ++b.handshake;
    } else if (row.failure_stage == "query") {
      ++b.query;
    } else if (row.failure_stage == "timeout") {
      ++b.timeout;
    } else {
      ++b.other;
    }
  }
  return b;
}

PhaseProfile profile_phases(const std::vector<EvidenceRow>& rows, const RowFilter& filter) {
  PhaseProfile p;
  std::vector<double> response, tcp, tls, quic, wait, exchange;
  std::uint64_t reused = 0;
  for (const EvidenceRow& row : rows) {
    if (!filter.matches(row)) continue;
    ++p.queries;
    if (!row.ok) {
      ++p.failures;
      continue;
    }
    if (row.reused) ++reused;
    response.push_back(row.response_ms);
    tcp.push_back(row.tcp_ms);
    tls.push_back(row.tls_ms);
    quic.push_back(row.quic_ms);
    wait.push_back(row.wait_ms);
    exchange.push_back(row.exchange_ms);
  }
  if (p.queries > 0) {
    p.availability = 1.0 - static_cast<double>(p.failures) / static_cast<double>(p.queries);
  }
  if (!response.empty()) {
    p.reused_fraction = static_cast<double>(reused) / static_cast<double>(response.size());
    p.response_ms = stats::median(std::move(response));
    p.tcp_ms = stats::median(std::move(tcp));
    p.tls_ms = stats::median(std::move(tls));
    p.quic_ms = stats::median(std::move(quic));
    p.wait_ms = stats::median(std::move(wait));
    p.exchange_ms = stats::median(std::move(exchange));
  }
  return p;
}

PhaseDelta phase_delta(const PhaseProfile& baseline, const PhaseProfile& window) {
  PhaseDelta d;
  d.availability = window.availability - baseline.availability;
  d.reused_fraction = window.reused_fraction - baseline.reused_fraction;
  d.response_ms = window.response_ms - baseline.response_ms;
  d.tcp_ms = window.tcp_ms - baseline.tcp_ms;
  d.tls_ms = window.tls_ms - baseline.tls_ms;
  d.quic_ms = window.quic_ms - baseline.quic_ms;
  d.wait_ms = window.wait_ms - baseline.wait_ms;
  d.exchange_ms = window.exchange_ms - baseline.exchange_ms;
  return d;
}

std::vector<Exemplar> pick_exemplars(const core::MeasurementSpec& base,
                                     const std::vector<EvidenceRow>& rows,
                                     const RowFilter& filter, std::size_t limit) {
  std::vector<const EvidenceRow*> failures, successes;
  for (const EvidenceRow& row : rows) {
    if (!filter.matches(row)) continue;
    (row.ok ? successes : failures).push_back(&row);
  }
  const auto coords = [&base](const EvidenceRow* r) {
    return std::tie(r->epoch, base.vantage_ids[r->vantage], r->round, base.domains[r->domain]);
  };
  std::sort(failures.begin(), failures.end(),
            [&](const EvidenceRow* a, const EvidenceRow* b) { return coords(a) < coords(b); });
  std::sort(successes.begin(), successes.end(),
            [&](const EvidenceRow* a, const EvidenceRow* b) {
              if (a->response_ms != b->response_ms) return a->response_ms > b->response_ms;
              return coords(a) < coords(b);
            });

  std::vector<Exemplar> out;
  const auto take = [&out, &base](const EvidenceRow& row) {
    Exemplar e;
    e.vantage = base.vantage_ids[row.vantage];
    e.domain = base.domains[row.domain];
    e.epoch = row.epoch;
    e.round = row.round;
    e.ok = row.ok;
    e.response_ms = row.response_ms;
    e.failure_stage = row.failure_stage;
    e.error_class = row.error_class;
    out.push_back(std::move(e));
  };
  for (const EvidenceRow* row : failures) {
    if (out.size() >= limit) return out;
    take(*row);
  }
  for (const EvidenceRow* row : successes) {
    if (out.size() >= limit) return out;
    take(*row);
  }
  return out;
}

void CauseVerdict::to_json(util::JsonWriter& w) const {
  w.begin_object();
  w.key("cause").value(cause);
  w.key("evidence").value(evidence);
  w.key("rationale").value(rationale);
  w.key("score").value(score);
  w.end_object();
}

Result<CauseVerdict> CauseVerdict::from_json(const util::Json& j) {
  CauseVerdict v;
  util::JsonFields f(j, "cause verdict");
  f.required("cause", v.cause)
      .optional("score", v.score)
      .optional("evidence", v.evidence)
      .optional("rationale", v.rationale);
  return f.result(std::move(v));
}

void DiagnosisScope::to_json(util::JsonWriter& w) const {
  w.begin_object();
  w.key("affected_regions").begin_array();
  for (const std::string& r : affected_regions) w.value(r);
  w.end_array();
  w.key("affected_vantages").begin_array();
  for (const std::string& v : affected_vantages) w.value(v);
  w.end_array();
  w.key("classification").value(classification);
  w.key("vantages_observed").value(vantages_observed);
  w.end_object();
}

Result<DiagnosisScope> DiagnosisScope::from_json(const util::Json& j) {
  DiagnosisScope s;
  util::JsonFields f(j, "diagnosis scope");
  f.required("classification", s.classification)
      .optional("affected_vantages", s.affected_vantages)
      .optional("affected_regions", s.affected_regions)
      .optional("vantages_observed", s.vantages_observed);
  return f.result(std::move(s));
}

void Diagnosis::to_json(util::JsonWriter& w) const {
  w.begin_object();
  w.key("baseline");
  baseline.to_json(w);
  w.key("baseline_from").value(baseline_from);
  w.key("baseline_to").value(baseline_to);
  w.key("delta");
  delta.to_json(w);
  w.key("dominant_stage").value(dominant_stage);
  w.key("event");
  event.to_json(w);
  w.key("exemplars").begin_array();
  for (const Exemplar& e : exemplars) e.to_json(w);
  w.end_array();
  w.key("scope");
  scope.to_json(w);
  w.key("stages");
  stages.to_json(w);
  w.key("verdicts").begin_array();
  for (const CauseVerdict& v : verdicts) v.to_json(w);
  w.end_array();
  w.key("version").value(version);
  w.key("window");
  window.to_json(w);
  w.end_object();
}

Result<Diagnosis> Diagnosis::from_json(const util::Json& j) {
  Diagnosis d;
  util::JsonFields f(j, "diagnosis");
  f.optional("version", d.version);
  if (!f) return Err{f.error()};
  if (d.version != kDiagnosisVersion) {
    return Err{std::string("diagnosis: unsupported version ") + std::to_string(d.version)};
  }
  f.required("event", d.event)
      .optional("baseline_from", d.baseline_from)
      .optional("baseline_to", d.baseline_to)
      .optional("dominant_stage", d.dominant_stage)
      .optional("stages", d.stages)
      .optional("baseline", d.baseline)
      .optional("window", d.window)
      .optional("delta", d.delta)
      .optional("scope", d.scope)
      .optional("verdicts", d.verdicts)
      .optional("exemplars", d.exemplars);
  return f.result(std::move(d));
}

void DiagnosisReport::to_json(util::JsonWriter& w) const {
  w.begin_object();
  w.key("diagnoses").begin_array();
  for (const Diagnosis& d : diagnoses) d.to_json(w);
  w.end_array();
  w.key("version").value(version);
  w.end_object();
}

Result<DiagnosisReport> DiagnosisReport::from_json(const util::Json& j) {
  DiagnosisReport report;
  util::JsonFields f(j, "diagnosis report");
  f.optional("version", report.version);
  if (!f) return Err{f.error()};
  if (report.version != kDiagnosisVersion) {
    return Err{std::string("diagnosis report: unsupported version ") +
               std::to_string(report.version)};
  }
  f.optional("diagnoses", report.diagnoses);
  return f.result(std::move(report));
}

void DiagnosisReport::write_json(std::ostream& os, int indent) const {
  util::JsonWriter w(os, indent);
  to_json(w);
  w.flush();
  os << '\n';
}

namespace {

// Position of `name` in `names`, or nullopt; the first of repeated names,
// as in the evidence rows.
std::optional<std::uint32_t> index_of(const std::vector<std::string>& names,
                                      std::string_view name) {
  const auto it = std::find(names.begin(), names.end(), name);
  if (it == names.end()) return std::nullopt;
  return static_cast<std::uint32_t>(it - names.begin());
}

// Diagnose one event of the (resolver, vantage) pair it names.
Diagnosis diagnose_event(const MonitorResult& result, const MonitorEvent& event,
                         std::uint32_t resolver, std::uint32_t vantage,
                         const DiagnoseOptions& opts) {
  Diagnosis d;
  d.event = event;
  d.baseline_from = std::max(0, event.start_epoch - opts.baseline_epochs);
  d.baseline_to = event.start_epoch - 1;  // < baseline_from when no pre-event epochs exist

  // The event's own pair carries the stage/phase story; the scope classifier
  // reads every vantage's rows for the resolver.
  const RowFilter window{resolver, vantage, event.start_epoch, event.end_epoch};
  d.stages = count_stages(result.evidence, window);
  d.dominant_stage = std::string(d.stages.dominant());
  d.baseline =
      profile_phases(result.evidence, {resolver, vantage, d.baseline_from, d.baseline_to});
  d.window = profile_phases(result.evidence, window);
  d.delta = phase_delta(d.baseline, d.window);
  d.scope = classify_scope(result, resolver, d.baseline_from, d.baseline_to, event.start_epoch,
                           event.end_epoch);
  d.verdicts = rank_causes(d);
  d.exemplars = pick_exemplars(result.spec.base, result.evidence, window, opts.max_exemplars);
  for (Exemplar& e : d.exemplars) {
    e.flight_ref = "epoch" + std::to_string(e.epoch) + "/" + e.vantage + "/" + event.resolver +
                   "/r" + std::to_string(e.round) + "/" + e.domain;
  }
  return d;
}

}  // namespace

Result<DiagnosisReport> diagnose_events(const MonitorResult& result, int threads,
                                        const DiagnoseOptions& opts) {
  if (auto v = result.spec.validate(); !v) return Err{v.error()};
  if (threads < 1) return Err{std::string("diagnose: threads must be >= 1")};
  if (opts.baseline_epochs < 1) {
    return Err{std::string("diagnose: baseline epochs must be >= 1")};
  }
  if (auto v = result.check_evidence(); !v) return Err{"diagnose: " + v.error()};

  const core::MeasurementSpec& base = result.spec.base;
  DiagnosisReport report;
  report.diagnoses.reserve(result.events.size());
  for (const MonitorEvent& ev : result.events) {
    const auto resolver = index_of(base.resolvers, ev.resolver);
    const auto vantage = index_of(base.vantage_ids, ev.vantage);
    Diagnosis d;
    if (resolver && vantage) d = diagnose_event(result, ev, *resolver, *vantage, opts);
    if (d.window.queries == 0) {
      return Err{"diagnose: no evidence for the " + ev.type + " event " + ev.vantage + "/" +
                 ev.resolver + " epochs " + std::to_string(ev.start_epoch) + ".." +
                 std::to_string(ev.end_epoch)};
    }
    report.diagnoses.push_back(std::move(d));
  }
  return report;
}

std::string render_diagnosis(const Diagnosis& d) {
  std::ostringstream os;
  const MonitorEvent& ev = d.event;
  os << '[' << ev.type << "] " << ev.vantage << " / " << ev.resolver << " (" << ev.protocol
     << ") epochs " << ev.start_epoch << ".." << ev.end_epoch << '\n';
  if (!d.verdicts.empty()) {
    const CauseVerdict& top = d.verdicts.front();
    os << "  verdict: " << top.cause << " (score " << fmt("%.2f", top.score) << ", evidence "
       << top.evidence << ") — " << top.rationale << '\n';
  }
  os << "  dominant stage: " << (d.dominant_stage.empty() ? "none" : d.dominant_stage) << " ("
     << d.stages.connect << " connect / " << d.stages.handshake << " handshake / "
     << d.stages.query << " query / " << d.stages.timeout << " timeout / " << d.stages.other
     << " other)\n";
  os << "  scope: " << d.scope.classification << " (" << d.scope.affected_vantages.size() << '/'
     << d.scope.vantages_observed << " vantages";
  if (!d.scope.affected_regions.empty()) {
    os << "; regions";
    for (const std::string& r : d.scope.affected_regions) os << ' ' << r;
  }
  os << ")\n";
  const auto profile_line = [&os](const char* label, const PhaseProfile& p, int from,
                                  int to) {
    os << "  " << label << " epochs " << from << ".." << to << ": avail "
       << fmt("%.1f", p.availability * 100.0) << "% of " << p.queries << ", median "
       << fmt("%.1f", p.response_ms) << " ms (tcp " << fmt("%.1f", p.tcp_ms) << " / tls "
       << fmt("%.1f", p.tls_ms) << " / quic " << fmt("%.1f", p.quic_ms) << " / wait "
       << fmt("%.1f", p.wait_ms) << " / exch " << fmt("%.1f", p.exchange_ms) << ", reuse "
       << fmt("%.0f", p.reused_fraction * 100.0) << "%)\n";
  };
  if (d.baseline_to >= d.baseline_from) {
    profile_line("baseline", d.baseline, d.baseline_from, d.baseline_to);
  } else {
    os << "  baseline: none (event starts at epoch " << ev.start_epoch << ")\n";
  }
  profile_line("window  ", d.window, ev.start_epoch, ev.end_epoch);
  os << "  delta: response " << fmt("%+.1f", d.delta.response_ms) << " ms, availability "
     << fmt("%+.1f", d.delta.availability * 100.0) << " pp\n";
  os << "  ranked causes:";
  for (const CauseVerdict& v : d.verdicts) os << ' ' << v.cause << '=' << fmt("%.2f", v.score);
  os << '\n';
  for (const Exemplar& e : d.exemplars) {
    os << "  exemplar: " << (e.ok ? "SLOW" : "FAIL") << ' ' << e.flight_ref << ' '
       << fmt("%.1f", e.response_ms) << " ms";
    if (!e.ok) {
      os << ' ' << (e.failure_stage.empty() ? "unknown" : e.failure_stage) << " ("
         << e.error_class << ')';
    }
    os << '\n';
  }
  return std::move(os).str();
}

std::string render_diagnosis_report(const DiagnosisReport& report) {
  if (report.diagnoses.empty()) return "no events to diagnose\n";
  std::string out;
  for (const Diagnosis& d : report.diagnoses) {
    if (!out.empty()) out += '\n';
    out += render_diagnosis(d);
  }
  return out;
}

}  // namespace ednsm::monitor
