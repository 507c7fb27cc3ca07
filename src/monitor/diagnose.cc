#include "monitor/diagnose.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <optional>
#include <ostream>
#include <set>
#include <sstream>
#include <string_view>

#include "geo/vantage.h"

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

DiagnosisScope classify_scope(const std::vector<obs::QueryEvidence>& all_rows,
                              int baseline_from, int baseline_to, int window_from,
                              int window_to) {
  // Deterministic per-vantage split: sorted map, evidence order irrelevant.
  std::map<std::string, std::vector<obs::QueryEvidence>> by_vantage;
  for (const obs::QueryEvidence& row : all_rows) by_vantage[row.vantage].push_back(row);

  DiagnosisScope scope;
  std::set<std::string> regions;
  for (const auto& [vantage, rows] : by_vantage) {
    const obs::PhaseProfile window = obs::profile_phases(rows, window_from, window_to);
    if (window.queries == 0) continue;
    ++scope.vantages_observed;
    const obs::PhaseProfile base = obs::profile_phases(rows, baseline_from, baseline_to);
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
      scope.affected_vantages.push_back(vantage);
      regions.insert(region_of_vantage(vantage));
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
  const obs::StageBreakdown& st = d.stages;
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

// Keys in sorted order, as Json::dump writes objects; the diagnosis golden
// pins it. The other encoders in this file follow the same rule.
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
  for (const obs::Exemplar& e : exemplars) e.to_json(w);
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

// Position of `name` in `names`, or nullopt.
std::optional<std::uint32_t> index_of(const std::vector<std::string>& names,
                                      std::string_view name) {
  const auto it = std::find(names.begin(), names.end(), name);
  if (it == names.end()) return std::nullopt;
  return static_cast<std::uint32_t>(it - names.begin());
}

// The kept rows of one resolver in epochs [from, to], all vantages (the
// scope classifier needs the unaffected ones too), with names spelled out.
std::vector<obs::QueryEvidence> resolver_evidence(const MonitorResult& result,
                                                  std::uint32_t resolver, int from, int to) {
  const core::MeasurementSpec& base = result.spec.base;
  std::vector<obs::QueryEvidence> rows;
  for (const EvidenceRow& r : result.evidence) {
    if (r.resolver != resolver || r.epoch < from || r.epoch > to) continue;
    obs::QueryEvidence& row = rows.emplace_back();
    row.vantage = base.vantage_ids[r.vantage];
    row.domain = base.domains[r.domain];
    row.epoch = r.epoch;
    row.round = r.round;
    row.ok = r.ok;
    row.reused = r.reused;
    row.response_ms = r.response_ms;
    row.tcp_ms = r.tcp_ms;
    row.tls_ms = r.tls_ms;
    row.quic_ms = r.quic_ms;
    row.wait_ms = r.wait_ms;
    row.exchange_ms = r.exchange_ms;
    row.failure_stage = r.failure_stage;
    row.error_class = r.error_class;
  }
  return rows;
}

// Diagnose one event from evidence covering at least [baseline start,
// event.end_epoch] for the event's resolver.
Diagnosis diagnose_event(const MonitorEvent& event,
                         const std::vector<obs::QueryEvidence>& evidence,
                         const DiagnoseOptions& opts) {
  Diagnosis d;
  d.event = event;
  d.baseline_from = std::max(0, event.start_epoch - std::max(opts.baseline_epochs, 1));
  d.baseline_to = event.start_epoch - 1;  // < baseline_from when no pre-event epochs exist

  // The event's own (vantage, resolver) pair carries the stage/phase story;
  // the full evidence set (all vantages) feeds the scope classifier.
  std::vector<obs::QueryEvidence> pair_rows;
  for (const obs::QueryEvidence& row : evidence) {
    if (row.vantage == event.vantage) pair_rows.push_back(row);
  }

  d.stages = obs::count_stages(pair_rows, event.start_epoch, event.end_epoch);
  d.dominant_stage = std::string(d.stages.dominant());
  d.baseline = obs::profile_phases(pair_rows, d.baseline_from, d.baseline_to);
  if (d.baseline.queries == 0) d.baseline = obs::PhaseProfile{};  // canonical "no baseline"
  d.window = obs::profile_phases(pair_rows, event.start_epoch, event.end_epoch);
  d.delta = obs::phase_delta(d.baseline, d.window);
  d.scope = classify_scope(evidence, d.baseline_from, d.baseline_to, event.start_epoch,
                           event.end_epoch);
  d.verdicts = rank_causes(d);
  d.exemplars =
      obs::pick_exemplars(pair_rows, event.start_epoch, event.end_epoch, opts.max_exemplars);
  for (obs::Exemplar& e : d.exemplars) {
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

  DiagnosisReport report;
  report.diagnoses.reserve(result.events.size());
  for (const MonitorEvent& ev : result.events) {
    const auto resolver = index_of(result.spec.base.resolvers, ev.resolver);
    const int from = std::max(0, ev.start_epoch - opts.baseline_epochs);
    std::vector<obs::QueryEvidence> rows;
    if (resolver) rows = resolver_evidence(result, *resolver, from, ev.end_epoch);
    const bool covered = std::any_of(rows.begin(), rows.end(), [&](const obs::QueryEvidence& r) {
      return r.vantage == ev.vantage && r.epoch >= ev.start_epoch;
    });
    if (!covered) {
      return Err{"diagnose: no evidence for the " + ev.type + " event " + ev.vantage + "/" +
                 ev.resolver + " epochs " + std::to_string(ev.start_epoch) + ".." +
                 std::to_string(ev.end_epoch)};
    }
    report.diagnoses.push_back(diagnose_event(ev, rows, opts));
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
  const auto profile_line = [&os](const char* label, const obs::PhaseProfile& p, int from,
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
  for (const obs::Exemplar& e : d.exemplars) {
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
