// Root-cause diagnosis for monitor events: explain each event of a
// MonitorResult from the evidence rows run_monitor kept for every query.
//
// Nothing is simulated again. The rows are the record stream the event was
// detected from (the same for any thread count), read from the result in
// memory or from the monitor file; an event whose window has no rows is an
// error, never a silent "no-data" diagnosis. Each event gets:
//
//   - a failure-stage breakdown over the event window and the dominant stage,
//   - per-phase latency profiles (tcp/tls/quic/wait/exchange medians) for the
//     event window and a rolling pre-event baseline, plus their delta,
//   - a scope classification (single-vantage / regional / global) from the
//     geo layer's vantage continents,
//   - a ranked cause verdict (resolver-outage, handshake-layer-failure,
//     path-degradation, cache-behavior-shift) with evidence counts and a
//     human-readable rationale,
//   - exemplar queries with flight-recorder-style refs.
//
// Scores are fixed arithmetic over the aggregates (DESIGN.md "Diagnosis and
// attribution" documents the formulas); the whole report is a pure function
// of (MonitorResult, options) and is serialized through a versioned codec
// gated by tests/golden/monitor_diagnosis.json.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "monitor/monitor.h"
#include "obs/attribution.h"

namespace ednsm::monitor {

inline constexpr int kDiagnosisVersion = 1;

// One candidate cause with its score in [0, 1] and supporting evidence count.
struct CauseVerdict {
  std::string cause;       // "resolver-outage" | "path-degradation" |
                           // "handshake-layer-failure" | "cache-behavior-shift"
  double score = 0.0;
  std::uint64_t evidence = 0;  // queries backing the verdict
  std::string rationale;

  void to_json(util::JsonWriter& w) const;
  [[nodiscard]] static Result<CauseVerdict> from_json(const util::Json& j);
};

// How widely the event window's impact was observed across the spec's
// vantages (the event itself names one vantage; scope says who else saw it).
struct DiagnosisScope {
  std::string classification;  // "single-vantage" | "regional" | "global"
  std::vector<std::string> affected_vantages;  // sorted
  std::vector<std::string> affected_regions;   // continents, sorted, deduped
  int vantages_observed = 0;  // vantages with evidence in the window

  void to_json(util::JsonWriter& w) const;
  [[nodiscard]] static Result<DiagnosisScope> from_json(const util::Json& j);
};

struct Diagnosis {
  int version = kDiagnosisVersion;
  MonitorEvent event;
  // Pre-event baseline epochs (inclusive); from > to when the event starts
  // at epoch 0 and no baseline exists.
  int baseline_from = 0;
  int baseline_to = -1;
  std::string dominant_stage;  // "" when the window has no failures
  obs::StageBreakdown stages;  // failures inside [event.start, event.end]
  obs::PhaseProfile baseline;
  obs::PhaseProfile window;
  obs::PhaseDelta delta;  // window minus baseline
  DiagnosisScope scope;
  std::vector<CauseVerdict> verdicts;  // ranked, best first
  std::vector<obs::Exemplar> exemplars;

  void to_json(util::JsonWriter& w) const;
  [[nodiscard]] static Result<Diagnosis> from_json(const util::Json& j);
};

struct DiagnosisReport {
  int version = kDiagnosisVersion;
  std::vector<Diagnosis> diagnoses;  // one per MonitorResult event, same order

  void to_json(util::JsonWriter& w) const;
  [[nodiscard]] static Result<DiagnosisReport> from_json(const util::Json& j);
  void write_json(std::ostream& os, int indent = 2) const;
};

struct DiagnoseOptions {
  int baseline_epochs = 3;      // pre-event baseline width (>= 1)
  std::size_t max_exemplars = 3;
};

// Diagnose every event in the result from result.evidence. Returns an error
// for an invalid spec or options, or when an event's window has no evidence
// rows. `threads` must be >= 1 and is otherwise unused: nothing is simulated.
[[nodiscard]] Result<DiagnosisReport> diagnose_events(const MonitorResult& result, int threads,
                                                      const DiagnoseOptions& opts = {});

// Plain-text rendering for the CLI (one block per diagnosis).
[[nodiscard]] std::string render_diagnosis(const Diagnosis& d);
[[nodiscard]] std::string render_diagnosis_report(const DiagnosisReport& report);

}  // namespace ednsm::monitor
