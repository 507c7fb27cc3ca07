// Root-cause diagnosis for monitor events: explain each event of a
// MonitorResult from the evidence rows run_monitor kept for every query.
//
// Nothing is simulated again and nothing is copied. The rows are the one
// source the monitor folds its series, SLOs and events from (the same for any
// thread count, in memory or loaded from the monitor file); every aggregate
// below scans them in place through a RowFilter (resolver and vantage index,
// epoch window). An event whose window has no rows is an error, never a
// silent "no-data" diagnosis. Each event gets:
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
#include <string_view>
#include <vector>

#include "monitor/monitor.h"

namespace ednsm::monitor {

inline constexpr int kDiagnosisVersion = 1;

// The evidence rows an aggregate reads: one (resolver, vantage) pair's rows
// in epochs [from_epoch, to_epoch], inclusive like monitor event bounds. An
// empty or inverted window matches nothing.
struct RowFilter {
  std::uint32_t resolver = 0;  // index into spec.base.resolvers
  std::uint32_t vantage = 0;   // index into spec.base.vantage_ids
  int from_epoch = 0;
  int to_epoch = -1;

  [[nodiscard]] bool matches(const EvidenceRow& row) const noexcept {
    return row.resolver == resolver && row.vantage == vantage && row.epoch >= from_epoch &&
           row.epoch <= to_epoch;
  }
};

// Failure counts by stage over a window. `other` catches stages outside the
// taxonomy (unknown error classes) so total() always equals the failure count.
struct StageBreakdown {
  std::uint64_t connect = 0;
  std::uint64_t handshake = 0;
  std::uint64_t query = 0;
  std::uint64_t timeout = 0;
  std::uint64_t other = 0;

  [[nodiscard]] std::uint64_t total() const noexcept {
    return connect + handshake + query + timeout + other;
  }
  // Stage with the most failures; ties break in taxonomy order (connect,
  // handshake, query, timeout, other). "" when there are no failures.
  [[nodiscard]] std::string_view dominant() const noexcept;

  void to_json(util::JsonWriter& w) const;
  [[nodiscard]] static Result<StageBreakdown> from_json(const util::Json& j);
};

// Aggregate profile of a window of evidence: availability plus per-phase
// latency medians over the successful queries (0 when none succeeded).
struct PhaseProfile {
  std::uint64_t queries = 0;
  std::uint64_t failures = 0;
  double availability = 1.0;      // 1.0 when the window has no queries
  double reused_fraction = 0.0;   // successes served on a reused connection
  double response_ms = 0.0;       // medians over successes
  double tcp_ms = 0.0;
  double tls_ms = 0.0;
  double quic_ms = 0.0;
  double wait_ms = 0.0;
  double exchange_ms = 0.0;

  void to_json(util::JsonWriter& w) const;
  [[nodiscard]] static Result<PhaseProfile> from_json(const util::Json& j);
};

// Field-wise window minus baseline. Counts are not differenced — windows of
// different widths make raw count deltas meaningless.
struct PhaseDelta {
  double availability = 0.0;
  double reused_fraction = 0.0;
  double response_ms = 0.0;
  double tcp_ms = 0.0;
  double tls_ms = 0.0;
  double quic_ms = 0.0;
  double wait_ms = 0.0;
  double exchange_ms = 0.0;

  void to_json(util::JsonWriter& w) const;
  [[nodiscard]] static Result<PhaseDelta> from_json(const util::Json& j);
};

// One concrete query backing a diagnosis, with its names spelled out: enough
// coordinates to find the full record in the campaign output or the flight
// recorder. `flight_ref` is filled by diagnose_events.
struct Exemplar {
  std::string vantage;
  std::string domain;
  int epoch = 0;
  int round = 0;
  bool ok = false;
  double response_ms = 0.0;
  std::string failure_stage;  // "" for slow-success exemplars
  std::string error_class;
  std::string flight_ref;

  void to_json(util::JsonWriter& w) const;
  [[nodiscard]] static Result<Exemplar> from_json(const util::Json& j);
};

// The aggregations a diagnosis is argued from, each over the rows `filter`
// matches; no matching rows yield the default-constructed aggregate.
[[nodiscard]] StageBreakdown count_stages(const std::vector<EvidenceRow>& rows,
                                          const RowFilter& filter);
[[nodiscard]] PhaseProfile profile_phases(const std::vector<EvidenceRow>& rows,
                                          const RowFilter& filter);
[[nodiscard]] PhaseDelta phase_delta(const PhaseProfile& baseline, const PhaseProfile& window);

// Up to `limit` exemplars, names taken from `base`: failures first (ascending
// epoch, vantage name, round, domain name — earliest evidence of the
// problem), then the slowest successes (descending response_ms, same
// ascending tie-break).
[[nodiscard]] std::vector<Exemplar> pick_exemplars(const core::MeasurementSpec& base,
                                                   const std::vector<EvidenceRow>& rows,
                                                   const RowFilter& filter, std::size_t limit);

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
  StageBreakdown stages;  // failures inside [event.start, event.end]
  PhaseProfile baseline;
  PhaseProfile window;
  PhaseDelta delta;  // window minus baseline
  DiagnosisScope scope;
  std::vector<CauseVerdict> verdicts;  // ranked, best first
  std::vector<Exemplar> exemplars;

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
