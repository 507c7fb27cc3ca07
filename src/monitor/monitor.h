// Longitudinal monitor: run the same campaign spec over many epochs
// (simulated days) and keep one compact evidence row per query. Everything
// else is folded from those rows by fold_evidence: per-epoch summaries, an
// obs::TimeSeries keyed by (vantage, resolver, protocol) with the epoch index
// as the time bucket, rolling SLOs, and outage/degradation/flap events.
//
// Epoch e runs with seed splitmix64^e(base seed) (core::shard_seeds), so the
// whole run is a pure function of the spec: byte-identical series, SLO,
// event and evidence output for any thread count. Scripted outages take a
// resolver fully offline for epochs [from_epoch, to_epoch) via the campaign
// fault-window hook, which is what the detection tests assert against.
//
// The monitor file holds only the rows and the spec; loading it runs the same
// fold, so the series, SLOs and events of a loaded file cannot contradict its
// rows, and monitor/diagnose explains events from the same rows.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "core/parallel_campaign.h"
#include "monitor/events.h"
#include "monitor/slo.h"
#include "obs/timeseries.h"

namespace ednsm::monitor {

// One scripted resolver outage at epoch granularity (end exclusive).
struct OutageScript {
  std::string resolver;
  int from_epoch = 0;
  int to_epoch = 0;

  void to_json(util::JsonWriter& w) const;
  [[nodiscard]] static Result<OutageScript> from_json(const util::Json& j);
};

struct MonitorSpec {
  core::MeasurementSpec base;  // per-epoch campaign template
  int epochs = 8;
  std::vector<OutageScript> outages;
  SloConfig slo;

  [[nodiscard]] Result<void> validate() const;
  void to_json(util::JsonWriter& w) const;
  [[nodiscard]] static Result<MonitorSpec> from_json(const util::Json& j);
};

// Aggregate tallies for one epoch's campaign, folded from its evidence rows
// (never persisted).
struct EpochSummary {
  int epoch = 0;
  std::uint64_t seed = 0;  // derived campaign seed for the epoch
  std::uint64_t queries = 0;
  std::uint64_t failures = 0;
  double availability = 1.0;

  [[nodiscard]] bool operator==(const EpochSummary&) const = default;
};

// One query's evidence, kept for diagnosis. Names are indices into the
// spec's lists; failure_stage and error_class are set on failed rows only.
// In JSON a row is a positional array, 13 slots for a success and 15 for a
// failure:
//   [resolver, vantage, domain, epoch, round, ok, reused, response_ms,
//    tcp_ms, tls_ms, quic_ms, wait_ms, exchange_ms(, failure_stage, error_class)]
struct EvidenceRow {
  std::uint32_t resolver = 0;  // spec.base.resolvers
  std::uint32_t vantage = 0;   // spec.base.vantage_ids
  std::uint32_t domain = 0;    // spec.base.domains
  int epoch = 0;
  int round = 0;
  bool ok = false;
  bool reused = false;  // served on a reused connection
  double response_ms = 0.0;
  double tcp_ms = 0.0;
  double tls_ms = 0.0;
  double quic_ms = 0.0;
  double wait_ms = 0.0;  // connection-pool wait
  double exchange_ms = 0.0;
  std::string failure_stage;
  std::string error_class;

  [[nodiscard]] bool operator==(const EvidenceRow&) const = default;
  void to_json(util::JsonWriter& w) const;
  // Checks slot types and arity only; MonitorResult::from_json checks the
  // indices, epoch and round against its spec.
  [[nodiscard]] static Result<EvidenceRow> from_json(const util::Json& j);
};

struct MonitorResult {
  MonitorSpec spec;
  // Every query of every epoch, epochs ascending, each epoch in its
  // campaign's record order: the one source the fields below are folded from.
  std::vector<EvidenceRow> evidence;
  // ednsm-lint: allow(codec-parity) — derived: from_json refolds these from
  // the evidence rows, so serializing them would duplicate state.
  std::vector<EpochSummary> epochs;
  // ednsm-lint: allow(codec-parity) — derived, as above.
  obs::TimeSeries series;
  // ednsm-lint: allow(codec-parity) — derived, as above.
  std::vector<SloSample> slos;
  // ednsm-lint: allow(codec-parity) — derived, as above.
  std::vector<MonitorEvent> events;

  // Every evidence row's indices, epoch and round lie inside the spec.
  [[nodiscard]] Result<void> check_evidence() const;
  // Writes {"evidence": [...], "spec": {...}}; the folds are not persisted.
  void to_json(util::JsonWriter& w) const;
  // Requires both keys and rebuilds the folds with fold_evidence, which
  // refuses rows that do not match the spec's plan.
  [[nodiscard]] static Result<MonitorResult> from_json(const util::Json& j);
  void write_json(std::ostream& os, int indent = 0) const;
};

// Rebuild epochs, series, slos and events from result.spec and
// result.evidence in one pass over the rows, then evaluate_result. The rows
// must follow the spec's plan: epochs ascending, each epoch holding exactly
// resolvers x vantages x domains x rounds rows, every index inside the spec.
[[nodiscard]] Result<void> fold_evidence(MonitorResult& result);

// Campaign spec for epoch `epoch`: the base spec with the epoch's derived
// seed and any scripted outages active at that epoch lowered to whole-epoch
// fault windows.
[[nodiscard]] core::MeasurementSpec epoch_campaign_spec(const MonitorSpec& spec,
                                                        std::uint64_t epoch_seed, int epoch);

// Run the monitor: `threads` is the per-epoch ParallelCampaign worker count
// (epochs themselves run serially — each epoch's campaign is the parallel
// unit). Returns an error for an invalid spec.
[[nodiscard]] Result<MonitorResult> run_monitor(const MonitorSpec& spec, int threads);

// Re-derive SLO samples and events from the already-folded series (the last
// step of fold_evidence; benchmarks time it on its own).
void evaluate_result(MonitorResult& result);

}  // namespace ednsm::monitor
