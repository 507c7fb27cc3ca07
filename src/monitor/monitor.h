// Longitudinal monitor: run the same campaign spec over many epochs
// (simulated days), fold each epoch into an obs::TimeSeries keyed by
// (vantage, resolver, protocol) with the epoch index as the time bucket,
// evaluate rolling SLOs, and detect outage/degradation/flap events.
//
// Epoch e runs with seed splitmix64^e(base seed) (core::shard_seeds), so the
// whole run is a pure function of the spec: byte-identical series, SLO,
// event and evidence output for any thread count. Scripted outages take a
// resolver fully offline for epochs [from_epoch, to_epoch) via the campaign
// fault-window hook, which is what the detection tests assert against.
//
// While it folds an epoch's records into the series, the monitor also keeps
// one compact evidence row per query, so monitor/diagnose explains events
// from the result alone, in memory or loaded from the monitor file.
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

// Aggregate tallies for one epoch's campaign.
struct EpochSummary {
  int epoch = 0;
  // Derived campaign seed for the epoch; a util::u64_to_hex string in JSON,
  // because a JSON number holds only 53 bits.
  std::uint64_t seed = 0;
  std::uint64_t queries = 0;
  std::uint64_t failures = 0;
  double availability = 1.0;

  void to_json(util::JsonWriter& w) const;
  [[nodiscard]] static Result<EpochSummary> from_json(const util::Json& j);
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
  std::vector<EpochSummary> epochs;
  obs::TimeSeries series;
  std::vector<SloSample> slos;
  std::vector<MonitorEvent> events;
  // Every query of every epoch, epochs ascending, each epoch in its
  // campaign's record order.
  std::vector<EvidenceRow> evidence;

  // Every evidence row's indices, epoch and round lie inside the spec.
  [[nodiscard]] Result<void> check_evidence() const;
  void to_json(util::JsonWriter& w) const;
  [[nodiscard]] static Result<MonitorResult> from_json(const util::Json& j);
  void write_json(std::ostream& os, int indent = 0) const;
};

// Campaign spec for epoch `epoch`: the base spec with the epoch's derived
// seed and any scripted outages active at that epoch lowered to whole-epoch
// fault windows.
[[nodiscard]] core::MeasurementSpec epoch_campaign_spec(const MonitorSpec& spec,
                                                        std::uint64_t epoch_seed, int epoch);

// Run the monitor: `threads` is the per-epoch ParallelCampaign worker count
// (epochs themselves run serially — each epoch's campaign is the parallel
// unit). Returns an error for an invalid spec.
[[nodiscard]] Result<MonitorResult> run_monitor(const MonitorSpec& spec, int threads);

// Re-derive SLO samples and events from an already-folded series (used by
// from_json and by tools that load a persisted series).
void evaluate_result(MonitorResult& result);

}  // namespace ednsm::monitor
