// Sharded campaign engine.
//
// A multi-vantage campaign decomposes into independent shards — one SimWorld
// per vantage, seeded deterministically from the spec seed via splitmix64
// (see core/pipeline.h for the plan/outcome vocabulary) — that run with zero
// shared mutable state and merge in canonical (round, vantage, resolver)
// order. The output is a pure function of the spec: byte-identical JSON for
// any `threads` value, including 1, and for any `--shard k/N` process split
// merged by ednsm_merge.
//
// Execution is one pool of plan-claiming workers: an atomic counter hands
// out the next plan index, each worker simulates its plan and hands the
// ShardOutcome straight to the sink. The calling thread is one of the
// workers, so a one-worker run (the monitor's epochs, `--threads 1`) spawns
// no thread at all.
//
// This is the only campaign engine: the CLI, the monitor, diagnosis, the
// benches and the shard/merge path all run it. Each vantage is measured as
// its own single-vantage campaign in its own world, which is the faithful
// model of the paper's fleet of independent probing machines.
#pragma once

#include <functional>

#include "core/pipeline.h"

namespace ednsm::core {

// Run `plans` on up to `threads` workers (clamped to [1, #plans]): the
// calling thread plus `workers - 1` helper threads, each claiming the next
// unclaimed plan. `sink` is invoked once per completed plan, in completion
// order, on whichever worker finished it; calls never overlap (one mutex
// serialises them), so the sink needs no locking of its own. This is the
// engine under run_parallel_campaign (sink = ShardCollector) and under
// `--shard` workers (sink = shard-file accumulation). The first exception,
// from a worker or from the sink, stops further claims and is rethrown on
// the caller after every helper has joined; the sink may then have seen
// only a subset of outcomes.
void run_pipeline(const MeasurementSpec& spec, const std::vector<ShardPlan>& plans, int threads,
                  const CampaignObsOptions& obs_options,
                  const std::function<void(ShardOutcome&&)>& sink);

// Run `spec` sharded per vantage across at most `threads` worker threads.
// Throws std::invalid_argument on an invalid spec, and propagates the first
// shard exception otherwise.
[[nodiscard]] CampaignResult run_parallel_campaign(const MeasurementSpec& spec, int threads);

// Same engine with observability: when `obs_options` enables tracing or
// metrics and `obs_out` is non-null, shard traces/metrics are merged into it
// deterministically. Tracing never perturbs the simulation — the returned
// CampaignResult is byte-identical to the plain overload's.
[[nodiscard]] CampaignResult run_parallel_campaign(const MeasurementSpec& spec, int threads,
                                                   const CampaignObsOptions& obs_options,
                                                   CampaignObsData* obs_out);

}  // namespace ednsm::core
