#include "core/parallel_campaign.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <stdexcept>
#include <thread>

namespace ednsm::core {

void run_pipeline(const MeasurementSpec& spec, const std::vector<ShardPlan>& plans, int threads,
                  const CampaignObsOptions& obs_options,
                  const std::function<void(ShardOutcome&&)>& sink) {
  const std::size_t workers =
      std::min<std::size_t>(plans.size(), static_cast<std::size_t>(std::max(threads, 1)));

  // Runtime telemetry is observation-only: every hook below is a null check
  // plus relaxed atomics, and nothing it records feeds back into claim order
  // or outcomes — outputs stay byte-identical with it on/off.
  obs::RuntimeTelemetry* const rt = obs_options.runtime;

  std::atomic<std::size_t> next_plan{0};
  std::mutex sink_mutex;  // serialises sink calls and guards first_error
  std::exception_ptr first_error;

  // One claim loop, run by the calling thread and every helper alike: claim
  // the next plan index, simulate it, hand the outcome to the sink. The first
  // error parks the claim counter past the end, so no further plan starts
  // and the sink is not called again. The lock lives outside the try so a
  // throwing sink's error is recorded before any other worker can sink.
  const auto claim_loop = [&] {
    for (std::size_t i = next_plan.fetch_add(1); i < plans.size(); i = next_plan.fetch_add(1)) {
      std::unique_lock<std::mutex> lock(sink_mutex, std::defer_lock);
      try {
        const std::uint64_t t0 = rt != nullptr ? rt->clock_now_ns() : 0;
        ShardOutcome outcome = run_shard(spec, plans[i], obs_options);
        const std::uint64_t t1 = rt != nullptr ? rt->clock_now_ns() : 0;
        if (rt != nullptr) rt->note_plan_done(t1 - t0);
        lock.lock();
        if (first_error) return;
        sink(std::move(outcome));
        if (rt != nullptr) rt->note_sink_items(1, rt->clock_now_ns() - t1);
      } catch (...) {
        if (!lock.owns_lock()) lock.lock();
        if (!first_error) first_error = std::current_exception();
        next_plan.store(plans.size());
      }
    }
  };

  {
    // jthread joins on destruction, so every helper has finished before the
    // error is rethrown — even if spawning a later helper throws.
    std::vector<std::jthread> helpers;
    for (std::size_t w = 1; w < workers; ++w) helpers.emplace_back(claim_loop);
    claim_loop();
  }
  if (first_error) std::rethrow_exception(first_error);
}

CampaignResult run_parallel_campaign(const MeasurementSpec& spec, int threads) {
  return run_parallel_campaign(spec, threads, CampaignObsOptions{}, nullptr);
}

CampaignResult run_parallel_campaign(const MeasurementSpec& spec, int threads,
                                     const CampaignObsOptions& obs_options,
                                     CampaignObsData* obs_out) {
  if (auto v = spec.validate(); !v) {
    throw std::invalid_argument("run_parallel_campaign: invalid spec: " + v.error());
  }

  // Sim-domain observability (trace/metrics) is only collected when there is
  // somewhere to put it, so the plain overload pays nothing for it. Runtime telemetry is independent of that: it has its
  // own sink (the RuntimeTelemetry hub) and survives the reset.
  CampaignObsOptions obs = obs_options;
  if (obs_out == nullptr) {
    obs = CampaignObsOptions{};
    obs.runtime = obs_options.runtime;
  }

  const std::vector<ShardPlan> plans = expand_spec(spec);
  ShardCollector collector(spec, plans.size(), obs);
  run_pipeline(spec, plans, threads, obs, [&](ShardOutcome&& outcome) {
    // The pipeline delivers each plan index exactly once, so add() cannot
    // fail here; surface a logic error loudly if that invariant breaks.
    if (auto added = collector.add(std::move(outcome)); !added) {
      throw std::logic_error("run_parallel_campaign: " + added.error());
    }
  });
  return collector.finish(obs_out);
}

}  // namespace ednsm::core
