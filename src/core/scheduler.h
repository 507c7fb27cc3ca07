// ProbeScheduler: turns a MeasurementSpec into the timeline of measurement
// rounds. The paper ran tests "every few hours" on the home devices and
// "three times a day" on EC2; rounds here are spaced by spec.round_interval
// with a small per-vantage stagger so devices do not probe in lockstep.
#pragma once

#include <vector>

#include "core/spec.h"

namespace ednsm::core {

class ProbeScheduler {
 public:
  // Copies the three values it reads, so a scheduler may outlive its spec.
  explicit ProbeScheduler(const MeasurementSpec& spec)
      : round_interval_(spec.round_interval),
        rounds_(spec.rounds),
        vantages_(spec.vantage_ids.size()) {}

  // Start time of `round` (0-based) for the vantage at `vantage_index`.
  [[nodiscard]] netsim::SimTime round_start(int round, std::size_t vantage_index) const;

  // All round start times for one vantage.
  [[nodiscard]] std::vector<netsim::SimTime> timeline(std::size_t vantage_index) const;

  // Total campaign duration (last round start + one interval).
  [[nodiscard]] netsim::SimDuration span() const;

 private:
  netsim::SimDuration round_interval_;
  int rounds_;
  std::size_t vantages_;
  // Home devices and EC2 instances should not fire at the same instant;
  // 97 s of stagger per vantage keeps rounds disjoint without overlapping
  // the next round at realistic intervals.
  static constexpr netsim::SimDuration kVantageStagger = std::chrono::seconds(97);
};

}  // namespace ednsm::core
