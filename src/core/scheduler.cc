#include "core/scheduler.h"

namespace ednsm::core {

netsim::SimTime ProbeScheduler::round_start(int round, std::size_t vantage_index) const {
  return round_interval_ * round + kVantageStagger * static_cast<int>(vantage_index);
}

std::vector<netsim::SimTime> ProbeScheduler::timeline(std::size_t vantage_index) const {
  std::vector<netsim::SimTime> out;
  out.reserve(static_cast<std::size_t>(rounds_));
  for (int r = 0; r < rounds_; ++r) out.push_back(round_start(r, vantage_index));
  return out;
}

netsim::SimDuration ProbeScheduler::span() const {
  return round_interval_ * rounds_ +
         kVantageStagger * static_cast<int>(vantages_);
}

}  // namespace ednsm::core
