// The tracing hook netsim calls itself (event dispatch, datagram loss).
//
// obs::Tracer implements it, so the dependency points the layered way: obs
// builds on netsim, and no netsim file includes obs. enabled() is a plain
// relaxed load, so with tracing off an emission site pays a null check and
// that load; the virtual instant() runs only while recording.
#pragma once

#include <atomic>
#include <string_view>

#include "netsim/time.h"

namespace ednsm::netsim {

class TraceHook {
 public:
  [[nodiscard]] bool enabled() const noexcept {
    return enabled_.load(std::memory_order_relaxed);
  }

  // Record a point event at simulated time `ts`.
  virtual void instant(std::string_view subsystem, std::string_view name, SimTime ts) = 0;

 protected:
  TraceHook() = default;
  ~TraceHook() = default;
  TraceHook(const TraceHook&) = delete;
  TraceHook& operator=(const TraceHook&) = delete;

  std::atomic<bool> enabled_{false};
};

// Point event at `ts` through `hook`, when one is attached and recording.
inline void trace_instant(TraceHook* hook, std::string_view subsystem, std::string_view name,
                          SimTime ts) {
  if (hook != nullptr && hook->enabled()) hook->instant(subsystem, name, ts);
}

}  // namespace ednsm::netsim
