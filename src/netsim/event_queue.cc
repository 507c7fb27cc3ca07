#include "netsim/event_queue.h"

#include <algorithm>

namespace ednsm::netsim {

EventQueue::EventId EventQueue::schedule(SimDuration delay, Callback cb) {
  if (delay < kZeroDuration) delay = kZeroDuration;
  return schedule_at(now_ + delay, std::move(cb));
}

EventQueue::EventId EventQueue::schedule_at(SimTime when, Callback cb) {
  if (when < now_) when = now_;
  const EventId id = next_seq_++;
  heap_.push_back(Entry{when, id, std::move(cb)});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
  alive_.push_back(1);  // slot (id - base_) == alive_.size() - 1: ids are sequential
  ++live_count_;
  return id;
}

bool EventQueue::cancel(EventId id) {
  if (!is_live(id)) return false;
  alive_[static_cast<std::size_t>(id - base_)] = 0;
  --live_count_;
  return true;
}

void EventQueue::prune_top() {
  while (!heap_.empty() && !is_live(heap_.front().id)) {
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    heap_.pop_back();
  }
  if (heap_.empty()) {
    // All ids < next_seq_ have executed or been cancelled: restart the
    // liveness window so the flag vector does not grow with queue lifetime.
    alive_.clear();
    base_ = next_seq_;
  }
}

void EventQueue::pop_front(Entry& out) {
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  out = std::move(heap_.back());
  heap_.pop_back();
  alive_[static_cast<std::size_t>(out.id - base_)] = 0;
  --live_count_;
}

std::size_t EventQueue::run_until_idle() {
  std::size_t executed = 0;
  Entry e;
  for (;;) {
    prune_top();
    if (heap_.empty()) break;
    pop_front(e);
    now_ = e.when;
    trace_instant(trace_hook_, "netsim", "dispatch", now_);
    e.cb();
    e.cb.reset();
    ++executed;
    ++executed_total_;
  }
  return executed;
}

std::size_t EventQueue::run_until(SimTime deadline) {
  std::size_t executed = 0;
  Entry e;
  for (;;) {
    prune_top();
    if (heap_.empty() || heap_.front().when > deadline) break;
    pop_front(e);
    now_ = e.when;
    trace_instant(trace_hook_, "netsim", "dispatch", now_);
    e.cb();
    e.cb.reset();
    ++executed;
    ++executed_total_;
  }
  if (now_ < deadline) now_ = deadline;
  return executed;
}

}  // namespace ednsm::netsim
