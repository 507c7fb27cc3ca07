#include "obs/trace.h"

#include <ostream>
#include <sstream>
#include <tuple>

namespace ednsm::obs {

void Tracer::enable(std::size_t capacity) {
  if (capacity == 0) capacity = 1;
  if (ring_.empty()) {
    capacity_ = capacity;
    ring_.reserve(capacity_);
  }
  enabled_.store(true, std::memory_order_relaxed);
}

void Tracer::push(const TraceEvent& e) {
  ++emitted_;
  if (ring_.size() < capacity_) {
    ring_.push_back(e);
    return;
  }
  ring_[head_] = e;
  head_ = (head_ + 1) % capacity_;
  ++dropped_;
}

void Tracer::instant(std::string_view subsystem, std::string_view name, netsim::SimTime ts) {
  if (!enabled()) return;
  push(TraceEvent{ts, netsim::kZeroDuration, symbols_.intern(subsystem),
                  symbols_.intern(name), EventKind::Instant});
}

void Tracer::complete(std::string_view subsystem, std::string_view name, netsim::SimTime begin,
                      netsim::SimDuration dur) {
  if (!enabled()) return;
  if (dur < netsim::kZeroDuration) dur = netsim::kZeroDuration;
  push(TraceEvent{begin, dur, symbols_.intern(subsystem), symbols_.intern(name),
                  EventKind::Complete});
}

Tracer::SpanId Tracer::begin_span(std::string_view subsystem, std::string_view name,
                                  netsim::SimTime ts) {
  if (!enabled()) return 0;
  const OpenSpan span{symbols_.intern(subsystem), symbols_.intern(name), ts};
  if (!free_ids_.empty()) {
    const SpanId id = free_ids_.back();
    free_ids_.pop_back();
    open_[id - 1] = span;
    return id;
  }
  open_.push_back(span);
  return static_cast<SpanId>(open_.size());
}

void Tracer::end_span(SpanId id, netsim::SimTime ts) {
  if (id == 0 || id > open_.size()) return;
  const OpenSpan& span = open_[id - 1];
  push(TraceEvent{span.begin, ts - span.begin, span.subsystem, span.name,
                  EventKind::Complete});
  free_ids_.push_back(id);
}

TraceData Tracer::drain() {
  TraceData out;
  out.symbols = symbols_;
  out.emitted = emitted_;
  out.dropped = dropped_;
  out.events.reserve(ring_.size());
  // Chronological emission order: the ring's oldest surviving event sits at
  // head_ once the buffer has wrapped, at index 0 otherwise.
  for (std::size_t i = 0; i < ring_.size(); ++i) {
    out.events.push_back(ring_[(head_ + i) % ring_.size()]);
  }
  ring_.clear();
  head_ = 0;
  return out;
}

util::Json TraceData::to_json() const {
  util::JsonObject o;
  util::JsonArray syms;
  syms.reserve(symbols.size());
  for (util::InternTable::Symbol s = 0; s < symbols.size(); ++s) {
    syms.emplace_back(symbols.name(s));
  }
  o["symbols"] = util::Json(std::move(syms));
  o["emitted"] = emitted;
  o["dropped"] = dropped;
  util::JsonArray evs;
  evs.reserve(events.size());
  for (const TraceEvent& e : events) {
    util::JsonArray tuple;
    tuple.reserve(5);
    tuple.emplace_back(static_cast<std::int64_t>(e.ts.count()));
    tuple.emplace_back(static_cast<std::int64_t>(e.dur.count()));
    tuple.emplace_back(static_cast<std::uint64_t>(e.subsystem));
    tuple.emplace_back(static_cast<std::uint64_t>(e.name));
    tuple.emplace_back(static_cast<std::uint64_t>(e.kind == EventKind::Complete ? 1 : 0));
    evs.emplace_back(std::move(tuple));
  }
  o["events"] = util::Json(std::move(evs));
  return util::Json(std::move(o));
}

Result<TraceData> TraceData::from_json(const util::Json& j) {
  using Symbol = util::InternTable::Symbol;
  TraceData out;
  std::vector<std::string> symbols;
  // [ts_us, dur_us, subsystem, name, kind]
  std::vector<std::tuple<std::int64_t, std::int64_t, Symbol, Symbol, std::uint8_t>> events;
  util::JsonFields f(j, "trace data");
  f.required("symbols", symbols)
      .optional("emitted", out.emitted)
      .optional("dropped", out.dropped)
      .required("events", events);
  if (!f) return Err{f.error()};
  for (const std::string& s : symbols) (void)out.symbols.intern(s);
  out.events.reserve(events.size());
  for (const auto& [ts, dur, subsystem, name, kind] : events) {
    if (subsystem >= out.symbols.size() || name >= out.symbols.size()) {
      return Err{std::string("trace data: events: event references unknown symbol")};
    }
    if (kind > 1) return Err{std::string("trace data: events: event kind must be 0 or 1")};
    out.events.push_back(TraceEvent{netsim::SimTime(ts), netsim::SimDuration(dur), subsystem, name,
                                    kind == 1 ? EventKind::Complete : EventKind::Instant});
  }
  return out;
}

void MergedTrace::add_shard(std::string label, TraceData data) {
  shards_.push_back(Shard{std::move(label), std::move(data)});
}

std::uint64_t MergedTrace::total_events() const noexcept {
  std::uint64_t n = 0;
  for (const Shard& s : shards_) n += s.data.events.size();
  return n;
}

std::uint64_t MergedTrace::total_dropped() const noexcept {
  std::uint64_t n = 0;
  for (const Shard& s : shards_) n += s.data.dropped;
  return n;
}

void MergedTrace::write_chrome_json(std::ostream& os, std::string_view subsystem_filter) const {
  os << "{\"traceEvents\":[\n";
  os << "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":0,\"tid\":0,"
        "\"args\":{\"name\":\"ednsm\"}}";
  for (std::size_t si = 0; si < shards_.size(); ++si) {
    const std::uint64_t tid = si + 1;
    os << ",\n{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":0,\"tid\":" << tid
       << ",\"args\":{\"name\":";
    os << util::json_quote(shards_[si].label);
    os << "}}";
  }
  for (std::size_t si = 0; si < shards_.size(); ++si) {
    const Shard& shard = shards_[si];
    const std::uint64_t tid = si + 1;
    for (const TraceEvent& e : shard.data.events) {
      const std::string& subsystem = shard.data.symbols.name(e.subsystem);
      if (!subsystem_filter.empty() && subsystem != subsystem_filter) continue;
      os << ",\n{\"ph\":\"" << (e.kind == EventKind::Complete ? 'X' : 'i') << "\",\"name\":";
      os << util::json_quote(shard.data.symbols.name(e.name));
      os << ",\"cat\":";
      os << util::json_quote(subsystem);
      os << ",\"ts\":" << e.ts.count();
      if (e.kind == EventKind::Complete) {
        os << ",\"dur\":" << e.dur.count();
      } else {
        os << ",\"s\":\"t\"";
      }
      os << ",\"pid\":0,\"tid\":" << tid << '}';
    }
  }
  os << "\n],\"displayTimeUnit\":\"ms\",\"otherData\":{\"dropped_events\":" << total_dropped()
     << "}}\n";
}

std::string MergedTrace::chrome_json(std::string_view subsystem_filter) const {
  std::ostringstream os;
  write_chrome_json(os, subsystem_filter);
  return std::move(os).str();
}

}  // namespace ednsm::obs
