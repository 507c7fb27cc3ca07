#include "obs/attribution.h"

#include <algorithm>
#include <tuple>

#include "stats/quantile.h"

namespace ednsm::obs {

namespace {

bool in_window(const QueryEvidence& row, int from_epoch, int to_epoch) {
  return row.epoch >= from_epoch && row.epoch <= to_epoch;
}

}  // namespace

std::string_view StageBreakdown::dominant() const noexcept {
  if (total() == 0) return {};
  std::string_view name = "connect";
  std::uint64_t best = connect;
  const std::pair<std::string_view, std::uint64_t> rest[] = {
      {"handshake", handshake}, {"query", query}, {"timeout", timeout}, {"other", other}};
  for (const auto& [candidate, count] : rest) {
    if (count > best) {
      best = count;
      name = candidate;
    }
  }
  return name;
}

// Keys in sorted order, as Json::dump writes objects; the diagnosis golden
// pins it. The other encoders in this file follow the same rule.
void StageBreakdown::to_json(util::JsonWriter& w) const {
  w.begin_object();
  w.key("connect").value(connect);
  w.key("handshake").value(handshake);
  w.key("other").value(other);
  w.key("query").value(query);
  w.key("timeout").value(timeout);
  w.end_object();
}

Result<StageBreakdown> StageBreakdown::from_json(const util::Json& j) {
  StageBreakdown b;
  util::JsonFields f(j, "stage breakdown");
  f.optional("connect", b.connect)
      .optional("handshake", b.handshake)
      .optional("query", b.query)
      .optional("timeout", b.timeout)
      .optional("other", b.other);
  return f.result(b);
}

void PhaseProfile::to_json(util::JsonWriter& w) const {
  w.begin_object();
  w.key("availability").value(availability);
  w.key("exchange_ms").value(exchange_ms);
  w.key("failures").value(failures);
  w.key("queries").value(queries);
  w.key("quic_ms").value(quic_ms);
  w.key("response_ms").value(response_ms);
  w.key("reused_fraction").value(reused_fraction);
  w.key("tcp_ms").value(tcp_ms);
  w.key("tls_ms").value(tls_ms);
  w.key("wait_ms").value(wait_ms);
  w.end_object();
}

Result<PhaseProfile> PhaseProfile::from_json(const util::Json& j) {
  PhaseProfile p;
  util::JsonFields f(j, "phase profile");
  f.optional("queries", p.queries)
      .optional("failures", p.failures)
      .optional("availability", p.availability)
      .optional("reused_fraction", p.reused_fraction)
      .optional("response_ms", p.response_ms)
      .optional("tcp_ms", p.tcp_ms)
      .optional("tls_ms", p.tls_ms)
      .optional("quic_ms", p.quic_ms)
      .optional("wait_ms", p.wait_ms)
      .optional("exchange_ms", p.exchange_ms);
  return f.result(p);
}

void PhaseDelta::to_json(util::JsonWriter& w) const {
  w.begin_object();
  w.key("availability").value(availability);
  w.key("exchange_ms").value(exchange_ms);
  w.key("quic_ms").value(quic_ms);
  w.key("response_ms").value(response_ms);
  w.key("reused_fraction").value(reused_fraction);
  w.key("tcp_ms").value(tcp_ms);
  w.key("tls_ms").value(tls_ms);
  w.key("wait_ms").value(wait_ms);
  w.end_object();
}

Result<PhaseDelta> PhaseDelta::from_json(const util::Json& j) {
  PhaseDelta d;
  util::JsonFields f(j, "phase delta");
  f.optional("availability", d.availability)
      .optional("reused_fraction", d.reused_fraction)
      .optional("response_ms", d.response_ms)
      .optional("tcp_ms", d.tcp_ms)
      .optional("tls_ms", d.tls_ms)
      .optional("quic_ms", d.quic_ms)
      .optional("wait_ms", d.wait_ms)
      .optional("exchange_ms", d.exchange_ms);
  return f.result(d);
}

void Exemplar::to_json(util::JsonWriter& w) const {
  w.begin_object();
  w.key("domain").value(domain);
  w.key("epoch").value(epoch);
  w.key("error_class").value(error_class);
  w.key("failure_stage").value(failure_stage);
  w.key("flight_ref").value(flight_ref);
  w.key("ok").value(ok);
  w.key("response_ms").value(response_ms);
  w.key("round").value(round);
  w.key("vantage").value(vantage);
  w.end_object();
}

Result<Exemplar> Exemplar::from_json(const util::Json& j) {
  Exemplar e;
  util::JsonFields f(j, "exemplar");
  f.optional("vantage", e.vantage)
      .optional("domain", e.domain)
      .optional("epoch", e.epoch)
      .optional("round", e.round)
      .optional("ok", e.ok)
      .optional("response_ms", e.response_ms)
      .optional("failure_stage", e.failure_stage)
      .optional("error_class", e.error_class)
      .optional("flight_ref", e.flight_ref);
  return f.result(std::move(e));
}

StageBreakdown count_stages(const std::vector<QueryEvidence>& rows, int from_epoch,
                            int to_epoch) {
  StageBreakdown b;
  for (const QueryEvidence& row : rows) {
    if (row.ok || !in_window(row, from_epoch, to_epoch)) continue;
    if (row.failure_stage == "connect") {
      ++b.connect;
    } else if (row.failure_stage == "handshake") {
      ++b.handshake;
    } else if (row.failure_stage == "query") {
      ++b.query;
    } else if (row.failure_stage == "timeout") {
      ++b.timeout;
    } else {
      ++b.other;
    }
  }
  return b;
}

PhaseProfile profile_phases(const std::vector<QueryEvidence>& rows, int from_epoch,
                            int to_epoch) {
  PhaseProfile p;
  std::vector<double> response, tcp, tls, quic, wait, exchange;
  std::uint64_t reused = 0;
  for (const QueryEvidence& row : rows) {
    if (!in_window(row, from_epoch, to_epoch)) continue;
    ++p.queries;
    if (!row.ok) {
      ++p.failures;
      continue;
    }
    if (row.reused) ++reused;
    response.push_back(row.response_ms);
    tcp.push_back(row.tcp_ms);
    tls.push_back(row.tls_ms);
    quic.push_back(row.quic_ms);
    wait.push_back(row.wait_ms);
    exchange.push_back(row.exchange_ms);
  }
  if (p.queries > 0) {
    p.availability = 1.0 - static_cast<double>(p.failures) / static_cast<double>(p.queries);
  }
  if (!response.empty()) {
    p.reused_fraction = static_cast<double>(reused) / static_cast<double>(response.size());
    p.response_ms = stats::median(std::move(response));
    p.tcp_ms = stats::median(std::move(tcp));
    p.tls_ms = stats::median(std::move(tls));
    p.quic_ms = stats::median(std::move(quic));
    p.wait_ms = stats::median(std::move(wait));
    p.exchange_ms = stats::median(std::move(exchange));
  }
  return p;
}

PhaseDelta phase_delta(const PhaseProfile& baseline, const PhaseProfile& window) {
  PhaseDelta d;
  d.availability = window.availability - baseline.availability;
  d.reused_fraction = window.reused_fraction - baseline.reused_fraction;
  d.response_ms = window.response_ms - baseline.response_ms;
  d.tcp_ms = window.tcp_ms - baseline.tcp_ms;
  d.tls_ms = window.tls_ms - baseline.tls_ms;
  d.quic_ms = window.quic_ms - baseline.quic_ms;
  d.wait_ms = window.wait_ms - baseline.wait_ms;
  d.exchange_ms = window.exchange_ms - baseline.exchange_ms;
  return d;
}

std::vector<Exemplar> pick_exemplars(const std::vector<QueryEvidence>& rows, int from_epoch,
                                     int to_epoch, std::size_t limit) {
  std::vector<const QueryEvidence*> failures, successes;
  for (const QueryEvidence& row : rows) {
    if (!in_window(row, from_epoch, to_epoch)) continue;
    (row.ok ? successes : failures).push_back(&row);
  }
  const auto coords = [](const QueryEvidence* r) {
    return std::tie(r->epoch, r->vantage, r->round, r->domain);
  };
  std::sort(failures.begin(), failures.end(),
            [&](const QueryEvidence* a, const QueryEvidence* b) { return coords(a) < coords(b); });
  std::sort(successes.begin(), successes.end(),
            [&](const QueryEvidence* a, const QueryEvidence* b) {
              if (a->response_ms != b->response_ms) return a->response_ms > b->response_ms;
              return coords(a) < coords(b);
            });

  std::vector<Exemplar> out;
  const auto take = [&out](const QueryEvidence& row) {
    Exemplar e;
    e.vantage = row.vantage;
    e.domain = row.domain;
    e.epoch = row.epoch;
    e.round = row.round;
    e.ok = row.ok;
    e.response_ms = row.response_ms;
    e.failure_stage = row.failure_stage;
    e.error_class = row.error_class;
    out.push_back(std::move(e));
  };
  for (const QueryEvidence* row : failures) {
    if (out.size() >= limit) return out;
    take(*row);
  }
  for (const QueryEvidence* row : successes) {
    if (out.size() >= limit) return out;
    take(*row);
  }
  return out;
}

}  // namespace ednsm::obs
