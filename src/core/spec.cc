#include "core/spec.h"

#include <cmath>
#include <optional>

#include "util/bytes.h"

namespace ednsm::core {

namespace {

void write_strings(util::JsonWriter& w, std::string_view key, const std::vector<std::string>& v) {
  w.key(key).begin_array();
  for (const std::string& s : v) w.value(s);
  w.end_array();
}

std::string_view protocol_name(client::Protocol p) { return client::to_string(p); }

// Durations decode like integer fields: a value whose microsecond count
// overflows SimDuration's int64 is an error, not an undefined conversion.
Result<void> set_duration_ms(const std::optional<double>& ms, std::string_view what,
                             netsim::SimDuration& out) {
  if (!ms.has_value()) return {};
  if (!(std::abs(*ms) < 9e15)) return Err{std::string(what) + " is out of range"};
  out = netsim::from_ms(*ms);
  return {};
}

Result<client::Protocol> parse_protocol(const std::string& s) {
  if (auto p = client::protocol_from_string(s); p.has_value()) return *p;
  return Err{std::string("spec: unknown protocol '") + s + "'"};
}

}  // namespace

// Keys in sorted order, as Json::dump writes objects; the results golden pins
// MeasurementSpec's, and FaultWindow follows the same rule.
void FaultWindow::to_json(util::JsonWriter& w) const {
  w.begin_object();
  w.key("from_round").value(from_round);
  w.key("resolver").value(resolver);
  w.key("to_round").value(to_round);
  w.end_object();
}

Result<FaultWindow> FaultWindow::from_json(const util::Json& j) {
  FaultWindow w;
  util::JsonFields f(j, "fault window");
  f.required("resolver", w.resolver).required("from_round", w.from_round)
      .required("to_round", w.to_round);
  return f.result(std::move(w));
}

Result<void> MeasurementSpec::validate() const {
  if (resolvers.empty()) return Err{std::string("spec: no resolvers")};
  if (domains.empty()) return Err{std::string("spec: no domains")};
  if (vantage_ids.empty()) return Err{std::string("spec: no vantage points")};
  if (rounds <= 0) return Err{std::string("spec: rounds must be positive")};
  if (round_interval <= netsim::kZeroDuration) {
    return Err{std::string("spec: round interval must be positive")};
  }
  if (ping_timeout <= netsim::kZeroDuration) {
    return Err{std::string("spec: ping timeout must be positive")};
  }
  if (query_options.timeout <= netsim::kZeroDuration) {
    return Err{std::string("spec: query timeout must be positive")};
  }
  for (const FaultWindow& w : fault_windows) {
    if (w.resolver.empty()) return Err{std::string("spec: fault window needs a resolver")};
    if (w.from_round < 0 || w.to_round <= w.from_round) {
      return Err{std::string("spec: fault window rounds must satisfy 0 <= from < to")};
    }
  }
  return {};
}

void MeasurementSpec::to_json(util::JsonWriter& w) const {
  w.begin_object();
  write_strings(w, "domains", domains);
  w.key("early_data").value(query_options.offer_early_data);
  if (!fault_windows.empty()) {
    w.key("fault_windows").begin_array();
    for (const FaultWindow& fw : fault_windows) fw.to_json(w);
    w.end_array();
  }
  w.key("pad_block").value(static_cast<std::uint64_t>(query_options.pad_block));
  w.key("ping_timeout_ms").value(netsim::to_ms(ping_timeout));
  w.key("protocol").value(protocol_name(protocol));
  write_strings(w, "resolvers", resolvers);
  w.key("reuse").value(transport::to_string(query_options.reuse));
  w.key("round_interval_s")
      .value(static_cast<double>(
          std::chrono::duration_cast<std::chrono::seconds>(round_interval).count()));
  w.key("rounds").value(rounds);
  w.key("seed").value(util::u64_to_hex(seed));
  w.key("timeout_ms").value(netsim::to_ms(query_options.timeout));
  w.key("use_http2").value(query_options.use_http2);
  w.key("use_post").value(query_options.use_post);
  write_strings(w, "vantage_ids", vantage_ids);
  w.end_object();
}

Result<MeasurementSpec> MeasurementSpec::from_json(const util::Json& j) {
  MeasurementSpec spec;
  std::string protocol;
  std::optional<std::string> reuse;
  std::optional<std::int64_t> round_interval_s;
  std::optional<double> ping_timeout_ms;
  std::optional<double> timeout_ms;
  std::optional<std::string> seed;
  // Seeds use all 64 bits, which a JSON number cannot hold.
  const std::string seed_format = "spec: seed must be a string of 16 lowercase hex digits";
  if (j.is_object() && j.at("seed").is_number()) return Err{seed_format + ", not a number"};
  util::JsonFields f(j, "spec");
  f.required("resolvers", spec.resolvers)
      .required("domains", spec.domains)
      .required("vantage_ids", spec.vantage_ids)
      .required("protocol", protocol)
      .optional("rounds", spec.rounds)
      .optional("round_interval_s", round_interval_s)
      .optional("ping_timeout_ms", ping_timeout_ms)
      .optional("timeout_ms", timeout_ms)
      .optional("use_post", spec.query_options.use_post)
      .optional("use_http2", spec.query_options.use_http2)
      .optional("early_data", spec.query_options.offer_early_data)
      .optional("pad_block", spec.query_options.pad_block)
      .optional("reuse", reuse)
      .optional("seed", seed)
      .optional("fault_windows", spec.fault_windows);
  if (!f) return Err{f.error()};
  if (seed.has_value()) {
    auto parsed = util::u64_from_hex(*seed);
    if (!parsed) return Err{seed_format + " (got \"" + *seed + "\")"};
    spec.seed = parsed.value();
  }

  auto proto = parse_protocol(protocol);
  if (!proto) return Err{proto.error()};
  spec.protocol = proto.value();
  if (reuse.has_value()) {
    const auto policy = transport::reuse_policy_from_string(*reuse);
    if (!policy.has_value()) return Err{"spec: unknown reuse policy '" + *reuse + "'"};
    spec.query_options.reuse = *policy;
  }
  if (round_interval_s.has_value()) {
    // SimDuration counts microseconds in an int64: whole seconds stay below 9e12.
    constexpr std::int64_t kMaxSeconds = 9'000'000'000'000;
    if (*round_interval_s <= -kMaxSeconds || *round_interval_s >= kMaxSeconds) {
      return Err{std::string("spec: round_interval_s is out of range")};
    }
    spec.round_interval = std::chrono::seconds(*round_interval_s);
  }
  if (auto v = set_duration_ms(ping_timeout_ms, "spec: ping_timeout_ms", spec.ping_timeout); !v) {
    return Err{v.error()};
  }
  if (auto v = set_duration_ms(timeout_ms, "spec: timeout_ms", spec.query_options.timeout); !v) {
    return Err{v.error()};
  }
  if (auto v = spec.validate(); !v) return Err{v.error()};
  return spec;
}

std::string_view derive_failure_stage(std::string_view error_class) noexcept {
  // "bootstrap-failure" never reached the wire; the closest phase is connect.
  if (error_class == "connect-refused" || error_class == "connect-timeout" ||
      error_class == "bootstrap-failure") {
    return "connect";
  }
  if (error_class == "tls-failure") return "handshake";
  if (error_class == "http-error" || error_class == "malformed") return "query";
  if (error_class == "timeout") return "timeout";
  return {};
}

// Keys are written in sorted order, the order Json::dump gives every object;
// the canonical-form tests and the results golden pin it (see DESIGN.md,
// "ResultRecord JSON schema"). PingRecord below follows the same rule.
void ResultRecord::to_json(util::JsonWriter& w) const {
  w.begin_object();
  w.key("answers").value(answer_count);
  w.key("connect_ms").value(connect_ms);
  w.key("domain").value(domain);
  if (!ok) {
    w.key("error_class").value(error_class);
    w.key("error_detail").value(error_detail);
  }
  if (exchange_ms != 0) w.key("exchange_ms").value(exchange_ms);
  if (!ok && !failure_stage.empty()) w.key("failure_stage").value(failure_stage);
  if (http_status != 0) w.key("http_status").value(http_status);
  w.key("issued_at_ms").value(issued_at_ms);
  w.key("ok").value(ok);
  if (pool_wait_ms != 0) w.key("pool_wait_ms").value(pool_wait_ms);
  w.key("protocol").value(protocol_name(protocol));
  if (quic_handshake_ms != 0) w.key("quic_handshake_ms").value(quic_handshake_ms);
  if (ok) w.key("rcode").value(rcode);
  w.key("resolver").value(resolver);
  w.key("response_ms").value(response_ms);
  w.key("reused").value(connection_reused);
  w.key("round").value(round);
  if (tcp_handshake_ms != 0) w.key("tcp_handshake_ms").value(tcp_handshake_ms);
  if (tls_handshake_ms != 0) w.key("tls_handshake_ms").value(tls_handshake_ms);
  w.key("vantage").value(vantage);
  w.end_object();
}

Result<ResultRecord> ResultRecord::from_json(const util::Json& j) {
  ResultRecord r;
  std::optional<std::string> protocol;
  util::JsonFields f(j, "record");
  f.required("vantage", r.vantage)
      .required("resolver", r.resolver)
      .required("domain", r.domain)
      .required("ok", r.ok)
      .optional("protocol", protocol)
      .optional("round", r.round)
      .optional("issued_at_ms", r.issued_at_ms)
      .optional("response_ms", r.response_ms)
      .optional("connect_ms", r.connect_ms)
      .optional("tcp_handshake_ms", r.tcp_handshake_ms)
      .optional("tls_handshake_ms", r.tls_handshake_ms)
      .optional("quic_handshake_ms", r.quic_handshake_ms)
      .optional("pool_wait_ms", r.pool_wait_ms)
      .optional("exchange_ms", r.exchange_ms)
      .optional("reused", r.connection_reused)
      .optional("rcode", r.rcode)
      .optional("error_class", r.error_class)
      .optional("error_detail", r.error_detail)
      .optional("failure_stage", r.failure_stage)
      .optional("http_status", r.http_status)
      .optional("answers", r.answer_count);
  if (!f) return Err{f.error()};
  if (protocol.has_value()) {
    auto p = parse_protocol(*protocol);
    if (!p) return Err{p.error()};
    r.protocol = p.value();
  }
  if (!r.ok && r.failure_stage.empty()) {
    // Files written before the field existed: reconstruct from error_class.
    r.failure_stage = std::string(derive_failure_stage(r.error_class));
  }
  return r;
}

void PingRecord::to_json(util::JsonWriter& w) const {
  w.begin_object();
  w.key("ok").value(ok);
  w.key("resolver").value(resolver);
  w.key("round").value(round);
  if (ok) w.key("rtt_ms").value(rtt_ms);
  w.key("vantage").value(vantage);
  w.end_object();
}

Result<PingRecord> PingRecord::from_json(const util::Json& j) {
  PingRecord p;
  util::JsonFields f(j, "ping");
  f.required("vantage", p.vantage)
      .required("resolver", p.resolver)
      .required("ok", p.ok)
      .optional("round", p.round)
      .optional("rtt_ms", p.rtt_ms);
  return f.result(std::move(p));
}

}  // namespace ednsm::core
