#include "obs/runtime.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <initializer_list>
#include <utility>

#include "util/bytes.h"
#include "util/fs.h"

namespace ednsm::obs {

std::uint64_t runtime_now_ns() {
  // The telemetry domain is the sanctioned home of the host clock; the
  // obs-domain-separation lint rule polices every call path out of here.
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        std::chrono::steady_clock::now().time_since_epoch())
                                        .count());
}

std::uint64_t runtime_unix_ms() {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::milliseconds>(
                                        std::chrono::system_clock::now().time_since_epoch())
                                        .count());
}

// --------------------------------------------------------------------------
// RuntimeStageSnapshot
// --------------------------------------------------------------------------

util::Json RuntimeStageSnapshot::stage_json() const {
  util::JsonObject o;
  o["stage"] = util::Json(stage);
  o["items_in"] = util::Json(static_cast<double>(items_in));
  o["items_out"] = util::Json(static_cast<double>(items_out));
  o["busy_ns"] = util::Json(static_cast<double>(busy_ns));
  return util::Json(std::move(o));
}

Result<RuntimeStageSnapshot> RuntimeStageSnapshot::stage_from_json(const util::Json& j) {
  RuntimeStageSnapshot s;
  util::JsonFields f(j, "stage entry");
  f.required("stage", s.stage)
      .required("items_in", s.items_in)
      .required("items_out", s.items_out)
      .required("busy_ns", s.busy_ns);
  if (!f) return Err{f.error()};
  if (s.stage.empty()) return Err{std::string("stage entry: missing stage name")};
  return s;
}

// --------------------------------------------------------------------------
// RuntimeHeartbeat
// --------------------------------------------------------------------------

util::Json RuntimeHeartbeat::heartbeat_json() const {
  util::JsonObject o;
  o["schema"] = util::Json(std::string(kSchemaName));
  o["version"] = util::Json(kSchemaVersion);
  o["status"] = util::Json(status);
  o["spec_fingerprint"] = util::Json(util::u64_to_hex(spec_fingerprint));
  util::JsonObject shard;
  shard["k"] = util::Json(static_cast<double>(shard_k));
  shard["n"] = util::Json(static_cast<double>(shard_n));
  o["shard"] = util::Json(std::move(shard));
  o["threads"] = util::Json(threads);
  o["started_unix_ms"] = util::Json(static_cast<double>(started_unix_ms));
  o["updated_unix_ms"] = util::Json(static_cast<double>(updated_unix_ms));
  o["elapsed_ms"] = util::Json(elapsed_ms);
  o["plans_total"] = util::Json(static_cast<double>(plans_total));
  o["plans_done"] = util::Json(static_cast<double>(plans_done));
  o["collector_lag"] = util::Json(static_cast<double>(collector_lag));
  o["records"] = util::Json(static_cast<double>(records));
  o["bytes_encoded"] = util::Json(static_cast<double>(bytes_encoded));
  o["completion"] = util::Json(completion);
  o["plans_per_sec"] = util::Json(plans_per_sec);
  o["eta_ms"] = util::Json(eta_ms);
  util::JsonArray stage_rows;
  stage_rows.reserve(stages.size());
  for (const RuntimeStageSnapshot& s : stages) stage_rows.push_back(s.stage_json());
  o["stages"] = util::Json(std::move(stage_rows));
  return util::Json(std::move(o));
}

Result<RuntimeHeartbeat> RuntimeHeartbeat::heartbeat_from_json(const util::Json& j) {
  util::JsonFields f(j, "heartbeat");
  std::string schema;
  int version = 0;
  f.required("schema", schema).required("version", version);
  if (!f) return Err{f.error()};
  if (schema != kSchemaName) return Err{"schema: expected \"" + std::string(kSchemaName) + "\""};
  if (version != kSchemaVersion) return Err{"version: expected " + std::to_string(kSchemaVersion)};

  RuntimeHeartbeat h;
  std::string fingerprint;
  f.required("status", h.status).required("spec_fingerprint", fingerprint);
  util::JsonFields shard = f.object("shard");
  shard.required("k", h.shard_k).required("n", h.shard_n);
  f.required("threads", h.threads)
      .required("started_unix_ms", h.started_unix_ms)
      .required("updated_unix_ms", h.updated_unix_ms)
      .required("elapsed_ms", h.elapsed_ms)
      .required("plans_total", h.plans_total)
      .required("plans_done", h.plans_done)
      .required("collector_lag", h.collector_lag)
      .required("records", h.records)
      .required("bytes_encoded", h.bytes_encoded)
      .required("completion", h.completion)
      .required("plans_per_sec", h.plans_per_sec)
      .required("eta_ms", h.eta_ms)
      .required("stages", h.stages, RuntimeStageSnapshot::stage_from_json);
  if (!f) return Err{f.error()};

  if (h.status != "starting" && h.status != "running" && h.status != "done" &&
      h.status != "failed") {
    return Err{"status: unknown value \"" + h.status + "\""};
  }
  auto fp = util::u64_from_hex(fingerprint);
  if (!fp) return Err{"spec_fingerprint: " + fp.error()};
  h.spec_fingerprint = fp.value();
  if (h.shard_n < 1 || h.shard_k >= h.shard_n) {
    return Err{std::string("shard: require 0 <= k < n")};
  }
  if (h.threads < 0) return Err{std::string("threads: expected a non-negative number")};
  if (h.updated_unix_ms < h.started_unix_ms) {
    return Err{std::string("updated_unix_ms earlier than started_unix_ms")};
  }
  if (h.plans_done > h.plans_total) return Err{std::string("plans_done exceeds plans_total")};
  if (!(h.completion >= 0 && h.completion <= 1)) {
    return Err{std::string("completion: expected a number in [0, 1]")};
  }
  for (const auto& [key, value] : {std::pair{"elapsed_ms", h.elapsed_ms},
                                   std::pair{"plans_per_sec", h.plans_per_sec},
                                   std::pair{"eta_ms", h.eta_ms}}) {
    if (value < 0) return Err{std::string(key) + ": expected a non-negative number"};
  }
  return h;
}

// --------------------------------------------------------------------------
// RunManifest
// --------------------------------------------------------------------------

util::Json RunManifest::manifest_json() const {
  util::JsonObject o;
  o["schema"] = util::Json(std::string(kSchemaName));
  o["version"] = util::Json(kSchemaVersion);
  o["spec_fingerprint"] = util::Json(util::u64_to_hex(spec_fingerprint));
  o["seed"] = util::Json(util::u64_to_hex(seed));
  util::JsonObject shard;
  shard["k"] = util::Json(static_cast<double>(shard_k));
  shard["n"] = util::Json(static_cast<double>(shard_n));
  o["shard"] = util::Json(std::move(shard));
  o["total_shards"] = util::Json(static_cast<double>(total_shards));
  o["plans"] = util::Json(static_cast<double>(plans));
  o["threads"] = util::Json(threads);
  o["status"] = util::Json(status);
  o["started_unix_ms"] = util::Json(static_cast<double>(started_unix_ms));
  o["finished_unix_ms"] = util::Json(static_cast<double>(finished_unix_ms));
  o["wall_ms"] = util::Json(wall_ms);
  o["records"] = util::Json(static_cast<double>(records));
  o["pings"] = util::Json(static_cast<double>(pings));
  o["bytes_encoded"] = util::Json(static_cast<double>(bytes_encoded));
  util::JsonArray stage_rows;
  stage_rows.reserve(stages.size());
  for (const RuntimeStageSnapshot& s : stages) stage_rows.push_back(s.stage_json());
  o["stages"] = util::Json(std::move(stage_rows));
  return util::Json(std::move(o));
}

Result<RunManifest> RunManifest::manifest_from_json(const util::Json& j) {
  util::JsonFields f(j, "run manifest");
  std::string schema;
  int version = 0;
  f.required("schema", schema).required("version", version);
  if (!f) return Err{f.error()};
  if (schema != kSchemaName) return Err{"schema: expected \"" + std::string(kSchemaName) + "\""};
  if (version != kSchemaVersion) return Err{"version: expected " + std::to_string(kSchemaVersion)};

  RunManifest m;
  std::string fingerprint;
  std::string seed;
  f.required("spec_fingerprint", fingerprint).required("seed", seed);
  util::JsonFields shard = f.object("shard");
  shard.required("k", m.shard_k).required("n", m.shard_n);
  f.required("total_shards", m.total_shards)
      .required("plans", m.plans)
      .required("threads", m.threads)
      .required("status", m.status)
      .required("started_unix_ms", m.started_unix_ms)
      .required("finished_unix_ms", m.finished_unix_ms)
      .required("wall_ms", m.wall_ms)
      .required("records", m.records)
      .required("pings", m.pings)
      .required("bytes_encoded", m.bytes_encoded)
      .required("stages", m.stages, RuntimeStageSnapshot::stage_from_json);
  if (!f) return Err{f.error()};

  auto fp = util::u64_from_hex(fingerprint);
  if (!fp) return Err{"spec_fingerprint: " + fp.error()};
  m.spec_fingerprint = fp.value();
  auto parsed_seed = util::u64_from_hex(seed);
  if (!parsed_seed) return Err{"seed: " + parsed_seed.error()};
  m.seed = parsed_seed.value();
  if (m.shard_n < 1 || m.shard_k >= m.shard_n) {
    return Err{std::string("shard: require 0 <= k < n")};
  }
  if (m.plans > m.total_shards) return Err{std::string("plans exceeds total_shards")};
  if (m.threads < 0) return Err{std::string("threads: expected a non-negative number")};
  if (m.status != "ok" && m.status != "failed") {
    return Err{"status: unknown value \"" + m.status + "\""};
  }
  if (m.finished_unix_ms < m.started_unix_ms) {
    return Err{std::string("finished_unix_ms earlier than started_unix_ms")};
  }
  if (m.wall_ms < 0) return Err{std::string("wall_ms: expected a non-negative number")};
  return m;
}

Result<RunManifest> RunManifest::manifest_load(const std::string& path) {
  auto text = util::read_file(path);
  if (!text) return Err{text.error()};
  auto json = util::Json::parse(text.value());
  if (!json) return Err{path + ": not valid JSON: " + json.error()};
  auto parsed = manifest_from_json(json.value());
  if (!parsed) return Err{path + ": " + parsed.error()};
  return parsed;
}

// --------------------------------------------------------------------------
// Campaign-level fold
// --------------------------------------------------------------------------

std::vector<std::size_t> straggler_shards(const std::vector<RunManifest>& manifests) {
  std::vector<std::size_t> out;
  if (manifests.size() < 2) return out;
  std::vector<double> walls;
  walls.reserve(manifests.size());
  for (const RunManifest& m : manifests) walls.push_back(m.wall_ms);
  std::sort(walls.begin(), walls.end());
  const std::size_t mid = walls.size() / 2;
  const double median =
      walls.size() % 2 == 1 ? walls[mid] : (walls[mid - 1] + walls[mid]) / 2.0;
  for (std::size_t i = 0; i < manifests.size(); ++i) {
    if (median > 0 && manifests[i].wall_ms > 2.0 * median) out.push_back(i);
  }
  return out;
}

util::Json campaign_manifest_json(const std::vector<RunManifest>& manifests) {
  util::JsonObject o;
  o["schema"] = util::Json(std::string("ednsm-campaign-manifest"));
  o["version"] = util::Json(1);
  std::uint64_t records = 0;
  std::uint64_t pings = 0;
  std::uint64_t bytes = 0;
  std::size_t plans = 0;
  double max_wall = 0;
  double sum_wall = 0;
  // Emit shards sorted by slice index so the fold is independent of the
  // order the merge was handed the manifest files.
  std::vector<const RunManifest*> ordered;
  ordered.reserve(manifests.size());
  for (const RunManifest& m : manifests) ordered.push_back(&m);
  std::sort(ordered.begin(), ordered.end(),
            [](const RunManifest* a, const RunManifest* b) { return a->shard_k < b->shard_k; });
  const std::vector<std::size_t> stragglers = straggler_shards(manifests);
  util::JsonArray shard_rows;
  for (const RunManifest* m : ordered) {
    records += m->records;
    pings += m->pings;
    bytes += m->bytes_encoded;
    plans += m->plans;
    max_wall = std::max(max_wall, m->wall_ms);
    sum_wall += m->wall_ms;
    util::JsonObject row;
    row["k"] = util::Json(static_cast<double>(m->shard_k));
    row["status"] = util::Json(m->status);
    row["plans"] = util::Json(static_cast<double>(m->plans));
    row["threads"] = util::Json(m->threads);
    row["wall_ms"] = util::Json(m->wall_ms);
    row["records"] = util::Json(static_cast<double>(m->records));
    row["plans_per_sec"] = util::Json(
        m->wall_ms > 0 ? static_cast<double>(m->plans) / (m->wall_ms / 1000.0) : 0.0);
    bool straggler = false;
    for (const std::size_t idx : stragglers) {
      if (&manifests[idx] == m) straggler = true;
    }
    row["straggler"] = util::Json(straggler);
    shard_rows.push_back(util::Json(std::move(row)));
  }
  if (!manifests.empty()) {
    o["spec_fingerprint"] = util::Json(util::u64_to_hex(manifests.front().spec_fingerprint));
    o["shard_count"] = util::Json(static_cast<double>(manifests.size()));
    o["total_shards"] = util::Json(static_cast<double>(manifests.front().total_shards));
  }
  o["plans"] = util::Json(static_cast<double>(plans));
  o["records"] = util::Json(static_cast<double>(records));
  o["pings"] = util::Json(static_cast<double>(pings));
  o["bytes_encoded"] = util::Json(static_cast<double>(bytes));
  o["wall_ms_max"] = util::Json(max_wall);
  o["wall_ms_sum"] = util::Json(sum_wall);
  o["stragglers"] = util::Json(static_cast<double>(stragglers.size()));
  o["shards"] = util::Json(std::move(shard_rows));
  return util::Json(std::move(o));
}

std::string shard_stats_table(const std::vector<RunManifest>& manifests) {
  std::vector<const RunManifest*> ordered;
  ordered.reserve(manifests.size());
  for (const RunManifest& m : manifests) ordered.push_back(&m);
  std::sort(ordered.begin(), ordered.end(),
            [](const RunManifest* a, const RunManifest* b) { return a->shard_k < b->shard_k; });
  const std::vector<std::size_t> stragglers = straggler_shards(manifests);
  std::string out = "shard   status   plans  wall_ms    plans/s  threads\n";
  for (const RunManifest* m : ordered) {
    bool straggler = false;
    for (const std::size_t idx : stragglers) {
      if (&manifests[idx] == m) straggler = true;
    }
    char line[160];
    std::snprintf(line, sizeof(line), "%2zu/%-2zu  %-7s %6zu  %9.1f  %7.1f  %7d%s\n",
                  m->shard_k, m->shard_n, m->status.c_str(), m->plans, m->wall_ms,
                  m->wall_ms > 0 ? static_cast<double>(m->plans) / (m->wall_ms / 1000.0) : 0.0,
                  m->threads, straggler ? "  << straggler (>2x median wall)" : "");
    out += line;
  }
  return out;
}

// --------------------------------------------------------------------------
// RuntimeTelemetry
// --------------------------------------------------------------------------

RuntimeTelemetry::RuntimeTelemetry(ClockNs now_ns, ClockMs unix_ms)
    : now_ns_(now_ns), unix_ms_(unix_ms) {}

void RuntimeTelemetry::describe_run(std::uint64_t spec_fingerprint, std::size_t shard_k,
                                    std::size_t shard_n, int threads) {
  spec_fingerprint_ = spec_fingerprint;
  shard_k_ = shard_k;
  shard_n_ = shard_n;
  threads_ = threads;
}

void RuntimeTelemetry::begin_run(std::uint64_t plans_total) {
  plans_total_ = plans_total;
  started_unix_ms_ = unix_ms_();
  started_ns_ = now_ns_();
}

void RuntimeTelemetry::note_plan_done(std::uint64_t busy_ns) {
  plans_done_.fetch_add(1, std::memory_order_relaxed);
  worker_busy_ns_.fetch_add(busy_ns, std::memory_order_relaxed);
}

void RuntimeTelemetry::note_sink_items(std::uint64_t items, std::uint64_t busy_ns) {
  sink_items_.fetch_add(items, std::memory_order_relaxed);
  collector_busy_ns_.fetch_add(busy_ns, std::memory_order_relaxed);
}

void RuntimeTelemetry::note_records(std::uint64_t n) {
  records_.fetch_add(n, std::memory_order_relaxed);
}

void RuntimeTelemetry::note_bytes_encoded(std::uint64_t n) {
  bytes_encoded_.fetch_add(n, std::memory_order_relaxed);
}

std::uint64_t RuntimeTelemetry::plans_done_so_far() const {
  return plans_done_.load(std::memory_order_relaxed);
}

RuntimeHeartbeat RuntimeTelemetry::snapshot_runtime(std::string status) const {
  RuntimeHeartbeat h;
  h.status = std::move(status);
  h.spec_fingerprint = spec_fingerprint_;
  h.shard_k = shard_k_;
  h.shard_n = shard_n_;
  h.threads = threads_;
  h.started_unix_ms = started_unix_ms_;
  h.updated_unix_ms = std::max(unix_ms_(), started_unix_ms_);
  const std::uint64_t now = now_ns_();
  h.elapsed_ms =
      now > started_ns_ ? static_cast<double>(now - started_ns_) / 1e6 : 0.0;
  h.plans_total = plans_total_;
  h.plans_done = std::min(plans_done_.load(std::memory_order_relaxed), plans_total_);
  const std::uint64_t sunk = sink_items_.load(std::memory_order_relaxed);
  h.collector_lag = h.plans_done > sunk ? h.plans_done - sunk : 0;
  h.records = records_.load(std::memory_order_relaxed);
  h.bytes_encoded = bytes_encoded_.load(std::memory_order_relaxed);
  h.completion = plans_total_ > 0
                     ? static_cast<double>(h.plans_done) / static_cast<double>(plans_total_)
                     : 0.0;
  h.plans_per_sec =
      h.elapsed_ms > 0 ? static_cast<double>(h.plans_done) / (h.elapsed_ms / 1000.0) : 0.0;
  h.eta_ms = (h.completion > 0 && h.completion < 1.0)
                 ? h.elapsed_ms * (1.0 - h.completion) / h.completion
                 : 0.0;

  // Every plan is available to the workers from the start; each simulated
  // plan then enters the collect stage.
  RuntimeStageSnapshot simulate;
  simulate.stage = "simulate";
  simulate.items_in = plans_total_;
  simulate.items_out = h.plans_done;
  simulate.busy_ns = worker_busy_ns_.load(std::memory_order_relaxed);

  RuntimeStageSnapshot collect;
  collect.stage = "collect";
  collect.items_in = h.plans_done;
  collect.items_out = sunk;
  collect.busy_ns = collector_busy_ns_.load(std::memory_order_relaxed);

  h.stages = {std::move(simulate), std::move(collect)};
  return h;
}

// --------------------------------------------------------------------------
// HeartbeatWriter
// --------------------------------------------------------------------------

HeartbeatWriter::HeartbeatWriter(std::string path, const RuntimeTelemetry& telemetry,
                                 std::uint64_t interval_ms)
    : path_(std::move(path)),
      telemetry_(telemetry),
      interval_(interval_ms),
      ticker_([this](const std::stop_token& stop) { tick(stop); }) {}

void HeartbeatWriter::tick(const std::stop_token& stop) {
  // Telemetry must never fail the measurement: a transient heartbeat I/O
  // error is dropped, the next tick retries.
  (void)emit_heartbeat("starting");
  std::unique_lock<std::mutex> lock(mutex_);
  while (!wake_.wait_for(lock, stop, interval_, [&stop] { return stop.stop_requested(); })) {
    (void)emit_heartbeat("running");
  }
}

Result<void> HeartbeatWriter::emit_heartbeat(std::string status) const {
  const RuntimeHeartbeat h = telemetry_.snapshot_runtime(std::move(status));
  return util::write_file_atomic(path_, h.heartbeat_json().dump(2) + "\n");
}

Result<void> HeartbeatWriter::write_final(std::string_view status) {
  ticker_.request_stop();
  if (ticker_.joinable()) ticker_.join();
  return emit_heartbeat(std::string(status));
}

}  // namespace ednsm::obs
