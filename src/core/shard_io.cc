#include "core/shard_io.h"

#include "util/bytes.h"
#include "util/fs.h"

namespace ednsm::core {

namespace {

// One outcomes[] entry; trace and metrics are required exactly when the file
// says it carries them.
Result<ShardOutcome> outcome_from_json(const util::Json& j, bool has_trace, bool has_metrics) {
  ShardOutcome out;
  std::string seed;
  util::JsonFields f(j, "outcome");
  f.required("index", out.index)
      .required("vantage", out.vantage)
      .required("seed", seed)
      .required("records", out.result.records)
      .required("pings", out.result.pings);
  if (has_trace) f.required("trace", out.trace);
  if (has_metrics) f.required("metrics", out.metrics);
  if (!f) return Err{f.error()};
  auto parsed_seed = util::u64_from_hex(seed);
  if (!parsed_seed) return Err{"outcome: bad seed: " + parsed_seed.error()};
  out.seed = parsed_seed.value();
  return out;
}

}  // namespace

// Keys in sorted order, as Json::dump writes objects; the shard golden pins it.
void ShardFile::to_json(util::JsonWriter& w) const {
  w.begin_object();
  w.key("has_metrics").value(has_metrics);
  w.key("has_trace").value(has_trace);
  w.key("magic").value(kMagic);
  w.key("outcomes").begin_array();
  for (const ShardOutcome& out : outcomes) {
    w.begin_object();
    w.key("index").value(static_cast<std::uint64_t>(out.index));
    if (has_metrics) w.key("metrics").value(out.metrics.to_json());
    w.key("pings").begin_array();
    for (const PingRecord& p : out.result.pings) p.to_json(w);
    w.end_array();
    w.key("records").begin_array();
    for (const ResultRecord& r : out.result.records) r.to_json(w);
    w.end_array();
    w.key("seed").value(util::u64_to_hex(out.seed));
    if (has_trace) w.key("trace").value(out.trace.to_json());
    w.key("vantage").value(out.vantage);
    w.end_object();
  }
  w.end_array();
  w.key("slice").begin_object();
  w.key("k").value(static_cast<std::uint64_t>(slice.k));
  w.key("n").value(static_cast<std::uint64_t>(slice.n));
  w.end_object();
  w.key("spec");
  spec.to_json(w);
  w.key("spec_fingerprint").value(util::u64_to_hex(spec_fingerprint(spec)));
  w.key("total_shards").value(static_cast<std::uint64_t>(total_shards));
  w.key("version").value(kVersion);
  w.end_object();
}

Result<ShardFile> ShardFile::from_json(const util::Json& j) {
  ShardFile file;
  std::string magic;
  int version = 0;
  util::JsonFields f(j, "shard file");
  f.required("magic", magic).required("version", version);
  if (!f) return Err{f.error()};
  if (magic != kMagic) return Err{std::string("shard file: bad magic (expected \"ednsm-shard\")")};
  if (version != kVersion) return Err{std::string("shard file: unsupported version")};

  std::string fingerprint;
  f.required("spec", file.spec).required("spec_fingerprint", fingerprint);
  util::JsonFields slice = f.object("slice");
  slice.required("k", file.slice.k).required("n", file.slice.n);
  f.required("total_shards", file.total_shards)
      .required("has_trace", file.has_trace)
      .required("has_metrics", file.has_metrics);
  if (!f) return Err{f.error()};
  auto fp = util::u64_from_hex(fingerprint);
  if (!fp) return Err{"shard file: bad spec_fingerprint: " + fp.error()};
  if (fp.value() != spec_fingerprint(file.spec)) {
    return Err{std::string("shard file: spec_fingerprint does not match embedded spec")};
  }

  f.required("outcomes", file.outcomes, [&file](const util::Json& o) {
    return outcome_from_json(o, file.has_trace, file.has_metrics);
  });
  if (!f) return Err{f.error()};
  if (auto v = file.validate(); !v) return Err{v.error()};
  return file;
}

Result<void> ShardFile::validate() const {
  if (!slice.valid()) return Err{std::string("shard file: invalid slice (need 0 <= k < n)")};
  const std::vector<ShardPlan> plans = expand_spec(spec);
  if (plans.size() != total_shards) {
    return Err{"shard file: total_shards " + std::to_string(total_shards) +
               " does not match the spec's " + std::to_string(plans.size()) + " shards"};
  }
  const SliceBounds bounds = slice_bounds(plans.size(), slice);
  if (outcomes.size() != bounds.count()) {
    return Err{"shard file: slice " + std::to_string(slice.k) + "/" + std::to_string(slice.n) +
               " expects " + std::to_string(bounds.count()) + " outcomes, found " +
               std::to_string(outcomes.size())};
  }
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    const ShardOutcome& out = outcomes[i];
    const std::size_t expected_index = bounds.begin + i;
    if (out.index != expected_index) {
      return Err{"shard file: outcome " + std::to_string(i) + " has index " +
                 std::to_string(out.index) + ", expected " + std::to_string(expected_index)};
    }
    const ShardPlan& plan = plans[out.index];
    if (out.vantage != plan.vantage) {
      return Err{"shard file: outcome " + std::to_string(out.index) + " vantage \"" +
                 out.vantage + "\" does not match spec vantage \"" + plan.vantage + "\""};
    }
    if (out.seed != plan.seed) {
      return Err{"shard file: outcome " + std::to_string(out.index) +
                 " seed does not match the spec-derived shard seed"};
    }
  }
  return {};
}

Result<void> ShardFile::write(const std::string& path) const {
  util::JsonWriter w(2);
  to_json(w);
  std::string bytes = std::move(w).take();
  bytes.push_back('\n');
  return util::write_file_atomic(path, bytes);
}

Result<ShardFile> ShardFile::load(const std::string& path) {
  auto text = util::read_file(path);
  if (!text) return Err{"shard file: " + text.error()};
  auto j = util::Json::parse(text.value());
  if (!j) return Err{"shard file " + path + ": " + j.error()};
  auto f = from_json(j.value());
  if (!f) return Err{path + ": " + f.error()};
  return f;
}

}  // namespace ednsm::core
