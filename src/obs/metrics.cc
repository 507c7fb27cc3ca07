#include "obs/metrics.h"

#include <algorithm>
#include <cstdio>
#include <ostream>
#include <sstream>
#include <utility>

namespace ednsm::obs {

namespace {

// Deterministic double formatting for the JSONL dump: %.12g is stable across
// runs (the values themselves are deterministic) and round enough to read.
std::string fmt_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.12g", v);
  return std::string(buf);
}

}  // namespace

Metrics::Key Metrics::counter_key(std::string_view name) {
  const Key k = counter_names_.intern(name);
  if (k >= counters_.size()) counters_.resize(k + 1, 0);
  return k;
}

std::uint64_t Metrics::counter(std::string_view name) const {
  const auto k = counter_names_.find(name);
  return k.has_value() && *k < counters_.size() ? counters_[*k] : 0;
}

void Metrics::set_gauge(std::string_view name, double value) {
  const Key k = gauge_names_.intern(name);
  if (k >= gauges_.size()) gauges_.resize(k + 1, 0.0);
  gauges_[k] = value;
}

double Metrics::gauge(std::string_view name) const {
  const auto k = gauge_names_.find(name);
  return k.has_value() && *k < gauges_.size() ? gauges_[*k] : 0.0;
}

Metrics::Key Metrics::distribution_key(std::string_view name) {
  const Key k = dist_names_.intern(name);
  if (k >= dists_.size()) dists_.resize(k + 1);
  return k;
}

void Metrics::observe(Key distribution, double value) {
  Distribution& d = dists_[distribution];
  d.welford.add(value);
  d.histogram.add(value);
}

const stats::Welford* Metrics::distribution(std::string_view name) const {
  const auto k = dist_names_.find(name);
  return k.has_value() && *k < dists_.size() ? &dists_[*k].welford : nullptr;
}

void Metrics::merge(const Metrics& other) {
  for (Key k = 0; k < other.counters_.size(); ++k) {
    if (other.counters_[k] != 0) add(other.counter_names_.name(k), other.counters_[k]);
  }
  for (Key k = 0; k < other.gauges_.size(); ++k) {
    const std::string& name = other.gauge_names_.name(k);
    const Key mine = gauge_names_.intern(name);
    if (mine >= gauges_.size()) gauges_.resize(mine + 1, 0.0);
    gauges_[mine] += other.gauges_[k];
  }
  for (Key k = 0; k < other.dists_.size(); ++k) {
    const Key mine = distribution_key(other.dist_names_.name(k));
    dists_[mine].welford.merge(other.dists_[k].welford);
    dists_[mine].histogram.merge(other.dists_[k].histogram);
  }
}

void Metrics::write_jsonl(std::ostream& os) const {
  struct Line {
    std::string_view name;
    int kind;  // 0 counter, 1 distribution, 2 gauge — tiebreak for sorting
    Key key;
  };
  std::vector<Line> lines;
  lines.reserve(counters_.size() + gauges_.size() + dists_.size());
  for (Key k = 0; k < counters_.size(); ++k) lines.push_back({counter_names_.name(k), 0, k});
  for (Key k = 0; k < dists_.size(); ++k) lines.push_back({dist_names_.name(k), 1, k});
  for (Key k = 0; k < gauges_.size(); ++k) lines.push_back({gauge_names_.name(k), 2, k});
  std::sort(lines.begin(), lines.end(), [](const Line& a, const Line& b) {
    return a.name != b.name ? a.name < b.name : a.kind < b.kind;
  });

  for (const Line& line : lines) {
    switch (line.kind) {
      case 0:
        os << "{\"kind\":\"counter\",\"name\":";
        os << util::json_quote(line.name);
        os << ",\"value\":" << counters_[line.key] << "}\n";
        break;
      case 1: {
        const Distribution& d = dists_[line.key];
        os << "{\"kind\":\"distribution\",\"name\":";
        os << util::json_quote(line.name);
        os << ",\"count\":" << d.welford.count();
        if (d.welford.count() > 0) {
          os << ",\"mean\":" << fmt_double(d.welford.mean())
             << ",\"stddev\":" << fmt_double(d.welford.stddev())
             << ",\"min\":" << fmt_double(d.welford.min())
             << ",\"max\":" << fmt_double(d.welford.max())
             << ",\"p50\":" << fmt_double(d.histogram.approx_quantile(0.50))
             << ",\"p90\":" << fmt_double(d.histogram.approx_quantile(0.90))
             << ",\"p99\":" << fmt_double(d.histogram.approx_quantile(0.99));
        }
        os << "}\n";
        break;
      }
      default:
        os << "{\"kind\":\"gauge\",\"name\":";
        os << util::json_quote(line.name);
        os << ",\"value\":" << fmt_double(gauges_[line.key]) << "}\n";
    }
  }
}

std::string Metrics::jsonl() const {
  std::ostringstream os;
  write_jsonl(os);
  return std::move(os).str();
}

util::Json Metrics::to_json() const {
  util::JsonObject o;
  util::JsonArray counters;
  counters.reserve(counters_.size());
  for (Key k = 0; k < counters_.size(); ++k) {
    util::JsonArray entry;
    entry.emplace_back(counter_names_.name(k));
    entry.emplace_back(counters_[k]);
    counters.emplace_back(std::move(entry));
  }
  o["counters"] = util::Json(std::move(counters));
  util::JsonArray gauges;
  gauges.reserve(gauges_.size());
  for (Key k = 0; k < gauges_.size(); ++k) {
    util::JsonArray entry;
    entry.emplace_back(gauge_names_.name(k));
    entry.emplace_back(gauges_[k]);
    gauges.emplace_back(std::move(entry));
  }
  o["gauges"] = util::Json(std::move(gauges));
  util::JsonArray dists;
  dists.reserve(dists_.size());
  for (Key k = 0; k < dists_.size(); ++k) {
    const Distribution& d = dists_[k];
    util::JsonObject entry;
    entry["name"] = dist_names_.name(k);
    entry["count"] = d.welford.count();
    entry["mean"] = d.welford.mean();
    entry["m2"] = d.welford.m2();
    entry["min"] = d.welford.min();
    entry["max"] = d.welford.max();
    // Sparse bins: [bin_index, count] pairs for nonzero bins only (the last
    // bin is the overflow bin, matching Histogram::add_count).
    util::JsonArray bins;
    const std::vector<std::uint64_t>& counts = d.histogram.bins();
    for (std::size_t b = 0; b < counts.size(); ++b) {
      if (counts[b] == 0) continue;
      util::JsonArray pair;
      pair.emplace_back(static_cast<std::uint64_t>(b));
      pair.emplace_back(counts[b]);
      bins.emplace_back(std::move(pair));
    }
    entry["bins"] = util::Json(std::move(bins));
    dists.emplace_back(std::move(entry));
  }
  o["dists"] = util::Json(std::move(dists));
  return util::Json(std::move(o));
}

Result<Metrics> Metrics::from_json(const util::Json& j) {
  struct Dist {
    std::string name;
    std::uint64_t count = 0;
    double mean = 0.0;
    double m2 = 0.0;
    double min = 0.0;
    double max = 0.0;
    std::vector<std::pair<std::size_t, std::uint64_t>> bins;  // [bin_index, count]
  };
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  std::vector<std::pair<std::string, double>> gauges;
  std::vector<Dist> dists;
  util::JsonFields f(j, "metrics");
  f.required("counters", counters).required("gauges", gauges);
  f.required("dists", dists, [](const util::Json& e) {
    Dist d;
    util::JsonFields df(e, "distribution");
    df.required("name", d.name)
        .required("count", d.count)
        .optional("mean", d.mean)
        .optional("m2", d.m2)
        .optional("min", d.min)
        .optional("max", d.max)
        .required("bins", d.bins);
    return df.result(std::move(d));
  });
  if (!f) return Err{f.error()};

  Metrics m;
  for (const auto& [name, value] : counters) m.add(name, value);
  for (const auto& [name, value] : gauges) m.set_gauge(name, value);
  for (const Dist& d : dists) {
    const Key k = m.distribution_key(d.name);
    Distribution& dist = m.dists_[k];
    dist.welford = stats::Welford::from_moments(d.count, d.mean, d.m2, d.min, d.max);
    for (const auto& [bin, count] : d.bins) {
      if (!dist.histogram.add_count(bin, count)) {
        return Err{"metrics: dists: " + d.name + ": histogram bin index out of range"};
      }
    }
  }
  return m;
}

}  // namespace ednsm::obs
