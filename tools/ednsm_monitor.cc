// ednsm-monitor: longitudinal monitor mode — repeated campaigns over
// simulated days, a time-series store, rolling SLOs, and outage detection.
//
// Usage:
//   ednsm_monitor run --resolvers dns.google,ordns.he.net --vantages ec2-ohio
//                 [--epochs 8] [--rounds 3] [--protocol DoH] [--seed 1]
//                 [--threads N] [--domains a.com,b.com]
//                 [--outage resolver:from:to]...   (epochs [from, to) offline)
//                 [--window 3]
//                 [--out monitor.json] [--series-out series.jsonl]
//                 [--series-bin series.bin] [--slo-out slo.json]
//                 [--events-out events.json]
//   ednsm_monitor run --spec monitor_spec.json [--threads N] [--out ...]
//   ednsm_monitor slo --in monitor.json [--json]
//   ednsm_monitor events --in monitor.json
//   ednsm_monitor diagnose --in monitor.json [--baseline K] [--exemplars N]
//                 [--json] [--out diagnosis.json]
//   ednsm_monitor export --prom --in monitor.json
//
// The monitor file holds the per-query evidence rows and the spec only;
// `slo`, `events`, `export` and `diagnose` refold the series, SLOs and events
// from those rows (monitor/monitor.h), so they show exactly what `run` wrote.
// `diagnose` attributes every event to a ranked cause from the same rows; it
// simulates nothing. See monitor/diagnose.h.
//
// The run and diagnose outputs are pure functions of the spec:
// byte-identical series, SLO, event, evidence and diagnosis files for any
// `run --threads` value.
//
// Exit codes: 0 ok, 1 bad usage, 2 invalid spec, 3 I/O error.
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "flags.h"
#include "monitor/diagnose.h"
#include "monitor/monitor.h"
#include "monitor/prom.h"
#include "resolver/registry.h"
#include "util/fs.h"
#include "util/strings.h"

using namespace ednsm;

namespace {

struct Args {
  std::string command;
  std::map<std::string, std::string> options;
  std::vector<std::string> outages;  // repeatable --outage
  bool all_resolvers = false;
  bool json = false;
  bool prom = false;

  [[nodiscard]] const std::string* get(const std::string& key) const {
    const auto it = options.find(key);
    return it == options.end() ? nullptr : &it->second;
  }
};

Result<Args> parse_args(int argc, char** argv) {
  if (argc < 2) return Err{std::string("missing command (run|slo|events|diagnose|export)")};
  Args args;
  args.command = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--all-resolvers") {
      args.all_resolvers = true;
      continue;
    }
    if (arg == "--json") {
      args.json = true;
      continue;
    }
    if (arg == "--prom") {
      args.prom = true;
      continue;
    }
    if (!arg.starts_with("--")) return Err{std::string("unexpected argument: ") + argv[i]};
    if (i + 1 >= argc) return Err{std::string(arg) + " requires a value"};
    if (arg == "--outage") {
      args.outages.emplace_back(argv[++i]);
      continue;
    }
    args.options[std::string(arg.substr(2))] = argv[++i];
  }
  return args;
}

// "resolver:from:to" -> OutageScript (epochs [from, to) offline).
Result<monitor::OutageScript> parse_outage(const std::string& text) {
  const Err<std::string> usage{"--outage wants resolver:from:to (got " + text + ")"};
  const std::size_t first = text.rfind(':');
  if (first == std::string::npos || first == 0) return usage;
  const std::size_t second = text.rfind(':', first - 1);
  if (second == std::string::npos || second == 0) return usage;
  auto from = util::parse_count(std::string_view(text).substr(second + 1, first - second - 1), 0);
  auto to = util::parse_count(std::string_view(text).substr(first + 1), 0);
  if (!from || !to) return usage;
  monitor::OutageScript script;
  script.resolver = text.substr(0, second);
  script.from_epoch = from.value();
  script.to_epoch = to.value();
  return script;
}

Result<util::Json> load_json(const std::string& path) {
  auto text = util::read_file(path);
  if (!text) return Err{text.error()};
  auto json = util::Json::parse(text.value());
  if (!json) return Err{path + " is not valid JSON: " + json.error()};
  return json;
}

Result<monitor::MonitorResult> load_result(const Args& args) {
  const std::string* in_path = args.get("in");
  if (in_path == nullptr) return Err{std::string("--in monitor.json is required")};
  auto json = load_json(*in_path);
  if (!json) return Err{json.error()};
  return monitor::MonitorResult::from_json(json.value());
}

Result<monitor::MonitorSpec> build_spec(const Args& args) {
  if (const std::string* spec_path = args.get("spec")) {
    auto json = load_json(*spec_path);
    if (!json) return Err{json.error()};
    return monitor::MonitorSpec::from_json(json.value());
  }

  monitor::MonitorSpec spec;
  // Monitor epochs stand in for days; a few rounds per epoch keeps each
  // campaign short while the epoch axis carries the longitudinal signal.
  spec.base.rounds = 3;
  if (args.all_resolvers) {
    for (const auto& s : resolver::paper_resolver_list()) {
      spec.base.resolvers.push_back(s.hostname);
    }
  } else if (const std::string* resolvers = args.get("resolvers")) {
    spec.base.resolvers = util::split_list(*resolvers);
  }
  if (const std::string* vantages = args.get("vantages")) {
    spec.base.vantage_ids = util::split_list(*vantages);
  }
  if (const std::string* domains = args.get("domains")) {
    spec.base.domains = util::split_list(*domains);
  }
  if (const std::string* protocol = args.get("protocol")) {
    if (auto p = client::protocol_from_string(*protocol); p.has_value()) {
      spec.base.protocol = *p;
    } else {
      return Err{std::string("unknown protocol: ") + *protocol};
    }
  }
  return spec;
}

// The numeric and --outage flags of a flag-built spec; false (after printing
// why) when one is malformed, which is bad usage rather than a bad spec.
bool apply_run_flags(const Args& args, monitor::MonitorSpec& spec) {
  if (args.get("spec") != nullptr) return true;
  if (!tools::count_flag(args.options, "rounds", spec.base.rounds) ||
      !tools::count_flag(args.options, "seed", spec.base.seed) ||
      !tools::count_flag(args.options, "epochs", spec.epochs) ||
      !tools::count_flag(args.options, "window", spec.slo.window_epochs)) {
    return false;
  }
  for (const std::string& text : args.outages) {
    auto script = parse_outage(text);
    if (!script) {
      std::fprintf(stderr, "error: %s\n", script.error().c_str());
      return false;
    }
    spec.outages.push_back(std::move(script).value());
  }
  return true;
}

bool write_file(const std::string& path, const std::string& content) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
    return false;
  }
  out << content;
  return true;
}

int cmd_run(const Args& args) {
  auto spec = build_spec(args);
  if (!spec) {
    std::fprintf(stderr, "error: %s\n", spec.error().c_str());
    return 2;
  }
  int threads = 1;
  if (!apply_run_flags(args, spec.value()) ||
      !tools::count_flag(args.options, "threads", threads, 1)) {
    return 1;
  }

  std::fprintf(stderr, "monitoring %zu resolvers x %zu vantages: %d epochs x %d rounds (%s)...\n",
               spec.value().base.resolvers.size(), spec.value().base.vantage_ids.size(),
               spec.value().epochs, spec.value().base.rounds,
               std::string(client::to_string(spec.value().base.protocol)).c_str());

  auto result = monitor::run_monitor(spec.value(), threads);
  if (!result) {
    std::fprintf(stderr, "error: %s\n", result.error().c_str());
    return 2;
  }
  const monitor::MonitorResult& mon = result.value();

  const std::string* out_path = args.get("out");
  const std::string path = out_path != nullptr ? *out_path : "monitor.json";
  {
    std::ofstream out(path);
    if (!out) {
      std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
      return 3;
    }
    mon.write_json(out);
  }
  if (const std::string* p = args.get("series-out")) {
    if (!write_file(*p, mon.series.jsonl())) return 3;
  }
  if (const std::string* p = args.get("series-bin")) {
    const util::Bytes blob = mon.series.to_binary();
    std::ofstream out(*p, std::ios::binary);
    if (!out) {
      std::fprintf(stderr, "error: cannot write %s\n", p->c_str());
      return 3;
    }
    out.write(reinterpret_cast<const char*>(blob.data()),
              static_cast<std::streamsize>(blob.size()));
  }
  if (const std::string* p = args.get("slo-out")) {
    if (!write_file(*p, monitor::slos_json(mon.slos) + "\n")) return 3;
  }
  if (const std::string* p = args.get("events-out")) {
    if (!write_file(*p, monitor::events_json(mon.events) + "\n")) return 3;
  }

  std::size_t outages = 0;
  for (const monitor::MonitorEvent& e : mon.events) outages += e.type == "outage" ? 1 : 0;
  std::fprintf(stderr, "%zu series points, %zu slo samples, %zu events (%zu outages) -> %s\n",
               mon.series.size(), mon.slos.size(), mon.events.size(), outages, path.c_str());
  return 0;
}

int cmd_slo(const Args& args) {
  auto result = load_result(args);
  if (!result) {
    std::fprintf(stderr, "error: %s\n", result.error().c_str());
    return 3;
  }
  if (args.json) {
    std::printf("%s\n", monitor::slos_json(result.value().slos).c_str());
    return 0;
  }
  std::printf("%-12s %-28s %5s %9s %9s %8s %8s %8s  %s\n", "vantage", "resolver", "epoch",
              "avail%", "win-av%", "p50", "p95", "p99", "state");
  for (const monitor::SloSample& s : result.value().slos) {
    std::printf("%-12s %-28s %5d %8.2f%% %8.2f%% %8.1f %8.1f %8.1f  %s\n", s.vantage.c_str(),
                s.resolver.c_str(), s.epoch, s.availability * 100.0,
                s.window_availability * 100.0, s.p50_ms, s.p95_ms, s.p99_ms, s.state.c_str());
  }
  return 0;
}

int cmd_events(const Args& args) {
  auto result = load_result(args);
  if (!result) {
    std::fprintf(stderr, "error: %s\n", result.error().c_str());
    return 3;
  }
  std::printf("%s\n", monitor::events_json(result.value().events).c_str());
  return 0;
}

int cmd_diagnose(const Args& args) {
  for (const auto& [flag, value] : args.options) {
    if (flag != "in" && flag != "baseline" && flag != "exemplars" && flag != "out") {
      std::fprintf(stderr, "error: diagnose takes no --%s\n", flag.c_str());
      return 1;
    }
  }
  monitor::DiagnoseOptions opts;
  if (!tools::count_flag(args.options, "baseline", opts.baseline_epochs, 1) ||
      !tools::count_flag(args.options, "exemplars", opts.max_exemplars)) {
    return 1;
  }
  auto result = load_result(args);
  if (!result) {
    std::fprintf(stderr, "error: %s\n", result.error().c_str());
    return 3;
  }

  auto report = monitor::diagnose_events(result.value(), 1, opts);
  if (!report) {
    std::fprintf(stderr, "error: %s\n", report.error().c_str());
    return 2;
  }
  std::ostringstream os;
  report.value().write_json(os);
  const std::string payload = std::move(os).str();
  if (const std::string* out_path = args.get("out")) {
    if (!write_file(*out_path, payload)) return 3;
  }
  if (args.json) {
    std::fputs(payload.c_str(), stdout);
  } else {
    std::fputs(monitor::render_diagnosis_report(report.value()).c_str(), stdout);
  }
  return 0;
}

int cmd_export(const Args& args) {
  if (!args.prom) {
    std::fprintf(stderr, "error: export needs --prom\n");
    return 1;
  }
  auto result = load_result(args);
  if (!result) {
    std::fprintf(stderr, "error: %s\n", result.error().c_str());
    return 3;
  }
  std::printf("%s", monitor::to_prometheus(result.value().series).c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  auto args = parse_args(argc, argv);
  if (!args) {
    std::fprintf(stderr,
                 "error: %s\nusage: ednsm_monitor run|slo|events|diagnose|export [options]\n",
                 args.error().c_str());
    return 1;
  }
  const std::string& command = args.value().command;
  if (command == "run") return cmd_run(args.value());
  if (command == "slo") return cmd_slo(args.value());
  if (command == "events") return cmd_events(args.value());
  if (command == "diagnose") return cmd_diagnose(args.value());
  if (command == "export") return cmd_export(args.value());
  std::fprintf(stderr, "error: unknown command '%s' (run|slo|events|diagnose|export)\n",
               command.c_str());
  return 1;
}
