// ednsm-report: render paper-style figures and tables from a results JSON
// produced by ednsm_measure.
//
// Usage:
//   ednsm_report results.json                          # summary + availability
//   ednsm_report results.json --figure NA --vantage ec2-ohio
//   ednsm_report results.json --remote-table Asia --near ec2-seoul --far ec2-frankfurt
//   ednsm_report results.json --winners ec2-ohio
//   ednsm_report results.json --flight-recorder 10
//   ednsm_report monitor.json --monitor-dashboard dashboard.html
//   ednsm_report monitor.json --monitor-dashboard dashboard.html --diagnosis diagnosis.json
//
// --diagnosis annotates the dashboard's event timeline and adds a verdict
// table from an `ednsm_monitor diagnose --out` report.
//
// Exit codes: 0 ok, 1 bad usage, 3 I/O / parse error.
#include <cstdio>
#include <cstring>
#include <fstream>

#include "core/campaign.h"
#include "core/recommend.h"
#include "monitor/monitor.h"
#include "report/decomposition.h"
#include "report/figures.h"
#include "report/flight_recorder.h"
#include "util/fs.h"
#include "util/strings.h"
#include "web/dashboard.h"

using namespace ednsm;

namespace {

Result<geo::Continent> parse_continent(std::string_view name) {
  if (name == "NA") return geo::Continent::NorthAmerica;
  if (name == "EU") return geo::Continent::Europe;
  if (name == "Asia") return geo::Continent::Asia;
  if (name == "Oceania") return geo::Continent::Oceania;
  return Err{std::string("unknown continent (use NA|EU|Asia|Oceania): ") + std::string(name)};
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: ednsm_report <results.json> [--figure NA|EU|Asia --vantage ID]\n"
                 "       [--remote-table NA|EU|Asia --near ID --far ID] [--winners ID]\n"
                 "       [--recommend ID] [--decomposition table|figure]\n"
                 "       [--flight-recorder N]\n"
                 "       [--monitor-dashboard out.html]   (input: ednsm_monitor run output)\n"
                 "       [--diagnosis diagnosis.json]     (annotate the monitor dashboard)\n");
    return 1;
  }

  auto text = util::read_file(argv[1]);
  if (!text) {
    std::fprintf(stderr, "error: %s\n", text.error().c_str());
    return 3;
  }
  auto json = util::Json::parse(text.value());
  if (!json) {
    std::fprintf(stderr, "error: %s\n", json.error().c_str());
    return 3;
  }
  std::map<std::string, std::string> options;
  for (int i = 2; i + 1 < argc; i += 2) {
    if (std::strncmp(argv[i], "--", 2) != 0) {
      std::fprintf(stderr, "error: unexpected argument %s\n", argv[i]);
      return 1;
    }
    options[argv[i] + 2] = argv[i + 1];
  }

  // Dashboard mode reads a monitor result, not a campaign result — branch
  // before the campaign parse.
  if (options.contains("monitor-dashboard")) {
    auto mon = monitor::MonitorResult::from_json(json.value());
    if (!mon) {
      std::fprintf(stderr, "error: %s\n", mon.error().c_str());
      return 3;
    }
    monitor::DiagnosisReport diagnoses;
    bool have_diagnoses = false;
    if (options.contains("diagnosis")) {
      auto diag_text = util::read_file(options["diagnosis"]);
      if (!diag_text) {
        std::fprintf(stderr, "error: %s\n", diag_text.error().c_str());
        return 3;
      }
      auto diag_json = util::Json::parse(diag_text.value());
      if (!diag_json) {
        std::fprintf(stderr, "error: %s\n", diag_json.error().c_str());
        return 3;
      }
      auto parsed = monitor::DiagnosisReport::from_json(diag_json.value());
      if (!parsed) {
        std::fprintf(stderr, "error: %s\n", parsed.error().c_str());
        return 3;
      }
      diagnoses = std::move(parsed).value();
      have_diagnoses = true;
    }
    const std::string& out_path = options["monitor-dashboard"];
    std::ofstream out(out_path);
    if (!out) {
      std::fprintf(stderr, "error: cannot write %s\n", out_path.c_str());
      return 3;
    }
    out << web::render_monitor_dashboard(mon.value(), have_diagnoses ? &diagnoses : nullptr);
    std::fprintf(stderr, "dashboard (%zu slo samples, %zu events, %zu diagnoses) -> %s\n",
                 mon.value().slos.size(), mon.value().events.size(), diagnoses.diagnoses.size(),
                 out_path.c_str());
    return 0;
  }

  auto result = core::CampaignResult::from_json(json.value());
  if (!result) {
    std::fprintf(stderr, "error: %s\n", result.error().c_str());
    return 3;
  }

  if (options.contains("figure")) {
    auto continent = parse_continent(options["figure"]);
    if (!continent) {
      std::fprintf(stderr, "error: %s\n", continent.error().c_str());
      return 1;
    }
    const std::string vantage =
        options.contains("vantage") ? options["vantage"] : result.value().spec.vantage_ids[0];
    const std::string title = options["figure"] + "-located resolvers from " + vantage;
    std::printf("%s\n",
                report::render_figure(result.value(), vantage, continent.value(), title)
                    .c_str());
    return 0;
  }

  if (options.contains("remote-table")) {
    auto continent = parse_continent(options["remote-table"]);
    if (!continent || !options.contains("near") || !options.contains("far")) {
      std::fprintf(stderr, "error: --remote-table needs a continent, --near and --far\n");
      return 1;
    }
    std::printf("%s\n", report::remote_median_table(result.value(), continent.value(),
                                                    options["near"], options["far"])
                            .to_text()
                            .c_str());
    return 0;
  }

  if (options.contains("recommend")) {
    const std::string& vantage = options["recommend"];
    const core::RecommendationReport rec =
        core::recommend_resolvers(result.value(), vantage);
    std::printf("recommended resolvers from %s (best first):\n", vantage.c_str());
    for (const core::Recommendation& r : rec.ranked) {
      std::printf("  %7.1f ms med  %7.1f ms p90  %5.2f%% err  %s%s\n", r.median_ms,
                  r.p90_ms, r.error_rate * 100.0, r.hostname.c_str(),
                  r.mainstream ? "  [mainstream]" : "");
    }
    std::printf("rejected:\n");
    for (const core::Rejection& r : rec.rejected) {
      std::printf("  %-40s %s\n", r.hostname.c_str(),
                  std::string(core::to_string(r.reason)).c_str());
    }
    if (const auto alt = rec.best_alternative()) {
      std::printf("\nbest non-mainstream alternative: %s (%.1f ms median)\n",
                  alt->hostname.c_str(), alt->median_ms);
    }
    return 0;
  }

  if (options.contains("decomposition")) {
    const std::string& mode = options["decomposition"];
    if (mode == "table") {
      std::printf("%s\n", report::phase_decomposition_table(result.value()).to_text().c_str());
      return 0;
    }
    if (mode == "figure") {
      std::printf("%s\n", report::render_cold_warm_figure(result.value()).c_str());
      return 0;
    }
    std::fprintf(stderr, "error: --decomposition takes 'table' or 'figure' (got %s)\n",
                 mode.c_str());
    return 1;
  }

  if (options.contains("flight-recorder")) {
    const auto top_n = util::parse_count(options["flight-recorder"], std::size_t{1});
    if (!top_n) {
      std::fprintf(stderr, "error: --flight-recorder: %s\n", top_n.error().c_str());
      return 1;
    }
    std::printf("%s", report::render_flight_recorder(result.value(), top_n.value()).c_str());
    return 0;
  }

  if (options.contains("winners")) {
    std::printf("non-mainstream resolvers beating every mainstream median from %s:\n",
                options["winners"].c_str());
    for (const std::string& host :
         report::nonmainstream_winners(result.value(), options["winners"])) {
      std::printf("  %s\n", host.c_str());
    }
    return 0;
  }

  // Default: summary + availability.
  std::printf("campaign: %zu records, %zu pings, %zu resolvers, %zu vantages\n\n",
              result.value().records.size(), result.value().pings.size(),
              result.value().spec.resolvers.size(), result.value().spec.vantage_ids.size());
  std::printf("%s\n", report::availability_report(result.value()).c_str());
  std::printf("%s\n", report::max_median_table(result.value()).to_text().c_str());
  return 0;
}
