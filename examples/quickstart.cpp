// Quickstart: measure a handful of DoH resolvers from one vantage point and
// print per-resolver medians — the smallest useful use of the toolkit.
//
//   $ ./quickstart [seed]
//
// Walkthrough:
//   1. Describe the measurement in a MeasurementSpec.
//   2. Run the campaign: each vantage is simulated in its own world
//      (simulated internet + the paper's resolver fleet); get records back.
//   3. Summarize.
#include <cstdio>
#include <cstdlib>

#include "core/parallel_campaign.h"
#include "report/table.h"
#include "stats/quantile.h"

int main(int argc, char** argv) {
  using namespace ednsm;

  const std::uint64_t seed = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 42;
  core::MeasurementSpec spec;
  spec.resolvers = {"dns.google", "security.cloudflare-dns.com", "dns.quad9.net",
                    "ordns.he.net", "freedns.controld.com", "doh.ffmuc.net",
                    "dns.alidns.com"};
  spec.vantage_ids = {"ec2-ohio"};
  spec.rounds = 25;
  spec.seed = seed;

  const core::CampaignResult result = core::run_parallel_campaign(spec, /*threads=*/1);

  report::Table table({"Resolver", "median (ms)", "p90 (ms)", "ping (ms)", "ok", "err"});
  for (const std::string& host : spec.resolvers) {
    const auto responses = result.response_times("ec2-ohio", host);
    const auto pings = result.ping_times("ec2-ohio", host);
    const auto counts = result.availability.per_resolver(host);
    table.add_row({host, report::fmt(stats::median(responses)),
                   report::fmt(stats::quantile(responses, 0.9)),
                   report::fmt(stats::median(pings)), std::to_string(counts.successes),
                   std::to_string(counts.errors)});
  }
  std::printf("%s\n", table.to_text().c_str());
  std::printf("%zu queries, %zu pings, %.2f%% error rate\n", result.records.size(),
              result.pings.size(), result.availability.overall().error_rate() * 100.0);
  return 0;
}
