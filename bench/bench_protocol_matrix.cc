// §3.1: "Our tool enables researchers to issue traditional DNS, DoT, and DoH
// queries." This bench drives the campaign engine itself over every protocol
// it speaks (plus the DoQ extension) against a representative resolver set
// from Ohio, printing per-protocol medians and error rates — the tool-level
// view of the protocol ladder (the client-level view is
// bench_ablation_protocols).
#include "common.h"

#include "stats/quantile.h"

using namespace ednsm;

int main() {
  const std::vector<std::string> resolvers = {
      "dns.google", "dns.quad9.net", "ordns.he.net", "freedns.controld.com",
      "kronos.plan9-dns.com", "doh.la.ahadns.net",
  };
  const client::Protocol protocols[] = {client::Protocol::Do53, client::Protocol::DoT,
                                        client::Protocol::DoH, client::Protocol::DoQ};

  std::printf("Campaign-level protocol matrix from EC2 Ohio (20 rounds x 3 domains)\n\n");
  std::printf("%-22s", "resolver");
  for (const auto p : protocols) std::printf(" %10s", std::string(client::to_string(p)).c_str());
  std::printf("\n");
  std::printf("--------------------------------------------------------------------\n");

  std::map<std::string, std::map<client::Protocol, double>> medians;
  std::map<client::Protocol, double> error_rates;

  for (const auto protocol : protocols) {
    core::MeasurementSpec spec;
    spec.resolvers = resolvers;
    spec.vantage_ids = {"ec2-ohio"};
    spec.protocol = protocol;
    spec.rounds = 20;
    spec.seed = bench::kDefaultSeed;
    const core::CampaignResult result = core::run_parallel_campaign(spec, 1);
    for (const std::string& host : resolvers) {
      medians[host][protocol] = stats::median(result.response_times("ec2-ohio", host));
    }
    error_rates[protocol] = result.availability.overall().error_rate();
  }

  for (const std::string& host : resolvers) {
    std::printf("%-22s", host.c_str());
    for (const auto p : protocols) std::printf(" %8.1f  ", medians[host][p]);
    std::printf("\n");
  }
  std::printf("%-22s", "(error rate)");
  for (const auto p : protocols) std::printf(" %8.2f%% ", 100.0 * error_rates[p]);
  std::printf("\n");

  std::printf("\nExpected shape per row: Do53 ~= 1 RTT; DoT ~= DoH ~= 3 RTT;\n"
              "DoQ ~= 2 RTT (combined handshake). Encryption does not change the\n"
              "resolver ranking — the paper's cross-resolver comparisons carry over.\n");
  return 0;
}
