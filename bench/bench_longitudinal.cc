// Reproduces the paper's longitudinal design (§3.2): after the main
// September-October 2023 EC2 span, the authors re-measured for 1-3 days in
// February, March, and April 2024 "to ensure that resolver performance did
// not change drastically since October 2023."
//
// This bench runs the main span plus three follow-up spans as independent
// campaigns (one seed each), reports per-span medians and the maximum drift
// for a representative resolver set, and — beyond the paper — injects a hard
// outage for one resolver across the March span (a fault window) to show the
// availability ledger catching it.
#include "common.h"

#include <cmath>

#include "stats/quantile.h"

using namespace ednsm;

int main() {
  const std::vector<std::string> watchlist = {
      "dns.google", "security.cloudflare-dns.com", "dns.quad9.net", "ordns.he.net",
      "freedns.controld.com", "doh.ffmuc.net", "dns.alidns.com",
      "kronos.plan9-dns.com",
  };
  const char* kSpans[] = {"2023-09 main", "2024-02", "2024-03", "2024-04"};
  const int kRounds[] = {30, 9, 9, 9};  // month-long span, then 3-day spans

  std::vector<core::CampaignResult> spans;

  for (int s = 0; s < 4; ++s) {
    core::MeasurementSpec spec;
    spec.resolvers = watchlist;
    spec.vantage_ids = {"ec2-ohio"};
    spec.rounds = kRounds[s];
    spec.seed = bench::kDefaultSeed + static_cast<std::uint64_t>(s);

    // Outage injection: kronos.plan9-dns.com goes dark for the March span.
    if (s == 2) spec.fault_windows.push_back({"kronos.plan9-dns.com", 0, spec.rounds});

    spans.push_back(core::run_parallel_campaign(spec, 1));
  }

  std::printf("Per-span median DoH response times from EC2 Ohio (ms)\n\n");
  std::printf("%-28s", "resolver");
  for (const char* name : kSpans) std::printf(" %12s", name);
  std::printf(" %9s\n", "drift");
  std::printf("--------------------------------------------------------------------"
              "--------------------\n");

  for (const std::string& host : watchlist) {
    std::printf("%-28s", host.c_str());
    double lo = 1e18, hi = -1e18;
    bool gap = false;
    for (const auto& span : spans) {
      const double med = stats::median(span.response_times("ec2-ohio", host));
      if (std::isnan(med)) {
        std::printf(" %12s", "DOWN");
        gap = true;
        continue;
      }
      std::printf(" %10.1f  ", med);
      lo = std::min(lo, med);
      hi = std::max(hi, med);
    }
    if (gap) {
      std::printf(" %8s\n", "outage");
    } else {
      std::printf(" %7.0f%%\n", 100.0 * (hi - lo) / lo);
    }
  }

  std::printf("\nAvailability check (the paper's unresponsiveness predicate):\n");
  for (int s = 0; s < 4; ++s) {
    const bool down =
        spans[static_cast<std::size_t>(s)].availability.unresponsive_from(
            "ec2-ohio", "kronos.plan9-dns.com");
    std::printf("  %s: kronos.plan9-dns.com %s\n", kSpans[s],
                down ? "UNRESPONSIVE" : "responsive");
  }
  std::printf("\nExpected shape: stable medians across spans (the paper found no\n"
              "drastic changes); the injected March outage is flagged and clears.\n");
  return 0;
}
