// The use case the paper motivates: a client looking beyond the browser's
// built-in resolver list. Scan the full public-resolver registry from one
// vantage point, drop anything unavailable or slow, and print the viable
// alternatives with their geolocation — i.e., "which encrypted DNS resolvers
// could I actually use from here?"
//
//   $ ./resolver_discovery [vantage-id] [rounds]
//   vantage-id: ec2-ohio | ec2-frankfurt | ec2-seoul | home-chicago-1..4
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "core/parallel_campaign.h"
#include "report/table.h"
#include "resolver/registry.h"
#include "stats/quantile.h"

int main(int argc, char** argv) {
  using namespace ednsm;

  const std::string vantage = argc > 1 ? argv[1] : "ec2-frankfurt";
  const int rounds = argc > 2 ? std::atoi(argv[2]) : 8;

  core::MeasurementSpec spec;
  for (const auto& s : resolver::paper_resolver_list()) spec.resolvers.push_back(s.hostname);
  spec.vantage_ids = {vantage};
  spec.rounds = rounds;
  spec.seed = 13;

  std::printf("scanning %zu public DoH resolvers from %s (%d rounds)...\n\n",
              spec.resolvers.size(), vantage.c_str(), rounds);
  const core::CampaignResult result = core::run_parallel_campaign(spec, /*threads=*/1);
  const geo::GeoDb geodb = resolver::build_geodb();

  struct Candidate {
    double median;
    double error_rate;
    std::string host;
  };
  std::vector<Candidate> viable;
  int unavailable = 0, slow = 0;
  for (const std::string& host : spec.resolvers) {
    const auto counts = result.availability.per_pair(vantage, host);
    if (counts.successes == 0) {
      ++unavailable;
      continue;
    }
    const double med = stats::median(result.response_times(vantage, host));
    if (std::isnan(med) || med > 100.0) {  // too slow to be a daily driver
      ++slow;
      continue;
    }
    viable.push_back({med, counts.error_rate(), host});
  }
  std::sort(viable.begin(), viable.end(),
            [](const Candidate& a, const Candidate& b) { return a.median < b.median; });

  report::Table table({"Resolver", "median (ms)", "err %", "located", "mainstream?"});
  for (const Candidate& c : viable) {
    const auto geo_rec = geodb.lookup(c.host);
    const resolver::ResolverSpec* rs = resolver::find_resolver(c.host);
    table.add_row({c.host, report::fmt(c.median), report::fmt(c.error_rate * 100.0),
                   geo_rec.has_value() ? geo_rec->city : "(no location)",
                   (rs != nullptr && rs->mainstream) ? "yes" : ""});
  }
  std::printf("%s\n", table.to_text().c_str());

  int non_mainstream = 0;
  for (const Candidate& c : viable) {
    const resolver::ResolverSpec* rs = resolver::find_resolver(c.host);
    if (rs != nullptr && !rs->mainstream) ++non_mainstream;
  }
  std::printf("%zu viable (<100 ms median), of which %d non-mainstream;"
              " %d unavailable, %d too slow.\n",
              viable.size(), non_mainstream, unavailable, slow);
  std::printf("\nThe paper's takeaway: users in most regions have more choices than\n"
              "the handful of browser defaults — but only among resolvers local to\n"
              "(or anycast near) their region.\n");
  return 0;
}
