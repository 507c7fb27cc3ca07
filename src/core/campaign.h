// CampaignResult: what a campaign measured — the tool's JSON output format
// (spec, records, pings) plus the availability ledger and a lazily built
// per-(vantage, resolver) sample index. Campaigns are run by the sharded
// engine in core/parallel_campaign.h.
#pragma once

#include <iosfwd>
#include <memory>
#include <string_view>
#include <unordered_map>

#include "core/availability.h"
#include "core/spec.h"
#include "util/intern.h"

namespace ednsm::core {

// Per-(vantage, resolver) sample index over a result's records. Report code
// asks for every pair of a 75-resolver x N-vantage campaign, which used to
// rescan (and string-compare) the full record vector per pair — O(pairs x
// records). One build pass groups samples by interned-symbol key instead.
class PairSampleIndex {
 public:
  static PairSampleIndex build(const std::vector<ResultRecord>& records,
                               const std::vector<PingRecord>& pings);

  // Samples (in record order) for the pair; nullptr when the pair has none.
  [[nodiscard]] const std::vector<double>* response_times(std::string_view vantage,
                                                          std::string_view resolver) const;
  [[nodiscard]] const std::vector<double>* ping_times(std::string_view vantage,
                                                      std::string_view resolver) const;

  [[nodiscard]] std::size_t records_indexed() const noexcept { return records_indexed_; }
  [[nodiscard]] std::size_t pings_indexed() const noexcept { return pings_indexed_; }

 private:
  util::InternTable vantages_;
  util::InternTable resolvers_;
  std::unordered_map<std::uint64_t, std::vector<double>> responses_;
  std::unordered_map<std::uint64_t, std::vector<double>> pings_;
  std::size_t records_indexed_ = 0;
  std::size_t pings_indexed_ = 0;
};

struct CampaignResult {
  MeasurementSpec spec;
  std::vector<ResultRecord> records;
  std::vector<PingRecord> pings;
  // ednsm-lint: allow(codec-parity) — derived: from_json rebuilds the ledger
  // from the records array, so serializing it would duplicate state.
  AvailabilityLedger availability;

  // Response-time samples (ms) for successful queries of one (vantage,
  // resolver) pair; empty when none succeeded. Served from index().
  [[nodiscard]] std::vector<double> response_times(const std::string& vantage,
                                                   const std::string& resolver) const;
  [[nodiscard]] std::vector<double> ping_times(const std::string& vantage,
                                               const std::string& resolver) const;

  // The lazily built sample index. Rebuilt when records/pings have grown or
  // shrunk since the last build; in-place edits that keep the sizes constant
  // are not detected (append-only accumulation is the supported pattern).
  // Not thread-safe: concurrent first calls on the same object race.
  [[nodiscard]] const PairSampleIndex& index() const;

  // The tool's JSON output (object with "pings", "records", "spec"),
  // streamed record by record.
  void to_json(util::JsonWriter& w) const;
  [[nodiscard]] static Result<CampaignResult> from_json(const util::Json& j);

  // to_json through a writer on `os`, then a newline.
  void write_json(std::ostream& os, int indent = 2) const;

 private:
  // shared_ptr keeps CampaignResult copyable (copies share the cache until
  // either side rebuilds its own).
  mutable std::shared_ptr<const PairSampleIndex> sample_index_;
};

}  // namespace ednsm::core
