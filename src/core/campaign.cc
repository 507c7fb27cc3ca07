#include "core/campaign.h"

#include <ostream>

namespace ednsm::core {

PairSampleIndex PairSampleIndex::build(const std::vector<ResultRecord>& records,
                                       const std::vector<PingRecord>& pings) {
  PairSampleIndex idx;
  for (const ResultRecord& r : records) {
    if (!r.ok) continue;
    const auto key =
        util::InternTable::pair_key(idx.vantages_.intern(r.vantage), idx.resolvers_.intern(r.resolver));
    idx.responses_[key].push_back(r.response_ms);
  }
  for (const PingRecord& p : pings) {
    if (!p.ok) continue;
    const auto key =
        util::InternTable::pair_key(idx.vantages_.intern(p.vantage), idx.resolvers_.intern(p.resolver));
    idx.pings_[key].push_back(p.rtt_ms);
  }
  idx.records_indexed_ = records.size();
  idx.pings_indexed_ = pings.size();
  return idx;
}

namespace {
const std::vector<double>* lookup_pair(
    const util::InternTable& vantages, const util::InternTable& resolvers,
    const std::unordered_map<std::uint64_t, std::vector<double>>& samples,
    std::string_view vantage, std::string_view resolver) {
  const auto v = vantages.find(vantage);
  const auto r = resolvers.find(resolver);
  if (!v.has_value() || !r.has_value()) return nullptr;
  const auto it = samples.find(util::InternTable::pair_key(*v, *r));
  return it == samples.end() ? nullptr : &it->second;
}
}  // namespace

const std::vector<double>* PairSampleIndex::response_times(std::string_view vantage,
                                                           std::string_view resolver) const {
  return lookup_pair(vantages_, resolvers_, responses_, vantage, resolver);
}

const std::vector<double>* PairSampleIndex::ping_times(std::string_view vantage,
                                                       std::string_view resolver) const {
  return lookup_pair(vantages_, resolvers_, pings_, vantage, resolver);
}

const PairSampleIndex& CampaignResult::index() const {
  if (sample_index_ == nullptr || sample_index_->records_indexed() != records.size() ||
      sample_index_->pings_indexed() != pings.size()) {
    sample_index_ = std::make_shared<const PairSampleIndex>(PairSampleIndex::build(records, pings));
  }
  return *sample_index_;
}

std::vector<double> CampaignResult::response_times(const std::string& vantage,
                                                   const std::string& resolver) const {
  const std::vector<double>* samples = index().response_times(vantage, resolver);
  return samples == nullptr ? std::vector<double>{} : *samples;
}

std::vector<double> CampaignResult::ping_times(const std::string& vantage,
                                               const std::string& resolver) const {
  const std::vector<double>* samples = index().ping_times(vantage, resolver);
  return samples == nullptr ? std::vector<double>{} : *samples;
}

void CampaignResult::to_json(util::JsonWriter& w) const {
  w.begin_object();
  w.key("pings").begin_array();
  for (const PingRecord& p : pings) p.to_json(w);
  w.end_array();
  w.key("records").begin_array();
  for (const ResultRecord& r : records) r.to_json(w);
  w.end_array();
  w.key("spec");
  spec.to_json(w);
  w.end_object();
}

Result<CampaignResult> CampaignResult::from_json(const util::Json& j) {
  CampaignResult out;
  util::JsonFields f(j, "campaign");
  f.required("spec", out.spec).required("records", out.records).optional("pings", out.pings);
  if (!f) return Err{f.error()};
  for (const ResultRecord& r : out.records) out.availability.record(r);
  return out;
}

void CampaignResult::write_json(std::ostream& os, int indent) const {
  util::JsonWriter w(os, indent);
  to_json(w);
  w.flush();
  os << '\n';
}

}  // namespace ednsm::core
