#include "lifetimes/op.hpp"

#include <vector>

#include "check/contracts.hpp"

namespace pl::lifetimes {

RunTable flatten_activity(const bgp::ActivityTable& activity) {
  RunTable table;
  std::size_t runs = 0;
  for (const auto& [asn, days] : activity.entries()) runs += days.run_count();
  table.keys.reserve(activity.asn_count());
  table.offsets.reserve(activity.asn_count());
  table.values.reserve(runs);
  for (const auto& [asn, days] : activity.entries())
    table.push_back(asn.value, days.runs());
  return table;
}

void append_op_lifetimes(asn::Asn asn, std::span<const util::DayInterval> runs,
                         int timeout_days, std::vector<OpLifetime>& out) {
  PL_ASSERT_DISJOINT(runs, "activity runs entering the lifetime builder");
  const std::size_t first = out.size();
  for (const util::DayInterval& run : runs) {
    if (out.size() > first && static_cast<std::int64_t>(run.first) -
                                      out.back().days.last - 1 <=
                                  timeout_days)
      out.back().days.last = run.last;
    else
      out.push_back(OpLifetime{asn, run});
  }
}

std::vector<OpLifetime> coalesce_activity(const bgp::ActivityTable& activity,
                                          int timeout_days) {
  // Activity entries iterate in ascending-ASN order, so appending each
  // ASN's coalesced lives leaves the list sorted by (asn, start). An ASN
  // has at most as many lives as runs.
  std::size_t runs = 0;
  for (const auto& [asn, days] : activity.entries()) runs += days.run_count();
  std::vector<OpLifetime> lifetimes;
  lifetimes.reserve(runs);
  for (const auto& [asn, days] : activity.entries())
    append_op_lifetimes(asn, days.runs(), timeout_days, lifetimes);
  return lifetimes;
}

std::vector<OpLifetime> coalesce_activity(const RunTable& activity,
                                          int timeout_days) {
  std::vector<OpLifetime> lifetimes;
  lifetimes.reserve(activity.values.size());
  for (std::size_t i = 0; i < activity.size(); ++i)
    append_op_lifetimes(asn::Asn{activity.keys[i]}, activity.row(i),
                        timeout_days, lifetimes);
  return lifetimes;
}

OpDataset build_op_lifetimes(const bgp::ActivityTable& activity,
                             int timeout_days) {
  return OpDataset{coalesce_activity(activity, timeout_days)};
}

void record_metrics(const OpDataset& dataset, obs::Registry& metrics) {
  metrics.counter("pl_op_lifetimes")
      .add(static_cast<std::int64_t>(dataset.lifetimes.size()));
  metrics.gauge("pl_op_asns")
      .set(static_cast<std::int64_t>(dataset.asn_count()));
  obs::Histogram& duration = metrics.histogram(
      "pl_op_duration_days", {30, 90, 365, 1825, 3650, 7300});
  for (const OpLifetime& life : dataset.lifetimes)
    duration.observe(life.days.length());
}

}  // namespace pl::lifetimes
