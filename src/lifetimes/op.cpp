#include "lifetimes/op.hpp"

#include <vector>

#include "check/contracts.hpp"

namespace pl::lifetimes {

std::vector<OpLifetime> coalesce_activity(const bgp::ActivityTable& activity,
                                          int timeout_days) {
  // Activity entries iterate in ascending-ASN order, so appending each
  // ASN's coalesced lives leaves the list sorted by (asn, start).
  std::vector<OpLifetime> lifetimes;
  for (const auto& [asn, days] : activity.entries()) {
    PL_ASSERT_DISJOINT(days.runs(),
                       "activity runs entering the lifetime builder");
    const std::vector<util::DayInterval> lives = days.coalesce(timeout_days);
    PL_ASSERT_SORTED(lives,
                     [](const util::DayInterval& a,
                        const util::DayInterval& b) {
                       return a.first < b.first;
                     },
                     "coalesced op lives per ASN");
    for (const util::DayInterval& life : lives)
      lifetimes.push_back(OpLifetime{asn, life});
  }
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
