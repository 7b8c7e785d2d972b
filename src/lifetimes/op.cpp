#include "lifetimes/op.hpp"

#include <utility>
#include <vector>

#include "check/contracts.hpp"
#include "exec/pool.hpp"

namespace pl::lifetimes {

std::vector<OpLifetime> coalesce_activity(const bgp::ActivityTable& activity,
                                          int timeout_days) {
  // Coalescing is independent per ASN: shard over the (ordered) activity
  // entries, coalesce each into its own slot, then fill the dataset in
  // entry order — identical to the serial per-entry loop.
  std::vector<std::pair<asn::Asn, const util::IntervalSet*>> entries;
  entries.reserve(activity.entries().size());
  for (const auto& [asn, days] : activity.entries())
    entries.emplace_back(asn, &days);

  std::vector<std::vector<util::DayInterval>> lives_by_entry(entries.size());
  exec::parallel_for(
      entries.size(),
      [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
          PL_ASSERT_DISJOINT(entries[i].second->runs(),
                             "activity runs entering the lifetime builder");
          lives_by_entry[i] = entries[i].second->coalesce(timeout_days);
          PL_ASSERT_SORTED(lives_by_entry[i],
                           [](const util::DayInterval& a,
                              const util::DayInterval& b) {
                             return a.first < b.first;
                           },
                           "coalesced op lives per ASN");
        }
      },
      /*grain=*/128);

  std::size_t life_total = 0;
  for (const std::vector<util::DayInterval>& lives : lives_by_entry)
    life_total += lives.size();
  std::vector<OpLifetime> lifetimes;
  lifetimes.reserve(life_total);
  for (std::size_t i = 0; i < entries.size(); ++i)
    for (const util::DayInterval& life : lives_by_entry[i])
      lifetimes.push_back(OpLifetime{entries[i].first, life});
  return lifetimes;
}

OpDataset build_op_lifetimes(const bgp::ActivityTable& activity,
                             int timeout_days) {
  OpDataset dataset;
  dataset.lifetimes = coalesce_activity(activity, timeout_days);
  // Lifetimes are sorted by ASN, so hinting at end() makes each index-map
  // insert O(1) instead of a tree descent.
  std::vector<std::size_t>* slot = nullptr;
  for (std::size_t i = 0; i < dataset.lifetimes.size(); ++i) {
    const std::uint32_t asn = dataset.lifetimes[i].asn.value;
    if (slot == nullptr || dataset.by_asn.rbegin()->first != asn)
      slot = &dataset.by_asn
                  .emplace_hint(dataset.by_asn.end(), asn,
                                std::vector<std::size_t>{})
                  ->second;
    slot->push_back(i);
  }
  return dataset;
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
