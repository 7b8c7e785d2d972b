#include "lifetimes/prefix_informed.hpp"

#include <algorithm>

namespace pl::lifetimes {

double prefix_jaccard(const std::set<bgp::Prefix>& a,
                      const std::set<bgp::Prefix>& b) {
  if (a.empty() && b.empty()) return 1.0;
  std::size_t common = 0;
  auto it_a = a.begin();
  auto it_b = b.begin();
  while (it_a != a.end() && it_b != b.end()) {
    if (*it_a < *it_b) {
      ++it_a;
    } else if (*it_b < *it_a) {
      ++it_b;
    } else {
      ++common;
      ++it_a;
      ++it_b;
    }
  }
  const std::size_t united = a.size() + b.size() - common;
  return united == 0 ? 1.0
                     : static_cast<double>(common) /
                           static_cast<double>(united);
}

OpDataset build_prefix_informed_lifetimes(const bgp::ActivityTable& activity,
                                          const PrefixSetProvider& prefixes,
                                          const PrefixInformedConfig&
                                              config) {
  OpDataset dataset;
  const auto extended_timeout = static_cast<std::int64_t>(
      config.timeout_days * config.extend_factor);

  for (const auto& [asn, days] : activity.entries()) {
    const auto& runs = days.runs();
    if (runs.empty()) continue;

    std::vector<util::DayInterval> lives;
    lives.push_back(runs.front());
    std::set<bgp::Prefix> current_prefixes = prefixes(asn, runs.front());

    for (std::size_t r = 1; r < runs.size(); ++r) {
      const util::DayInterval& run = runs[r];
      const std::int64_t gap =
          static_cast<std::int64_t>(run.first) - lives.back().last - 1;
      const std::set<bgp::Prefix> next_prefixes = prefixes(asn, run);
      const double similarity =
          prefix_jaccard(current_prefixes, next_prefixes);

      bool merge;
      if (gap <= config.timeout_days) {
        // Sub-timeout gap: merge unless the announced space changed
        // completely (re-purposed / squatted ASN).
        merge = similarity >= config.split_below;
      } else if (gap <= extended_timeout) {
        // Over-timeout gap: merge only with strong prefix continuity.
        merge = similarity >= config.merge_at;
      } else {
        merge = false;
      }

      if (merge) {
        lives.back().last = run.last;
        current_prefixes.insert(next_prefixes.begin(), next_prefixes.end());
      } else {
        lives.push_back(run);
        current_prefixes = next_prefixes;
      }
    }

    for (const util::DayInterval& life : lives)
      dataset.lifetimes.push_back(OpLifetime{asn, life});
  }
  return dataset;
}

}  // namespace pl::lifetimes
