#include "bgp/activity.hpp"

#include <algorithm>

namespace pl::bgp {

void ActivityTable::mark_active(asn::Asn asn, util::Day day) {
  activity_[asn].add(day);
}

void ActivityTable::mark_active(asn::Asn asn,
                                const util::DayInterval& days) {
  if (days.empty()) return;
  activity_[asn].add(days);
}

void ActivityTable::mark_active(asn::Asn asn, util::IntervalSet&& days) {
  if (days.empty()) return;
  auto [it, inserted] = activity_.try_emplace(asn);
  if (inserted) {
    // Fresh slot: the set's runs are already maximal and ordered, so moving
    // it in wholesale equals adding each run — without a tree lookup per run.
    it->second = std::move(days);
    return;
  }
  for (const util::DayInterval& run : days.runs()) it->second.add(run);
}

ActivityTable ActivityTable::clipped(util::Day last_day) const {
  ActivityTable out;
  for (const auto& [asn, days] : activity_)
    out.mark_active(asn, days.clipped(last_day));
  return out;
}

const util::IntervalSet* ActivityTable::activity(
    asn::Asn asn) const noexcept {
  const auto it = activity_.find(asn);
  return it == activity_.end() ? nullptr : &it->second;
}

std::int64_t ActivityTable::active_on(util::Day day) const noexcept {
  std::int64_t count = 0;
  for (const auto& [asn, set] : activity_)
    if (set.contains(day)) ++count;
  return count;
}

std::vector<std::int32_t> ActivityTable::daily_counts(util::Day begin,
                                                      util::Day end) const {
  const auto days = static_cast<std::size_t>(end - begin + 1);
  // Difference array over run boundaries, then prefix-sum.
  std::vector<std::int32_t> delta(days + 1, 0);
  for (const auto& [asn, set] : activity_) {
    for (const util::DayInterval& run : set.runs()) {
      const util::DayInterval clipped =
          run.intersect(util::DayInterval{begin, end});
      if (clipped.empty()) continue;
      delta[static_cast<std::size_t>(clipped.first - begin)] += 1;
      delta[static_cast<std::size_t>(clipped.last - begin) + 1] -= 1;
    }
  }

  std::vector<std::int32_t> counts(days);
  std::int32_t running = 0;
  for (std::size_t i = 0; i < days; ++i) {
    running += delta[i];
    counts[i] = running;
  }
  return counts;
}

void ActivityTable::merge(const ActivityTable& other) {
  for (const auto& [asn, set] : other.activity_) {
    auto& mine = activity_[asn];
    mine = mine.unite(set);
  }
}

void VisibilityAggregator::observe(const Element& element) {
  if (element.path.empty()) return;
  for (const asn::Asn hop : element.path.hops()) {
    const std::uint64_t k = key(hop, element.day);
    auto [it, inserted] = seen_.try_emplace(k);
    if (inserted) keys_.emplace(k, std::make_pair(hop, element.day));
    PeerSeen& entry = it->second;
    if (entry.distinct >= static_cast<int>(entry.peers.size())) continue;
    bool known = false;
    for (int i = 0; i < entry.distinct; ++i)
      if (entry.peers[static_cast<std::size_t>(i)] == element.peer.value)
        known = true;
    if (!known)
      entry.peers[static_cast<std::size_t>(entry.distinct++)] =
          element.peer.value;
  }
}

ActivityTable VisibilityAggregator::build() const {
  ActivityTable table;
  for (const auto& [k, entry] : seen_) {
    if (entry.distinct < min_peers_) continue;
    const auto key_it = keys_.find(k);
    table.mark_active(key_it->second.first, key_it->second.second);
  }
  return table;
}

std::int64_t VisibilityAggregator::single_peer_pairs() const noexcept {
  std::int64_t count = 0;
  for (const auto& [k, entry] : seen_)
    if (entry.distinct == 1) ++count;
  return count;
}

void record_metrics(const ActivityTable& table, obs::Registry& metrics) {
  metrics.gauge("pl_bgp_active_asns")
      .set(static_cast<std::int64_t>(table.asn_count()));
  obs::Counter& asn_days = metrics.counter("pl_bgp_active_asn_days");
  obs::Histogram& per_asn = metrics.histogram(
      "pl_bgp_active_days_per_asn", {30, 90, 365, 1825, 3650});
  for (const auto& [asn, days] : table.entries()) {
    const std::int64_t total = days.total_days();
    asn_days.add(total);
    per_asn.observe(total);
  }
}

void record_metrics(const VisibilityAggregator& aggregator,
                    obs::Registry& metrics) {
  metrics.counter("pl_bgp_single_peer_pairs")
      .add(aggregator.single_peer_pairs());
}

void OriginationTracker::set_watchlist(std::vector<asn::Asn> asns) {
  watchlist_.clear();
  for (const asn::Asn asn : asns) watchlist_.insert(asn.value);
  watch_all_ = watchlist_.empty();
}

bool OriginationTracker::tracked(asn::Asn asn) const noexcept {
  return watch_all_ || watchlist_.contains(asn.value);
}

void OriginationTracker::observe(const Element& element) {
  const auto origin = element.path.origin();
  if (!origin || !tracked(*origin)) return;
  counts_[{origin->value, element.day}].insert(element.prefix);
}

std::int64_t OriginationTracker::prefixes_on(asn::Asn asn,
                                             util::Day day) const noexcept {
  const auto it = counts_.find({asn.value, day});
  return it == counts_.end() ? 0
                             : static_cast<std::int64_t>(it->second.size());
}

std::vector<std::int64_t> OriginationTracker::series(asn::Asn asn,
                                                     util::Day begin,
                                                     util::Day end) const {
  std::vector<std::int64_t> out;
  out.reserve(static_cast<std::size_t>(end - begin + 1));
  for (util::Day day = begin; day <= end; ++day)
    out.push_back(prefixes_on(asn, day));
  return out;
}

}  // namespace pl::bgp
