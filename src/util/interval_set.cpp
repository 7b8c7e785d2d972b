#include "util/interval_set.hpp"

#include <algorithm>

#include "check/contracts.hpp"

namespace pl::util {

IntervalSet::IntervalSet(std::vector<DayInterval> intervals) {
  std::erase_if(intervals, [](const DayInterval& i) { return i.empty(); });
  std::sort(intervals.begin(), intervals.end(),
            [](const DayInterval& a, const DayInterval& b) {
              return a.first < b.first;
            });
  for (const DayInterval& i : intervals) add(i);
}

void IntervalSet::add(const DayInterval& interval) {
  if (interval.empty()) return;
  // Find first run that could touch interval (run.last >= interval.first-1).
  auto it = std::lower_bound(
      runs_.begin(), runs_.end(), interval.first,
      [](const DayInterval& run, Day first) { return run.last < first - 1; });
  DayInterval merged = interval;
  auto erase_begin = it;
  while (it != runs_.end() && it->first <= merged.last + 1) {
    merged.first = std::min(merged.first, it->first);
    merged.last = std::max(merged.last, it->last);
    ++it;
  }
  it = runs_.erase(erase_begin, it);
  runs_.insert(it, merged);
  PL_ASSERT_DISJOINT(runs_, "IntervalSet::add postcondition");
}

void IntervalSet::subtract(const DayInterval& interval) {
  if (interval.empty() || runs_.empty()) return;
  std::vector<DayInterval> next;
  next.reserve(runs_.size() + 1);
  for (const DayInterval& run : runs_) {
    if (!run.overlaps(interval)) {
      next.push_back(run);
      continue;
    }
    if (run.first < interval.first)
      next.push_back(DayInterval{run.first, interval.first - 1});
    if (run.last > interval.last)
      next.push_back(DayInterval{interval.last + 1, run.last});
  }
  runs_ = std::move(next);
  PL_ASSERT_DISJOINT(runs_, "IntervalSet::subtract postcondition");
}

IntervalSet IntervalSet::unite(const IntervalSet& other) const {
  IntervalSet out = *this;
  for (const DayInterval& run : other.runs_) out.add(run);
  return out;
}

IntervalSet IntervalSet::intersect(const IntervalSet& other) const {
  IntervalSet out;
  auto a = runs_.begin();
  auto b = other.runs_.begin();
  while (a != runs_.end() && b != other.runs_.end()) {
    const DayInterval common = a->intersect(*b);
    if (!common.empty()) out.runs_.push_back(common);
    if (a->last < b->last)
      ++a;
    else
      ++b;
  }
  PL_ASSERT_DISJOINT(out.runs_, "IntervalSet::intersect postcondition");
  return out;
}

std::int64_t IntervalSet::covered_days(
    const DayInterval& window) const noexcept {
  std::int64_t total = 0;
  for (const DayInterval& run : runs_) {
    if (run.first > window.last) break;
    total += overlap_days(run, window);
  }
  return total;
}

std::int64_t IntervalSet::total_days() const noexcept {
  std::int64_t total = 0;
  for (const DayInterval& run : runs_) total += run.length();
  return total;
}

bool IntervalSet::contains(Day day) const noexcept {
  auto it = std::lower_bound(
      runs_.begin(), runs_.end(), day,
      [](const DayInterval& run, Day d) { return run.last < d; });
  return it != runs_.end() && it->contains(day);
}

std::vector<std::int64_t> IntervalSet::gaps() const {
  std::vector<std::int64_t> out;
  if (runs_.size() < 2) return out;
  out.reserve(runs_.size() - 1);
  for (std::size_t i = 1; i < runs_.size(); ++i)
    out.push_back(static_cast<std::int64_t>(runs_[i].first) -
                  runs_[i - 1].last - 1);
  return out;
}

std::vector<DayInterval> IntervalSet::coalesce(std::int64_t timeout) const {
  std::vector<DayInterval> out;
  for (const DayInterval& run : runs_) {
    if (!out.empty() &&
        static_cast<std::int64_t>(run.first) - out.back().last - 1 <= timeout)
      out.back().last = run.last;
    else
      out.push_back(run);
  }
  PL_ASSERT_SORTED(out,
                   [](const DayInterval& a, const DayInterval& b) {
                     return a.first < b.first;
                   },
                   "IntervalSet::coalesce output");
  return out;
}

IntervalSet IntervalSet::clipped(Day last_day) const {
  IntervalSet out;
  for (const DayInterval& run : runs_) {
    if (run.first > last_day) break;
    out.runs_.push_back(DayInterval{run.first, std::min(run.last, last_day)});
  }
  return out;
}

DayInterval IntervalSet::span() const noexcept {
  if (runs_.empty()) return DayInterval{};
  return DayInterval{runs_.front().first, runs_.back().last};
}

}  // namespace pl::util
