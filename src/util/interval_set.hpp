// A set of days stored as sorted, disjoint, non-adjacent closed intervals.
//
// Operational activity of an ASN over 17 years is naturally a sparse set of
// days; IntervalSet is its run-length-encoded form: the runs that
// lifetimes::append_op_lifetimes merges under the inactivity timeout, and
// the substrate for admin/op overlap arithmetic.
#pragma once

#include <cstdint>
#include <vector>

#include "util/interval.hpp"

namespace pl::util {

class IntervalSet {
 public:
  IntervalSet() = default;

  /// Construct from arbitrary intervals; they are normalized (sorted, merged).
  explicit IntervalSet(std::vector<DayInterval> intervals);

  /// Add a single day. Adjacent/overlapping runs are coalesced.
  void add(Day day) { add(DayInterval{day, day}); }

  /// Add an inclusive interval. Empty intervals are ignored.
  void add(const DayInterval& interval);

  /// Remove all days in `interval` from the set.
  void subtract(const DayInterval& interval);

  /// Set union.
  IntervalSet unite(const IntervalSet& other) const;

  /// Set intersection.
  IntervalSet intersect(const IntervalSet& other) const;

  /// Days in this set that fall inside `window`.
  std::int64_t covered_days(const DayInterval& window) const noexcept;

  /// Total number of days in the set.
  std::int64_t total_days() const noexcept;

  bool contains(Day day) const noexcept;

  bool empty() const noexcept { return runs_.empty(); }

  /// Number of maximal runs.
  std::size_t run_count() const noexcept { return runs_.size(); }

  /// The normalized runs, sorted ascending, pairwise disjoint and separated
  /// by at least one uncovered day.
  const std::vector<DayInterval>& runs() const noexcept { return runs_; }

  /// Gaps between consecutive runs, in days (each >= 1). This is the
  /// "per-ASN BGP activity gap" distribution of paper Fig. 3.
  std::vector<std::int64_t> gaps() const;

  /// The days of this set up to and including `last_day`.
  IntervalSet clipped(Day last_day) const;

  /// Smallest interval covering the whole set (empty interval if empty).
  DayInterval span() const noexcept;

  friend bool operator==(const IntervalSet&, const IntervalSet&) = default;

 private:
  std::vector<DayInterval> runs_;
};

}  // namespace pl::util
