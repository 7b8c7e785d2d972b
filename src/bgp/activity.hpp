// Daily ASN activity: the operational lens's raw material.
//
// The paper considers an ASN active in BGP on a day iff strictly more than
// one distinct collector peer shared paths containing that ASN that day
// (3.2). VisibilityAggregator applies that rule to sanitized elements;
// ActivityTable is the resulting per-ASN set of active days, run-length
// encoded for 17-year scale.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <set>
#include <span>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "asn/asn.hpp"
#include "bgp/element.hpp"
#include "obs/metrics.hpp"
#include "util/interval_set.hpp"

namespace pl::bgp {

/// Per-ASN active-day sets.
class ActivityTable {
 public:
  /// Mark `asn` active on one day.
  void mark_active(asn::Asn asn, util::Day day);

  /// Mark every ASN of `asns` active on one day. Each lookup is hinted at
  /// the slot after the previous ASN's, so an ascending list costs
  /// amortized O(1) per ASN; any order gives the same table.
  void mark_active(std::span<const asn::Asn> asns, util::Day day);

  /// Mark `asn` active over an inclusive run of days (bulk path used by the
  /// full-scale generator).
  void mark_active(asn::Asn asn, const util::DayInterval& days);

  /// Fold a whole day set into `asn`'s activity with a single table lookup.
  /// Equivalent to adding every run of `days` in order.
  void mark_active(asn::Asn asn, util::IntervalSet&& days);

  /// Active-day set for an ASN; nullptr if never active.
  const util::IntervalSet* activity(asn::Asn asn) const noexcept;

  std::size_t asn_count() const noexcept { return activity_.size(); }

  /// Number of ASNs active on `day` — the per-day census of paper Fig. 4.
  /// O(n log runs); benches precompute day censuses via `daily_counts`.
  std::int64_t active_on(util::Day day) const noexcept;

  /// Census for every day in [begin, end]: result[i] = count active on
  /// begin+i. Linear sweep over run boundaries.
  std::vector<std::int32_t> daily_counts(util::Day begin,
                                         util::Day end) const;

  const std::map<asn::Asn, util::IntervalSet>& entries() const noexcept {
    return activity_;
  }

  /// The table restricted to days <= `last_day`; ASNs with no active day
  /// left are dropped.
  ActivityTable clipped(util::Day last_day) const;

  /// Merge another table into this one.
  void merge(const ActivityTable& other);

 private:
  std::map<asn::Asn, util::IntervalSet> activity_;
};

/// Publish the activity census (active ASNs, total active ASN-days, and the
/// active-days-per-ASN distribution) into the metrics registry.
void record_metrics(const ActivityTable& table, obs::Registry& metrics);

/// Applies the >1-peer visibility rule to a stream of sanitized elements.
/// Every ASN appearing in a path is "observed" by the element's peer; an
/// (ASN, day) pair becomes *active* once two distinct peer ASes observed it.
class VisibilityAggregator {
 public:
  /// Minimum distinct peers for activity (the paper uses 2).
  explicit VisibilityAggregator(int min_peers = 2) : min_peers_(min_peers) {}

  void observe(const Element& element);

  /// Build the activity table from everything observed so far.
  ActivityTable build() const;

  /// Distinct (asn, day) pairs observed by exactly one peer — the spurious
  /// single-peer sightings the rule exists to reject.
  std::int64_t single_peer_pairs() const noexcept;

 private:
  struct PeerSeen {
    /// First distinct peers observed (thresholds beyond 4 are clamped).
    std::array<std::uint32_t, 4> peers{};
    int distinct = 0;
  };

  // Key: (asn << 20) ^ day-offset would risk collisions; use a composed
  // 64-bit key of asn and day instead.
  static std::uint64_t key(asn::Asn asn, util::Day day) noexcept {
    return (static_cast<std::uint64_t>(asn.value) << 24) ^
           (static_cast<std::uint64_t>(static_cast<std::uint32_t>(day)) &
            0xFFFFFF);
  }

  int min_peers_;
  std::unordered_map<std::uint64_t, PeerSeen> seen_;
  std::unordered_map<std::uint64_t, std::pair<asn::Asn, util::Day>> keys_;
};

/// Publish the §3.2 visibility-rule rejection count (single-peer sightings
/// the >1-peer rule filtered out).
void record_metrics(const VisibilityAggregator& aggregator,
                    obs::Registry& metrics);

/// Tracks distinct prefixes originated per (ASN, day) — the series behind
/// the squatting case studies (paper Fig. 8). Optionally restricted to a
/// watchlist to bound memory at full scale.
class OriginationTracker {
 public:
  OriginationTracker() = default;

  /// Restrict tracking to these ASNs (empty watchlist = track everything).
  void set_watchlist(std::vector<asn::Asn> asns);

  void observe(const Element& element);

  /// Distinct prefixes originated by `asn` on `day` (0 if none/untracked).
  std::int64_t prefixes_on(asn::Asn asn, util::Day day) const noexcept;

  /// Full daily series for one ASN across [begin, end].
  std::vector<std::int64_t> series(asn::Asn asn, util::Day begin,
                                   util::Day end) const;

 private:
  bool tracked(asn::Asn asn) const noexcept;

  std::unordered_set<std::uint32_t> watchlist_;
  bool watch_all_ = true;
  // (asn, day) -> set of prefixes seen.
  std::map<std::pair<std::uint32_t, util::Day>, std::set<Prefix>> counts_;
};

}  // namespace pl::bgp
