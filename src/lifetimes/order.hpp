// The per-ASN index of both Listing-1 datasets is their storage order:
// lives sorted by (asn, start), so each ASN's lives form one contiguous
// run. No second grouping is kept; a run is found by binary search, and a
// whole dataset is walked run by run from its front.
#pragma once

#include <algorithm>
#include <cstddef>
#include <span>
#include <vector>

#include "asn/asn.hpp"

namespace pl::lifetimes {

/// The (asn, start) order every admin and op life list is stored in.
struct AsnStartOrder {
  template <class Life>
  bool operator()(const Life& a, const Life& b) const noexcept {
    if (a.asn != b.asn) return a.asn < b.asn;
    return a.days.first < b.days.first;
  }
};

/// The lives of `asn` in `lives`, which must be sorted by `AsnStartOrder`:
/// one contiguous run in start order, empty when the ASN has none. The run
/// holding `lives[i]` is `asn_run(lives, lives[i].asn)`.
template <class Life>
std::span<const Life> asn_run(const std::vector<Life>& lives, asn::Asn asn) {
  const auto first =
      std::partition_point(lives.begin(), lives.end(),
                           [&](const Life& life) { return life.asn < asn; });
  const auto last =
      std::partition_point(first, lives.end(), [&](const Life& life) {
        return !(asn < life.asn);
      });
  return std::span<const Life>(first, last);
}

/// Distinct ASNs in `lives` (sorted by `AsnStartOrder`).
template <class Life>
std::size_t count_asns(const std::vector<Life>& lives) noexcept {
  std::size_t count = 0;
  for (std::size_t i = 0; i < lives.size(); ++i)
    if (i == 0 || lives[i].asn != lives[i - 1].asn) ++count;
  return count;
}

}  // namespace pl::lifetimes
