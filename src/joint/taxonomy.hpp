// The joint admin/operational taxonomy (paper 6, Fig. 6, Table 3): every
// administrative life is exactly one of {complete overlap, partial overlap,
// unused}; every operational life is exactly one of {complete overlap,
// partial overlap, outside delegation}.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "lifetimes/admin.hpp"
#include "lifetimes/op.hpp"

namespace pl::joint {

enum class Category : std::uint8_t {
  kCompleteOverlap,    ///< 6.1 — op life(s) entirely within the admin life
  kPartialOverlap,     ///< 6.2 — an op life crosses the admin boundary
  kUnused,             ///< 6.3 — admin life with no overlapping op life
  kOutsideDelegation,  ///< 6.4 — op life with no overlapping admin life
};

std::string_view category_name(Category category) noexcept;

/// Classification of both datasets plus the cross-links needed by the
/// downstream 6.x analyses.
struct Taxonomy {
  /// Category per admin life (never kOutsideDelegation).
  std::vector<Category> admin_category;
  /// Category per op life (never kUnused).
  std::vector<Category> op_category;
  /// For each op life, the admin life (index) it overlaps most, -1 if none.
  std::vector<std::int64_t> op_to_admin;
  /// For each admin life, the indices of op lives overlapping it.
  std::vector<std::vector<std::size_t>> admin_to_ops;

  /// Table 3 counters.
  std::array<std::int64_t, 4> admin_counts{};  ///< by Category
  std::array<std::int64_t, 4> op_counts{};

  std::int64_t total_admin() const noexcept {
    return admin_counts[0] + admin_counts[1] + admin_counts[2];
  }
  std::int64_t total_op() const noexcept {
    return op_counts[0] + op_counts[1] + op_counts[3];
  }
};

/// Classification of one ASN's lifetimes, with indices local to the ASN's
/// start-ordered life lists. Classification only ever relates lives of the
/// *same* ASN, so this is the complete per-ASN core of `classify()` —
/// exposed so the serving layer can classify its rows one ASN at a time.
struct AsnClassification {
  std::vector<Category> admin_category;
  std::vector<Category> op_category;
  /// For each op life, the local index of the admin life it overlaps most,
  /// -1 if none.
  std::vector<std::int64_t> op_to_admin;
  /// Every overlapping (admin, op) pair of local indices, ordered by op
  /// life, then admin life: one admin life's overlapping op lives appear
  /// in start order.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> overlaps;

  friend bool operator==(const AsnClassification&,
                         const AsnClassification&) = default;
};

/// Classify one ASN into `out`, replacing its contents. Both spans must be
/// sorted by start day, as each ASN's run of a dataset is. `out`'s buffers
/// are reused, so classifying ASN after ASN into one object allocates only
/// while they grow.
void classify_asn(std::span<const lifetimes::AdminLifetime> admin,
                  std::span<const lifetimes::OpLifetime> op,
                  AsnClassification& out);

/// Classify. An op life is "complete" if fully inside some admin life of
/// the same ASN, "partial" if it overlaps one but crosses its boundary,
/// "outside" if it overlaps none. An admin life is "partial" if any op life
/// crosses its boundary, else "complete" if any op life lies inside, else
/// "unused". Both datasets must be sorted by (asn, start); each ASN's runs
/// go through `classify_asn`.
Taxonomy classify(const lifetimes::AdminDataset& admin,
                  const lifetimes::OpDataset& op);

/// ASNs in the outside-delegation category split the way the paper does:
/// ever-allocated (799 in the paper) vs never-allocated (868).
struct OutsideSplit {
  std::vector<asn::Asn> ever_allocated;
  std::vector<asn::Asn> never_allocated;
};

OutsideSplit split_outside(const Taxonomy& taxonomy,
                           const lifetimes::AdminDataset& admin,
                           const lifetimes::OpDataset& op);

/// Publish the Table 3 class tallies: one
/// `pl_taxonomy_admin{class="..."}` / `pl_taxonomy_op{class="..."}`
/// counter per category that can occur on that side.
void record_metrics(const Taxonomy& taxonomy, obs::Registry& metrics);

}  // namespace pl::joint
