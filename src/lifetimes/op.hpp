// Operational (BGP) lifetime inference (paper 4.2): daily activity runs
// separated by more than an inactivity timeout become distinct lifetimes.
// The paper selects 30 days from the sensitivity analysis in Fig. 3.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "bgp/activity.hpp"
#include "lifetimes/order.hpp"
#include "obs/metrics.hpp"
#include "util/flat_table.hpp"
#include "util/interval.hpp"

namespace pl::lifetimes {

inline constexpr int kPaperTimeoutDays = 30;

/// One operational lifetime (Listing 1 "Operational Dataset" record).
struct OpLifetime {
  asn::Asn asn;
  util::DayInterval days;

  friend bool operator==(const OpLifetime&, const OpLifetime&) = default;
};

struct OpDataset {
  /// Sorted by (asn, start) — the per-ASN index (see lifetimes/order.hpp).
  std::vector<OpLifetime> lifetimes;

  std::size_t asn_count() const noexcept { return count_asns(lifetimes); }
};

/// Per-ASN activity runs as a flat table: ascending ASN keys, each owning
/// its sorted, disjoint, non-adjacent runs (the serving working set's
/// layout).
using RunTable = util::FlatTable<util::DayInterval>;

/// The activity table's runs as a flat table.
RunTable flatten_activity(const bgp::ActivityTable& activity);

/// The 4.2 timeout rule for one ASN: merge its ordered activity runs whose
/// separating gap is <= `timeout_days` and append the resulting lives to
/// `out`. Both forms of `coalesce_activity` run it per ASN.
void append_op_lifetimes(asn::Asn asn, std::span<const util::DayInterval> runs,
                         int timeout_days, std::vector<OpLifetime>& out);

/// Coalesce activity runs into lifetimes using `timeout_days`, sorted by
/// (asn, start). The pipeline's op dataset goes through the table form,
/// every snapshot's op lives through the flat form.
std::vector<OpLifetime> coalesce_activity(
    const bgp::ActivityTable& activity, int timeout_days = kPaperTimeoutDays);
std::vector<OpLifetime> coalesce_activity(const RunTable& activity,
                                          int timeout_days = kPaperTimeoutDays);

/// The op dataset: `coalesce_activity` as a dataset.
OpDataset build_op_lifetimes(const bgp::ActivityTable& activity,
                             int timeout_days = kPaperTimeoutDays);

/// Publish the op-dataset census (lifetime/ASN totals and the duration
/// distribution) into the metrics registry.
void record_metrics(const OpDataset& dataset, obs::Registry& metrics);

}  // namespace pl::lifetimes
