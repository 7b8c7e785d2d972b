// Operational (BGP) lifetime inference (paper 4.2): daily activity runs
// separated by more than an inactivity timeout become distinct lifetimes.
// The paper selects 30 days from the sensitivity analysis in Fig. 3.
#pragma once

#include <cstdint>
#include <vector>

#include "bgp/activity.hpp"
#include "lifetimes/order.hpp"
#include "obs/metrics.hpp"
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

/// Coalesce activity runs into lifetimes using `timeout_days`, sorted by
/// (asn, start). The serving layer derives every snapshot's op lives
/// through this form.
std::vector<OpLifetime> coalesce_activity(
    const bgp::ActivityTable& activity, int timeout_days = kPaperTimeoutDays);

/// The op dataset: `coalesce_activity` as a dataset.
OpDataset build_op_lifetimes(const bgp::ActivityTable& activity,
                             int timeout_days = kPaperTimeoutDays);

/// Publish the op-dataset census (lifetime/ASN totals and the duration
/// distribution) into the metrics registry.
void record_metrics(const OpDataset& dataset, obs::Registry& metrics);

}  // namespace pl::lifetimes
