// Administrative lifetime inference (paper 4.1): turning restored per-RIR
// status spans into ASN allocation lifetimes, applying the merge rules:
//
//   * reserved interruption (or disappearance in the regular-file era)
//     followed by re-allocation with the *same* registration date — same
//     holder, one life;
//   * AfriNIC exception — reserved then re-allocated without passing through
//     available is one life even with a *new* registration date;
//   * registration-date change while continuously allocated — administrative
//     correction, one life;
//   * inter-RIR transfer — one life iff the spans are gap-free across
//     registries.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "lifetimes/order.hpp"
#include "obs/metrics.hpp"
#include "restore/types.hpp"

namespace pl::lifetimes {

/// One administrative lifetime (Listing 1 "Administrative Dataset" record).
struct AdminLifetime {
  asn::Asn asn;
  util::Day registration_date = 0;
  util::DayInterval days;
  asn::Rir registry = asn::Rir::kArin;  ///< allocating registry
  asn::CountryCode country;
  std::uint64_t opaque_id = 0;          ///< holder organization handle
  bool open_ended = false;              ///< still allocated at archive end
  bool transferred = false;             ///< crossed registries mid-life

  friend bool operator==(const AdminLifetime&, const AdminLifetime&) = default;
};

struct AdminBuildConfig {
  /// Gap tolerance (days) for the inter-RIR transfer merge. The paper
  /// requires "no gaps"; 0 means strictly adjacent.
  int transfer_gap_tolerance = 0;

  friend bool operator==(const AdminBuildConfig&,
                         const AdminBuildConfig&) = default;
};

struct AdminDataset {
  /// Sorted by (asn, start) — the per-ASN index (see lifetimes/order.hpp).
  std::vector<AdminLifetime> lifetimes;
  util::Day archive_end = 0;

  std::size_t asn_count() const noexcept { return count_asns(lifetimes); }
};

/// Each registry's first observed day, in `kAllRirs` order — the minimum
/// span start across its ASNs, i.e. the day its first published file
/// landed. `nullopt` for a registry with no spans at all. Lives already
/// present in that first file are backdated to their registration date.
using FirstObserved = std::array<std::optional<util::Day>, asn::kRirCount>;

/// All five registries' span tables, in `kAllRirs` order.
using SpanTables = std::array<restore::SpanTable, asn::kRirCount>;

/// The archive's span maps as flat tables, adjacent same-state spans
/// merged. The restorer may emit a state's run split at a day where
/// nothing changed; the serving layer extends the trailing span one day at
/// a time, so both paths hold this canonical form. Admin lifetimes are
/// invariant under the merge (a zero-gap same-state continuation merges
/// under the 4.1 rules either way).
SpanTables flatten_spans(const restore::RestoredArchive& archive);

/// Build the administrative lifetimes, sorted by (asn, start), from the
/// per-registry span tables and their backdating anchors — the one driver
/// behind the pipeline's admin dataset and every snapshot's admin lives.
std::vector<AdminLifetime> build_admin_lifetimes(
    const SpanTables& spans, const FirstObserved& first_observed,
    util::Day archive_end, const AdminBuildConfig& config = {});

/// Build the administrative dataset from the restored archive: the driver
/// above over `flatten_spans(archive)` and `registry_first_observed(archive)`.
AdminDataset build_admin_lifetimes(const restore::RestoredArchive& archive,
                                   util::Day archive_end,
                                   const AdminBuildConfig& config = {});

/// One ASN's restored spans, one view per registry in `kAllRirs` order
/// (empty where that registry never listed the ASN).
using AsnSpansByRegistry =
    std::array<std::span<const restore::StateSpan>, asn::kRirCount>;

/// The archive's backdating anchors (see `FirstObserved`).
FirstObserved registry_first_observed(const restore::RestoredArchive& archive);

/// Lifetimes of a single ASN from its per-registry restored spans — the
/// per-ASN core of `build_admin_lifetimes`, exposed for the serving
/// layer's narrowed past-day cut, which derives only the asked ASNs. For
/// any ASN, feeding the slices of a full archive through this function
/// yields the same lifetimes the full builder produces (the differential
/// tests lock this).
std::vector<AdminLifetime> build_asn_admin_lifetimes(
    std::uint32_t asn_value, const AsnSpansByRegistry& spans,
    const FirstObserved& first_observed, util::Day archive_end,
    const AdminBuildConfig& config = {});

/// Publish the admin-dataset census (lifetime/ASN totals, open-ended and
/// transferred counts, the duration distribution) into the metrics
/// registry.
void record_metrics(const AdminDataset& dataset, obs::Registry& metrics);

}  // namespace pl::lifetimes
