// Output types of the restoration pipeline (paper 3.1): per-registry,
// per-ASN status-span timelines reconstructed from the noisy archive, plus
// audit reports of what each restoration step did.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <vector>

#include "asn/rir.hpp"
#include "delegation/record.hpp"
#include "util/flat_table.hpp"
#include "util/intern.hpp"
#include "util/interval.hpp"

namespace pl::restore {

/// A maximal run of days over which one registry reported one state for one
/// ASN (after restoration).
struct StateSpan {
  util::DayInterval days;
  dele::RecordState state;

  friend bool operator==(const StateSpan&, const StateSpan&) = default;
};

/// One registry's spans as a flat table: ascending ASN keys, each owning
/// its ordered, disjoint spans (the serving working set's layout).
using SpanTable = util::FlatTable<StateSpan>;

/// A span timeline cut at `last_day`: spans starting later are dropped and
/// the span straddling `last_day` ends there (`util::append_clipped`, the
/// one clip rule for every "the world as of day D" cut).
inline std::vector<StateSpan> clip_spans(std::span<const StateSpan> spans,
                                         util::Day last_day) {
  std::vector<StateSpan> out;
  util::append_clipped(
      spans, last_day,
      [](auto& span) -> auto& { return span.days; }, out);
  return out;
}

/// Audit counters for one registry's restoration pass; each maps to a 3.1
/// step. Benches print these alongside the paper's reported incidence.
struct RestorationReport {
  std::int64_t days_processed = 0;
  std::int64_t files_missing = 0;           ///< step i events
  std::int64_t files_corrupt = 0;
  std::int64_t gap_filled_days = 0;         ///< missing days bridged
  std::int64_t recovered_from_regular = 0;  ///< step ii/iii record recoveries
  std::int64_t newest_conflict_days = 0;    ///< step iii days with conflicts
  std::int64_t duplicates_resolved = 0;     ///< step iv episodes
  std::int64_t future_dates_fixed = 0;      ///< step v
  std::int64_t placeholder_dates_restored = 0;  ///< step v (ERX)
  std::int64_t grace_expired_drops = 0;     ///< regular-only records dropped

  // Ingestion-guard counters (robustness layer): day observations that
  // violated the strictly-increasing-day contract and what became of them.
  // days_processed counts *applied* days only, so
  //   days_processed + quarantined == days offered.
  std::int64_t days_quarantined_duplicate = 0;  ///< same day seen again
  std::int64_t days_quarantined_late = 0;   ///< arrived beyond the window
  std::int64_t days_reorder_recovered = 0;  ///< out-of-order but recovered
  std::int64_t misuse_calls = 0;  ///< consume()/checkpoint() on a spent
                                  ///< or moved-from restorer

  friend bool operator==(const RestorationReport&,
                         const RestorationReport&) = default;
};

/// Cross-registry reconciliation audit (step vi).
struct CrossRirReport {
  std::int64_t overlapping_asns = 0;
  std::int64_t stale_spans_trimmed = 0;
  std::int64_t mistaken_spans_removed = 0;
};

/// One registry's restored archive.
struct RestoredRegistry {
  asn::Rir rir = asn::Rir::kArin;
  /// Per ASN: ordered, disjoint status spans (all statuses, including
  /// reserved/available, which the lifetime builder needs).
  std::map<std::uint32_t, std::vector<StateSpan>> spans;
  RestorationReport report;
};

/// All five registries plus the cross-registry reconciliation result.
struct RestoredArchive {
  std::array<RestoredRegistry, asn::kRirCount> registries;
  CrossRirReport cross;
  /// Token vocabulary of the source archives (registry, status and country
  /// tokens), interned once at archive-open and shared by reference. All
  /// record state is stored as small-int ids / packed codes; these are the
  /// strings for the text-output boundary (reports, exports). May be null
  /// when the archive was restored from a pre-interchange stream.
  std::shared_ptr<const util::StringPool> names;

  const RestoredRegistry& registry(asn::Rir rir) const noexcept {
    return registries[asn::index_of(rir)];
  }
};

}  // namespace pl::restore
