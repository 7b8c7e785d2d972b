#include "lifetimes/admin.hpp"

#include <algorithm>
#include <array>
#include <optional>

#include "check/contracts.hpp"

namespace pl::lifetimes {

namespace {

using restore::StateSpan;
using util::Day;
using util::DayInterval;

/// A delegated span tagged with its registry, plus what filled the gap
/// before it in the same registry's timeline.
struct Piece {
  DayInterval days;
  asn::Rir rir;
  Day registration_date;
  asn::CountryCode country;
  std::uint64_t opaque_id;
  /// True when the same registry reported `reserved` for the entire gap
  /// between the previous delegated span and this one (never `available`) —
  /// the AfriNIC-exception precondition.
  bool gap_was_reserved_only = false;
};

/// Extract one ASN's delegated pieces from one registry's span list (in
/// span order), appending to `out`. `first_observed` is the registry's first
/// published day: lives already present in that first file are backdated to
/// their registration date.
void gather_asn_pieces(std::span<const StateSpan> spans, asn::Rir rir,
                       Day first_observed, std::vector<Piece>& out) {
  std::optional<std::size_t> previous_delegated;
  for (std::size_t s = 0; s < spans.size(); ++s) {
    const StateSpan& span = spans[s];
    if (!dele::is_delegated(span.state.status)) continue;
    Piece piece;
    piece.days = span.days;
    piece.rir = rir;
    piece.registration_date =
        span.state.registration_date.value_or(span.days.first);
    piece.country = span.state.country;
    piece.opaque_id = span.state.opaque_id;
    // Inspect the gap back to the previous delegated span within this
    // registry: reserved-only gaps trigger the AfriNIC exception.
    if (previous_delegated) {
      bool reserved_only = true;
      bool covered = true;
      Day cursor = spans[*previous_delegated].days.last + 1;
      for (std::size_t g = *previous_delegated + 1; g < s; ++g) {
        if (dele::is_delegated(spans[g].state.status)) continue;
        if (spans[g].days.first > cursor) covered = false;
        if (spans[g].state.status != dele::Status::kReserved)
          reserved_only = false;
        cursor = std::max<Day>(cursor, spans[g].days.last + 1);
      }
      if (cursor < piece.days.first) covered = false;
      piece.gap_was_reserved_only =
          reserved_only && covered && cursor == piece.days.first;
    }
    // Backdate first-file lives to their registration date.
    if (piece.days.first == first_observed &&
        piece.registration_date < piece.days.first)
      piece.days.first = piece.registration_date;
    previous_delegated = s;
    out.push_back(piece);
  }
}

/// Merge one ASN's pieces (sorted in place by start day) into lifetimes,
/// applying the 4.1 continuation rules, and append them to `out`.
void build_asn_lifetimes(std::uint32_t asn_value, std::vector<Piece>& pieces,
                         Day archive_end, const AdminBuildConfig& config,
                         std::vector<AdminLifetime>& out) {
  const std::size_t first_life = out.size();  // earlier ASNs' lives precede
  std::sort(pieces.begin(), pieces.end(),
            [](const Piece& a, const Piece& b) {
              return a.days.first < b.days.first;
            });
  PL_ASSERT_SORTED(pieces,
                   [](const Piece& a, const Piece& b) {
                     return a.days.first < b.days.first;
                   },
                   "admin pieces before 4.1 merge");

  AdminLifetime current;
  asn::Rir tail_rir = asn::Rir::kArin;  ///< registry of the last piece
  bool open = false;

  const auto flush = [&] {
    if (!open) return;
    PL_ENSURE(current.days.first <= current.days.last,
              "an admin lifetime must cover at least one day");
    PL_ENSURE(out.size() == first_life ||
                  out.back().days.last < current.days.first,
              "per-ASN admin lifetimes must be disjoint and ascending (4.1 "
              "merge rules never emit overlapping lives)");
    current.open_ended = current.days.last >= archive_end;
    out.push_back(current);
    open = false;
  };

  for (const Piece& piece : pieces) {
    if (!open) {
      current = AdminLifetime{};
      current.asn = asn::Asn{asn_value};
      current.registration_date = piece.registration_date;
      current.days = piece.days;
      current.registry = piece.rir;
      current.country = piece.country;
      current.opaque_id = piece.opaque_id;
      tail_rir = piece.rir;
      open = true;
      continue;
    }

    const Day gap = static_cast<Day>(piece.days.first) -
                    current.days.last - 1;
    bool merge = false;
    if (piece.rir == tail_rir) {  // same-registry continuation rules
      if (gap <= 0) {
        // Continuously allocated; a registration-date change here is an
        // administrative correction (same life).
        merge = true;
      } else if (piece.registration_date == current.registration_date) {
        // Returned to the previous owner after reserved/disappearance.
        merge = true;
      } else if (piece.rir == asn::Rir::kAfrinic &&
                 piece.gap_was_reserved_only) {
        // AfriNIC exception: reserved -> allocated without available is a
        // re-allocation to the same holder even with a new date.
        merge = true;
      }
    } else {
      // Cross-registry: inter-RIR transfer iff gap-free.
      if (gap <= config.transfer_gap_tolerance) {
        merge = true;
        current.transferred = true;
      }
    }

    if (merge) {
      current.days.last = std::max<Day>(current.days.last, piece.days.last);
      if (gap <= 0) {
        // Continuously allocated with a changed date: an administrative
        // correction — the newest reported date is authoritative (4.1).
        current.registration_date = piece.registration_date;
      } else {
        // Reserved-gap / AfriNIC-exception merges keep the life's
        // original date (all RIRs but AfriNIC preserve it; for AfriNIC
        // the paper still counts one life under the original).
        current.registration_date =
            std::min(current.registration_date, piece.registration_date);
      }
      tail_rir = piece.rir;
    } else {
      flush();
      current = AdminLifetime{};
      current.asn = asn::Asn{asn_value};
      current.registration_date = piece.registration_date;
      current.days = piece.days;
      current.registry = piece.rir;
      current.country = piece.country;
      current.opaque_id = piece.opaque_id;
      tail_rir = piece.rir;
      open = true;
    }
  }
  flush();
}

/// Append one ASN's lifetimes to `out`. Pieces are gathered in kAllRirs
/// order (span order within a registry), which fixes the sort in
/// build_asn_lifetimes; `pieces` is scratch space reused across calls.
void append_asn_lifetimes(std::uint32_t asn_value,
                          const AsnSpansByRegistry& spans,
                          const FirstObserved& first_observed, Day archive_end,
                          const AdminBuildConfig& config,
                          std::vector<Piece>& pieces,
                          std::vector<AdminLifetime>& out) {
  pieces.clear();
  for (std::size_t r = 0; r < asn::kRirCount; ++r) {
    if (spans[r].empty()) continue;
    gather_asn_pieces(spans[r], asn::kAllRirs[r],
                      first_observed[r].value_or(archive_end), pieces);
  }
  build_asn_lifetimes(asn_value, pieces, archive_end, config, out);
}

}  // namespace

FirstObserved registry_first_observed(const restore::RestoredArchive& archive) {
  FirstObserved first_observed;
  for (const restore::RestoredRegistry& registry : archive.registries) {
    auto& first = first_observed[asn::index_of(registry.rir)];
    for (const auto& [asn, spans] : registry.spans)
      for (const restore::StateSpan& span : spans)
        if (!first || span.days.first < *first) first = span.days.first;
  }
  return first_observed;
}

std::vector<AdminLifetime> build_asn_admin_lifetimes(
    std::uint32_t asn_value, const AsnSpansByRegistry& spans,
    const FirstObserved& first_observed, util::Day archive_end,
    const AdminBuildConfig& config) {
  std::vector<Piece> pieces;
  std::vector<AdminLifetime> lifetimes;
  append_asn_lifetimes(asn_value, spans, first_observed, archive_end, config,
                       pieces, lifetimes);
  return lifetimes;
}

SpanTables flatten_spans(const restore::RestoredArchive& archive) {
  SpanTables tables;
  std::vector<StateSpan> merged;
  for (const restore::RestoredRegistry& registry : archive.registries) {
    restore::SpanTable& table = tables[asn::index_of(registry.rir)];
    table.keys.reserve(registry.spans.size());
    table.offsets.reserve(registry.spans.size());
    for (const auto& [asn_value, spans] : registry.spans) {
      merged.clear();
      for (const StateSpan& span : spans) {
        if (!merged.empty() && merged.back().days.last + 1 == span.days.first &&
            merged.back().state == span.state)
          merged.back().days.last = span.days.last;
        else
          merged.push_back(span);
      }
      table.push_back(asn_value, merged);
    }
  }
  return tables;
}

AdminDataset build_admin_lifetimes(const restore::RestoredArchive& archive,
                                   util::Day archive_end,
                                   const AdminBuildConfig& config) {
  AdminDataset dataset;
  dataset.archive_end = archive_end;
  dataset.lifetimes =
      build_admin_lifetimes(flatten_spans(archive),
                            registry_first_observed(archive), archive_end,
                            config);
  return dataset;
}

std::vector<AdminLifetime> build_admin_lifetimes(
    const SpanTables& spans, const FirstObserved& first_observed,
    util::Day archive_end, const AdminBuildConfig& config) {
  // Walk the five registries' tables together in ascending-ASN order and
  // build each ASN's lives from the spans every registry holds for it, so
  // the output comes out sorted by ASN with the per-ASN builder's lives.
  // Lives already present in a registry's first file are backdated to their
  // registration date — the paper's lifetimes reach back to 1992 through
  // this field (Fig. 10), since the archive cannot witness their true start.
  std::array<std::size_t, asn::kRirCount> next{};
  std::vector<AdminLifetime> lifetimes;
  std::vector<Piece> pieces;
  for (;;) {
    std::optional<std::uint32_t> asn_value;
    for (std::size_t r = 0; r < asn::kRirCount; ++r)
      if (next[r] < spans[r].size() &&
          (!asn_value || spans[r].keys[next[r]] < *asn_value))
        asn_value = spans[r].keys[next[r]];
    if (!asn_value) break;
    AsnSpansByRegistry asn_spans{};
    for (std::size_t r = 0; r < asn::kRirCount; ++r)
      if (next[r] < spans[r].size() && spans[r].keys[next[r]] == *asn_value)
        asn_spans[r] = spans[r].row(next[r]++);
    append_asn_lifetimes(*asn_value, asn_spans, first_observed, archive_end,
                         config, pieces, lifetimes);
  }
  PL_ASSERT_SORTED(lifetimes, AsnStartOrder{},
                   "admin lifetimes leaving the builder");
  return lifetimes;
}

void record_metrics(const AdminDataset& dataset, obs::Registry& metrics) {
  metrics.counter("pl_admin_lifetimes")
      .add(static_cast<std::int64_t>(dataset.lifetimes.size()));
  metrics.gauge("pl_admin_asns")
      .set(static_cast<std::int64_t>(dataset.asn_count()));
  obs::Counter& open_ended = metrics.counter("pl_admin_open_ended");
  obs::Counter& transferred = metrics.counter("pl_admin_transferred");
  obs::Histogram& duration = metrics.histogram(
      "pl_admin_duration_days", {30, 90, 365, 1825, 3650, 7300});
  for (const AdminLifetime& life : dataset.lifetimes) {
    if (life.open_ended) open_ended.add(1);
    if (life.transferred) transferred.add(1);
    duration.observe(life.days.length());
  }
}

}  // namespace pl::lifetimes
