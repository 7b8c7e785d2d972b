#include "lifetimes/admin.hpp"

#include <algorithm>
#include <array>
#include <optional>
#include <span>
#include <utility>

#include "check/contracts.hpp"
#include "exec/pool.hpp"

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
void gather_asn_pieces(const std::vector<StateSpan>& spans, asn::Rir rir,
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

/// Extract the delegated pieces of one registry into flat (asn, piece)
/// pairs. `spans` iterates in ascending-ASN order, so `out` comes back
/// sorted by ASN with per-ASN pieces in span order — no per-ASN map slot
/// (or temporary vector) needed.
void gather_registry_pieces(
    const std::map<std::uint32_t, std::vector<StateSpan>>& spans,
    asn::Rir rir, Day first_observed,
    std::vector<std::pair<std::uint32_t, Piece>>& out) {
  std::vector<Piece> scratch;
  for (const auto& [asn, asn_spans] : spans) {
    scratch.clear();
    gather_asn_pieces(asn_spans, rir, first_observed, scratch);
    for (const Piece& piece : scratch) out.emplace_back(asn, piece);
  }
}

/// Merge one ASN's pieces (sorted in place by start day) into lifetimes,
/// applying the 4.1 continuation rules. `pieces` is a mutable slice of the
/// caller's flat piece array.
void build_asn_lifetimes(std::uint32_t asn_value, Piece* pieces_begin,
                         std::size_t piece_count, Day archive_end,
                         const AdminBuildConfig& config,
                         std::vector<AdminLifetime>& out) {
  const std::span<Piece> pieces(pieces_begin, piece_count);
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
    PL_ENSURE(out.empty() || out.back().days.last < current.days.first,
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

}  // namespace

void AdminDataset::index() {
  by_asn.clear();
  std::sort(lifetimes.begin(), lifetimes.end(),
            [](const AdminLifetime& a, const AdminLifetime& b) {
              if (a.asn != b.asn) return a.asn < b.asn;
              return a.days.first < b.days.first;
            });
  // Lifetimes are sorted by ASN, so keys arrive ascending: the end-hint
  // makes every map insert O(1) instead of a fresh root-down walk.
  std::vector<std::size_t>* slot = nullptr;
  for (std::size_t i = 0; i < lifetimes.size(); ++i) {
    const std::uint32_t asn = lifetimes[i].asn.value;
    if (slot == nullptr || by_asn.rbegin()->first != asn)
      slot = &by_asn
                  .emplace_hint(by_asn.end(), asn,
                                std::vector<std::size_t>{})
                  ->second;
    slot->push_back(i);
  }
  PL_ASSERT_SORTED(lifetimes,
                   [](const AdminLifetime& a, const AdminLifetime& b) {
                     if (a.asn != b.asn) return a.asn < b.asn;
                     return a.days.first < b.days.first;
                   },
                   "AdminDataset::lifetimes after index()");
}

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
  // Assemble pieces in kAllRirs order — the order the full builder folds
  // its per-registry maps, which fixes the (deterministic) sort below.
  std::vector<Piece> pieces;
  for (std::size_t r = 0; r < asn::kRirCount; ++r) {
    if (spans[r] == nullptr) continue;
    gather_asn_pieces(*spans[r], asn::kAllRirs[r],
                      first_observed[r].value_or(archive_end), pieces);
  }
  std::vector<AdminLifetime> lifetimes;
  build_asn_lifetimes(asn_value, pieces.data(), pieces.size(), archive_end,
                      config, lifetimes);
  return lifetimes;
}

AdminDataset build_admin_lifetimes(const restore::RestoredArchive& archive,
                                   util::Day archive_end,
                                   const AdminBuildConfig& config) {
  RegistrySpanMaps spans{};
  for (const restore::RestoredRegistry& registry : archive.registries)
    spans[asn::index_of(registry.rir)] = &registry.spans;
  AdminDataset dataset;
  dataset.archive_end = archive_end;
  dataset.lifetimes = build_admin_lifetimes(
      spans, registry_first_observed(archive), archive_end, config);
  dataset.index();
  return dataset;
}

std::vector<AdminLifetime> build_admin_lifetimes(
    const RegistrySpanMaps& spans, const FirstObserved& first_observed,
    util::Day archive_end, const AdminBuildConfig& config) {

  // Gather delegated pieces, sharded by registry: each of the five
  // registries fills its own flat (asn, piece) vector (already sorted by
  // ASN — see gather_registry_pieces), and the vectors fold together below
  // into ascending-ASN groups whose per-ASN piece order matches the old
  // registry-order map fold. Lives already present in a registry's first
  // file are backdated to their registration date — the paper's lifetimes
  // reach back to 1992 through this field (Fig. 10), since the archive
  // cannot witness their true start. A registry with no spans gets the
  // archive-end sentinel (no ASN can match it, so no backdating happens).
  std::array<std::vector<std::pair<std::uint32_t, Piece>>, asn::kRirCount>
      pieces_by_registry;
  exec::parallel_for(
      asn::kRirCount,
      [&](std::size_t begin, std::size_t end) {
        for (std::size_t r = begin; r < end; ++r)
          if (spans[r] != nullptr)
            gather_registry_pieces(*spans[r], asn::kAllRirs[r],
                                   first_observed[r].value_or(archive_end),
                                   pieces_by_registry[r]);
      },
      /*grain=*/1);

  std::size_t piece_total = 0;
  for (const auto& registry_pieces : pieces_by_registry)
    piece_total += registry_pieces.size();
  std::vector<std::pair<std::uint32_t, Piece>> pieces;
  pieces.reserve(piece_total);
  for (const auto& registry_pieces : pieces_by_registry)
    pieces.insert(pieces.end(), registry_pieces.begin(),
                  registry_pieces.end());
  // Stable by-ASN sort of the registry-order concatenation: each ASN's
  // group keeps registry order, the per-ASN sequence the serial fold built.
  std::stable_sort(pieces.begin(), pieces.end(),
                   [](const auto& a, const auto& b) {
                     return a.first < b.first;
                   });

  // Per-ASN lifetime construction is independent across ASNs: compute each
  // ASN group's lifetimes into its own slot, then concatenate in
  // ascending-ASN order (the group order — exactly the serial append
  // order).
  struct Group {
    std::uint32_t asn;
    std::size_t begin;
    std::size_t count;
  };
  std::vector<Group> groups;
  for (std::size_t i = 0; i < pieces.size();) {
    const std::uint32_t asn = pieces[i].first;
    const std::size_t begin = i;
    while (i < pieces.size() && pieces[i].first == asn) ++i;
    groups.push_back(Group{asn, begin, i - begin});
  }
  // The grouped pairs are (asn, piece); build_asn_lifetimes wants a bare
  // Piece slice, so copy each group into a scratch run. One flat scratch
  // array shared by all groups keeps this allocation-free per group.
  std::vector<Piece> scratch(pieces.size());
  for (std::size_t i = 0; i < pieces.size(); ++i)
    scratch[i] = pieces[i].second;
  std::vector<std::vector<AdminLifetime>> lifetimes_by_asn(groups.size());
  exec::parallel_for(
      groups.size(),
      [&](std::size_t begin, std::size_t end) {
        for (std::size_t n = begin; n < end; ++n)
          build_asn_lifetimes(groups[n].asn, scratch.data() + groups[n].begin,
                              groups[n].count, archive_end, config,
                              lifetimes_by_asn[n]);
      },
      /*grain=*/64);

  std::size_t life_total = 0;
  for (const std::vector<AdminLifetime>& per_asn : lifetimes_by_asn)
    life_total += per_asn.size();
  std::vector<AdminLifetime> lifetimes;
  lifetimes.reserve(life_total);
  for (const std::vector<AdminLifetime>& per_asn : lifetimes_by_asn)
    lifetimes.insert(lifetimes.end(), per_asn.begin(), per_asn.end());
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
