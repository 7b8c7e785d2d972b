#include "serve/snapshot.hpp"

#include <algorithm>
#include <utility>

#include "check/contracts.hpp"
#include "exec/pool.hpp"
#include "util/date.hpp"

namespace pl::serve {

namespace {

using restore::StateSpan;
using util::Day;

/// Merge adjacent same-state spans. The restorer may legitimately emit a
/// state's run split at a day where nothing changed (e.g. around a gap it
/// later filled); advance_day() extends the trailing span one day at a
/// time, so the working set must hold the canonical merged form for the
/// two paths to produce identical lists. Admin lifetimes are invariant
/// under this merge (a zero-gap same-state continuation merges under the
/// 4.1 rules either way), which the advance-vs-rebuild tests lock.
std::vector<StateSpan> canonicalize(const std::vector<StateSpan>& spans) {
  std::vector<StateSpan> out;
  out.reserve(spans.size());
  for (const StateSpan& span : spans) {
    if (!out.empty() && out.back().days.last + 1 == span.days.first &&
        out.back().state == span.state) {
      out.back().days.last = span.days.last;
    } else {
      out.push_back(span);
    }
  }
  return out;
}

/// Count of sorted values <= day.
std::int64_t count_le(const std::vector<Day>& sorted, Day day) noexcept {
  return std::upper_bound(sorted.begin(), sorted.end(), day) - sorted.begin();
}

/// Count of sorted values < day.
std::int64_t count_lt(const std::vector<Day>& sorted, Day day) noexcept {
  return std::lower_bound(sorted.begin(), sorted.end(), day) - sorted.begin();
}

}  // namespace

Snapshot::BuiltAsn Snapshot::build_asn_rows(
    asn::Asn asn, std::span<const lifetimes::AdminLifetime> admin,
    std::span<const lifetimes::OpLifetime> op, const SnapshotConfig& config) {
  const joint::AsnClassification cls = joint::classify_asn(admin, op);
  const joint::AsnSquatFlags squats =
      joint::flag_asn_squats(admin, op, cls, config.squat);

  BuiltAsn built;
  built.row.asn = asn;
  built.row.admin_count = static_cast<std::uint32_t>(admin.size());
  built.row.op_count = static_cast<std::uint32_t>(op.size());

  std::uint16_t flags = 0;
  if (!admin.empty()) flags |= kFlagEverAllocated;
  if (!op.empty()) flags |= kFlagEverActive;

  built.admin.reserve(admin.size());
  for (std::size_t a = 0; a < admin.size(); ++a) {
    built.admin.push_back(AdminLifeRow{admin[a], cls.admin_category[a]});
    if (admin[a].transferred) flags |= kFlagTransferred;
    switch (cls.admin_category[a]) {
      case joint::Category::kUnused: flags |= kFlagUnusedLife; break;
      case joint::Category::kPartialOverlap:
        flags |= kFlagPartialOverlap;
        break;
      case joint::Category::kCompleteOverlap:
        flags |= kFlagCompleteOverlap;
        break;
      case joint::Category::kOutsideDelegation: break;  // admin never is
    }
  }

  built.op.reserve(op.size());
  for (std::size_t o = 0; o < op.size(); ++o) {
    OpLifeRow row;
    row.life = op[o];
    row.category = cls.op_category[o];
    row.admin_index = static_cast<std::int32_t>(cls.op_to_admin[o]);
    row.dormant_squat = squats.dormant[o];
    row.outside_activity = squats.outside[o];
    if (row.dormant_squat) flags |= kFlagDormantSquat;
    if (row.outside_activity) flags |= kFlagOutsideActivity;
    built.op.push_back(row);
  }

  built.row.flags = flags;
  return built;
}

void Snapshot::append_built(BuiltAsn&& built) {
  if (built.admin.empty() && built.op.empty()) return;
  built.row.admin_begin = static_cast<std::uint32_t>(admin_rows_.size());
  built.row.op_begin = static_cast<std::uint32_t>(op_rows_.size());
  rows_.push_back(built.row);
  admin_rows_.insert(admin_rows_.end(), built.admin.begin(),
                     built.admin.end());
  op_rows_.insert(op_rows_.end(), built.op.begin(), built.op.end());
}

void Snapshot::assemble(const lifetimes::AdminDataset& admin,
                        const lifetimes::OpDataset& op) {
  rows_.clear();
  admin_rows_.clear();
  op_rows_.clear();

  struct Group {
    std::uint32_t asn;
    const std::vector<std::size_t>* admin_indices;
    const std::vector<std::size_t>* op_indices;
  };
  std::vector<Group> groups;
  groups.reserve(admin.by_asn.size() + op.by_asn.size());
  auto a_it = admin.by_asn.begin();
  auto o_it = op.by_asn.begin();
  while (a_it != admin.by_asn.end() || o_it != op.by_asn.end()) {
    if (o_it == op.by_asn.end() ||
        (a_it != admin.by_asn.end() && a_it->first < o_it->first)) {
      groups.push_back(Group{a_it->first, &a_it->second, nullptr});
      ++a_it;
    } else if (a_it == admin.by_asn.end() || o_it->first < a_it->first) {
      groups.push_back(Group{o_it->first, nullptr, &o_it->second});
      ++o_it;
    } else {
      groups.push_back(Group{a_it->first, &a_it->second, &o_it->second});
      ++a_it;
      ++o_it;
    }
  }

  const auto contiguous = [](const std::vector<std::size_t>& indices) {
    for (std::size_t i = 1; i < indices.size(); ++i)
      if (indices[i] != indices[0] + i) return false;
    return true;
  };

  // Per-ASN row construction is independent: build each group into its own
  // slot in parallel, then concatenate in ascending-ASN order (identical to
  // the serial loop — see DESIGN.md §8 on the slot-merge discipline).
  std::vector<BuiltAsn> slots(groups.size());
  exec::parallel_for(
      groups.size(),
      [&](std::size_t begin, std::size_t end) {
        std::vector<lifetimes::AdminLifetime> admin_scratch;
        std::vector<lifetimes::OpLifetime> op_scratch;
        for (std::size_t g = begin; g < end; ++g) {
          std::span<const lifetimes::AdminLifetime> admin_span;
          if (groups[g].admin_indices != nullptr) {
            const auto& indices = *groups[g].admin_indices;
            if (contiguous(indices)) {
              admin_span = {admin.lifetimes.data() + indices.front(),
                            indices.size()};
            } else {
              admin_scratch.clear();
              for (const std::size_t a : indices)
                admin_scratch.push_back(admin.lifetimes[a]);
              admin_span = admin_scratch;
            }
          }
          std::span<const lifetimes::OpLifetime> op_span;
          if (groups[g].op_indices != nullptr) {
            const auto& indices = *groups[g].op_indices;
            if (contiguous(indices)) {
              op_span = {op.lifetimes.data() + indices.front(),
                         indices.size()};
            } else {
              op_scratch.clear();
              for (const std::size_t o : indices)
                op_scratch.push_back(op.lifetimes[o]);
              op_span = op_scratch;
            }
          }
          slots[g] = build_asn_rows(asn::Asn{groups[g].asn}, admin_span,
                                    op_span, config_);
        }
      },
      /*grain=*/64);

  for (BuiltAsn& built : slots) append_built(std::move(built));

  PL_ASSERT_SORTED(rows_,
                   [](const AsnRow& a, const AsnRow& b) {
                     return a.asn < b.asn;
                   },
                   "snapshot rows after assemble()");
}

void Snapshot::rebuild_indexes() {
  for (auto& list : by_registry_) list.clear();
  by_country_.clear();
  admin_starts_.clear();
  admin_ends_.clear();
  op_starts_.clear();
  op_ends_.clear();
  admin_starts_.reserve(admin_rows_.size());
  admin_ends_.reserve(admin_rows_.size());
  op_starts_.reserve(op_rows_.size());
  op_ends_.reserve(op_rows_.size());

  for (std::uint32_t r = 0; r < rows_.size(); ++r) {
    const AsnRow& row = rows_[r];
    std::array<bool, asn::kRirCount> seen_registry{};
    std::set<asn::CountryCode> seen_country;
    for (const AdminLifeRow& life : admin_lives(row)) {
      admin_starts_.push_back(life.life.days.first);
      admin_ends_.push_back(life.life.days.last);
      const std::size_t rir = asn::index_of(life.life.registry);
      if (!seen_registry[rir]) {
        seen_registry[rir] = true;
        by_registry_[rir].push_back(r);
      }
      if (!life.life.country.unknown() &&
          seen_country.insert(life.life.country).second)
        by_country_[life.life.country].push_back(r);
    }
    for (const OpLifeRow& life : op_lives(row)) {
      op_starts_.push_back(life.life.days.first);
      op_ends_.push_back(life.life.days.last);
    }
  }
  std::sort(admin_starts_.begin(), admin_starts_.end());
  std::sort(admin_ends_.begin(), admin_ends_.end());
  std::sort(op_starts_.begin(), op_starts_.end());
  std::sort(op_ends_.begin(), op_ends_.end());
}

Snapshot Snapshot::build(const restore::RestoredArchive& archive,
                         const bgp::ActivityTable& activity,
                         util::Day archive_end, const SnapshotConfig& config) {
  PL_EXPECT(([&] {
              for (std::size_t r = 0; r < asn::kRirCount; ++r)
                if (archive.registries[r].rir != asn::kAllRirs[r])
                  return false;
              return true;
            })(),
            "Snapshot::build requires the canonical registry order "
            "(registries[i].rir == kAllRirs[i])");

  Snapshot snap;
  snap.config_ = config;
  snap.archive_end_ = archive_end;

  const lifetimes::AdminDataset admin =
      lifetimes::build_admin_lifetimes(archive, archive_end, config.admin);
  const lifetimes::OpDataset op =
      lifetimes::build_op_lifetimes(activity, config.op_timeout_days);
  snap.assemble(admin, op);
  snap.rebuild_indexes();

  if (config.keep_working_set) {
    WorkingSet working;
    for (std::size_t r = 0; r < asn::kRirCount; ++r)
      for (const auto& [asn_value, spans] : archive.registries[r].spans)
        working.spans[r].emplace(asn_value, canonicalize(spans));
    working.first_observed = lifetimes::registry_first_observed(archive);
    working.activity = activity;
    for (const AsnRow& row : snap.rows_)
      for (const AdminLifeRow& life : snap.admin_lives(row))
        if (life.life.open_ended) {
          working.open_asns.insert(row.asn.value);
          break;
        }
    snap.working_ = std::move(working);
  }
  return snap;
}

Snapshot Snapshot::from_datasets(lifetimes::AdminDataset admin,
                                 lifetimes::OpDataset op,
                                 const SnapshotConfig& config) {
  Snapshot snap;
  snap.config_ = config;
  snap.config_.keep_working_set = false;

  admin.index();
  if (op.by_asn.empty() && !op.lifetimes.empty()) {
    std::sort(op.lifetimes.begin(), op.lifetimes.end(),
              [](const lifetimes::OpLifetime& a,
                 const lifetimes::OpLifetime& b) {
                if (a.asn != b.asn) return a.asn < b.asn;
                return a.days.first < b.days.first;
              });
    for (std::size_t i = 0; i < op.lifetimes.size(); ++i)
      op.by_asn[op.lifetimes[i].asn.value].push_back(i);
  }

  util::Day end = admin.archive_end;
  for (const lifetimes::AdminLifetime& life : admin.lifetimes)
    end = std::max(end, life.days.last);
  for (const lifetimes::OpLifetime& life : op.lifetimes)
    end = std::max(end, life.days.last);
  snap.archive_end_ = end;

  snap.assemble(admin, op);
  snap.rebuild_indexes();
  return snap;
}

const AsnRow* Snapshot::find(asn::Asn asn) const noexcept {
  const auto it = std::lower_bound(
      rows_.begin(), rows_.end(), asn,
      [](const AsnRow& row, asn::Asn key) { return row.asn < key; });
  if (it == rows_.end() || it->asn != asn) return nullptr;
  return &*it;
}

bool Snapshot::admin_alive_on(const AsnRow& row, util::Day day) const noexcept {
  for (const AdminLifeRow& life : admin_lives(row))
    if (life.life.days.contains(day)) return true;
  return false;
}

bool Snapshot::op_alive_on(const AsnRow& row, util::Day day) const noexcept {
  for (const OpLifeRow& life : op_lives(row))
    if (life.life.days.contains(day)) return true;
  return false;
}

AliveCensus Snapshot::alive_census(util::Day day) const noexcept {
  // Lives covering `day` = lives started by `day` minus lives ended before
  // it; both counts are O(log n) over the sorted event arrays.
  AliveCensus census;
  census.admin_alive = count_le(admin_starts_, day) - count_lt(admin_ends_, day);
  census.op_alive = count_le(op_starts_, day) - count_lt(op_ends_, day);
  return census;
}

pl::Status Snapshot::advance_day(const DayDelta& delta, AdvanceStats* stats) {
  if (!working_)
    return pl::failed_precondition_error(
        "snapshot has no working set (built from datasets, not from a "
        "restored archive); advance_day needs Snapshot::build output");
  if (delta.day != archive_end_ + 1)
    return pl::invalid_argument_error(
        "advance_day expects day " + util::format_iso(archive_end_ + 1) +
        ", got " + util::format_iso(delta.day));

  // Validate before mutating so a rejected delta leaves the snapshot
  // untouched: at most one fact per (registry, ASN).
  {
    std::set<std::pair<std::size_t, std::uint32_t>> seen;
    for (const DelegationFact& fact : delta.delegation)
      if (!seen.emplace(asn::index_of(fact.registry), fact.asn.value).second)
        return pl::invalid_argument_error(
            "duplicate delegation fact for AS" + asn::to_string(fact.asn) +
            " in one registry on " + util::format_iso(delta.day));
  }

  WorkingSet& working = *working_;

  // ASNs needing admin recomputation: everything open-ended under the old
  // archive end (their open_ended bit — and possibly their last life's end
  // — depends on the moving end) plus everything with a delegated fact
  // today. Ops: everything active today. All other ASNs' rows are
  // unchanged by construction.
  std::set<std::uint32_t> touched_admin = working.open_asns;
  std::set<std::uint32_t> touched_op;

  for (const DelegationFact& fact : delta.delegation) {
    const std::size_t r = asn::index_of(fact.registry);
    auto& fo = working.first_observed[r];
    if (!fo) fo = delta.day;  // registry's first published day
    std::vector<StateSpan>& spans = working.spans[r][fact.asn.value];
    if (!spans.empty() && spans.back().days.last == delta.day - 1 &&
        spans.back().state == fact.state) {
      spans.back().days.last = delta.day;  // state unchanged: extend the run
    } else {
      spans.push_back(
          StateSpan{util::DayInterval{delta.day, delta.day}, fact.state});
    }
    if (dele::is_delegated(fact.state.status))
      touched_admin.insert(fact.asn.value);
  }

  for (const asn::Asn active : delta.active) {
    working.activity.mark_active(active, delta.day);
    touched_op.insert(active.value);
  }

  archive_end_ = delta.day;

  if (stats != nullptr) {
    stats->facts = static_cast<std::int64_t>(delta.delegation.size());
    stats->active = static_cast<std::int64_t>(delta.active.size());
    stats->touched_admin = static_cast<std::int64_t>(touched_admin.size());
    stats->touched_op = static_cast<std::int64_t>(touched_op.size());
  }

  // Rebuild the serving rows: untouched ASNs' rows are copied verbatim
  // (only begin offsets move); touched ASNs re-run the per-ASN builders —
  // the same code the full build path runs, which is what makes the
  // advance bit-identical to a rebuild.
  std::set<std::uint32_t> touched = touched_admin;
  touched.insert(touched_op.begin(), touched_op.end());

  std::vector<AsnRow> old_rows;
  std::vector<AdminLifeRow> old_admin;
  std::vector<OpLifeRow> old_op;
  old_rows.swap(rows_);
  old_admin.swap(admin_rows_);
  old_op.swap(op_rows_);
  rows_.reserve(old_rows.size() + touched.size());
  admin_rows_.reserve(old_admin.size());
  op_rows_.reserve(old_op.size());

  std::int64_t reclassified = 0;
  auto row_it = old_rows.begin();
  auto touched_it = touched.begin();
  while (row_it != old_rows.end() || touched_it != touched.end()) {
    if (touched_it == touched.end() ||
        (row_it != old_rows.end() && row_it->asn.value < *touched_it)) {
      // Untouched: copy the row and its lives, fixing offsets.
      AsnRow row = *row_it++;
      const std::uint32_t admin_begin = row.admin_begin;
      const std::uint32_t op_begin = row.op_begin;
      row.admin_begin = static_cast<std::uint32_t>(admin_rows_.size());
      row.op_begin = static_cast<std::uint32_t>(op_rows_.size());
      admin_rows_.insert(admin_rows_.end(), old_admin.begin() + admin_begin,
                         old_admin.begin() + admin_begin + row.admin_count);
      op_rows_.insert(op_rows_.end(), old_op.begin() + op_begin,
                      old_op.begin() + op_begin + row.op_count);
      rows_.push_back(row);
      continue;
    }

    const std::uint32_t asn_value = *touched_it++;
    const AsnRow* old_row =
        (row_it != old_rows.end() && row_it->asn.value == asn_value)
            ? &*row_it
            : nullptr;

    std::vector<lifetimes::AdminLifetime> admin_lifetimes;
    if (touched_admin.contains(asn_value)) {
      lifetimes::AsnSpansByRegistry span_lists{};
      bool any = false;
      for (std::size_t r = 0; r < asn::kRirCount; ++r) {
        const auto it = working.spans[r].find(asn_value);
        if (it != working.spans[r].end()) {
          span_lists[r] = &it->second;
          any = true;
        }
      }
      if (any)
        admin_lifetimes = lifetimes::build_asn_admin_lifetimes(
            asn_value, span_lists, working.first_observed, archive_end_,
            config_.admin);
    } else if (old_row != nullptr) {
      for (std::uint32_t a = 0; a < old_row->admin_count; ++a)
        admin_lifetimes.push_back(
            old_admin[old_row->admin_begin + a].life);
    }

    std::vector<lifetimes::OpLifetime> op_lifetimes;
    if (touched_op.contains(asn_value)) {
      const util::IntervalSet* activity =
          working.activity.activity(asn::Asn{asn_value});
      if (activity != nullptr)
        for (const util::DayInterval& days :
             activity->coalesce(config_.op_timeout_days))
          op_lifetimes.push_back(
              lifetimes::OpLifetime{asn::Asn{asn_value}, days});
    } else if (old_row != nullptr) {
      for (std::uint32_t o = 0; o < old_row->op_count; ++o)
        op_lifetimes.push_back(old_op[old_row->op_begin + o].life);
    }

    if (old_row != nullptr) ++row_it;

    if (touched_admin.contains(asn_value)) {
      const bool open = std::any_of(
          admin_lifetimes.begin(), admin_lifetimes.end(),
          [](const lifetimes::AdminLifetime& life) { return life.open_ended; });
      if (open)
        working.open_asns.insert(asn_value);
      else
        working.open_asns.erase(asn_value);
    }

    if (admin_lifetimes.empty() && op_lifetimes.empty()) continue;
    append_built(
        build_asn_rows(asn::Asn{asn_value}, admin_lifetimes, op_lifetimes,
                       config_));
    ++reclassified;
  }

  if (stats != nullptr) stats->reclassified = reclassified;
  rebuild_indexes();
  return {};
}

bool operator==(const Snapshot& a, const Snapshot& b) {
  if (!(a.rows_ == b.rows_ && a.admin_rows_ == b.admin_rows_ &&
        a.op_rows_ == b.op_rows_ && a.archive_end_ == b.archive_end_ &&
        a.config_ == b.config_ && a.by_registry_ == b.by_registry_ &&
        a.by_country_ == b.by_country_ &&
        a.admin_starts_ == b.admin_starts_ &&
        a.admin_ends_ == b.admin_ends_ && a.op_starts_ == b.op_starts_ &&
        a.op_ends_ == b.op_ends_))
    return false;
  if (a.working_.has_value() != b.working_.has_value()) return false;
  if (!a.working_.has_value()) return true;
  const Snapshot::WorkingSet& wa = *a.working_;
  const Snapshot::WorkingSet& wb = *b.working_;
  return wa.spans == wb.spans && wa.first_observed == wb.first_observed &&
         wa.activity.entries() == wb.activity.entries() &&
         wa.open_asns == wb.open_asns;
}

void record_metrics(const Snapshot& snapshot, obs::Registry& metrics) {
  metrics.gauge("pl_serve_snapshot_asns")
      .set(static_cast<std::int64_t>(snapshot.asn_count()));
  metrics.gauge("pl_serve_snapshot_admin_lives")
      .set(static_cast<std::int64_t>(snapshot.admin_life_count()));
  metrics.gauge("pl_serve_snapshot_op_lives")
      .set(static_cast<std::int64_t>(snapshot.op_life_count()));
  metrics.gauge("pl_serve_archive_end")
      .set(static_cast<std::int64_t>(snapshot.archive_end()));
}

}  // namespace pl::serve
