#include "serve/snapshot.hpp"

#include <algorithm>
#include <set>
#include <utility>

#include "check/contracts.hpp"
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
/// 4.1 rules either way), so deriving from the working set gives the
/// pipeline's lives (`Snapshot.AgreesWithPipelineDatasets` locks this).
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

void Snapshot::append_asn_rows(
    asn::Asn asn, std::span<const lifetimes::AdminLifetime> admin,
    std::span<const lifetimes::OpLifetime> op) {
  if (admin.empty() && op.empty()) return;
  const joint::AsnClassification cls = joint::classify_asn(admin, op);
  const joint::AsnSquatFlags squats =
      joint::flag_asn_squats(admin, op, cls, config_.squat);

  AsnRow row;
  row.asn = asn;
  row.admin_begin = static_cast<std::uint32_t>(admin_rows_.size());
  row.op_begin = static_cast<std::uint32_t>(op_rows_.size());
  row.admin_count = static_cast<std::uint32_t>(admin.size());
  row.op_count = static_cast<std::uint32_t>(op.size());

  std::uint16_t flags = 0;
  if (!admin.empty()) flags |= kFlagEverAllocated;
  if (!op.empty()) flags |= kFlagEverActive;

  for (std::size_t a = 0; a < admin.size(); ++a) {
    admin_rows_.push_back(AdminLifeRow{admin[a], cls.admin_category[a]});
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

  for (std::size_t o = 0; o < op.size(); ++o) {
    OpLifeRow life;
    life.life = op[o];
    life.category = cls.op_category[o];
    life.admin_index = static_cast<std::int32_t>(cls.op_to_admin[o]);
    life.dormant_squat = squats.dormant[o];
    life.outside_activity = squats.outside[o];
    if (life.dormant_squat) flags |= kFlagDormantSquat;
    if (life.outside_activity) flags |= kFlagOutsideActivity;
    op_rows_.push_back(life);
  }

  row.flags = flags;
  rows_.push_back(row);
}

void Snapshot::assemble(std::span<const lifetimes::AdminLifetime> admin,
                        std::span<const lifetimes::OpLifetime> op) {
  rows_.clear();
  admin_rows_.clear();
  op_rows_.clear();

  // Both life lists are sorted by (asn, start), so each ASN's lives are one
  // contiguous run in each: merge-walk them and append each ASN's rows.
  for (std::size_t a = 0, o = 0; a < admin.size() || o < op.size();) {
    const asn::Asn asn =
        o == op.size() || (a < admin.size() && admin[a].asn < op[o].asn)
            ? admin[a].asn
            : op[o].asn;
    const std::size_t a_begin = a;
    const std::size_t o_begin = o;
    while (a < admin.size() && admin[a].asn == asn) ++a;
    while (o < op.size() && op[o].asn == asn) ++o;
    append_asn_rows(asn, admin.subspan(a_begin, a - a_begin),
                    op.subspan(o_begin, o - o_begin));
  }

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
  WorkingSet& working = snap.working_.emplace();
  for (std::size_t r = 0; r < asn::kRirCount; ++r)
    for (const auto& [asn_value, spans] : archive.registries[r].spans)
      working.spans[r].emplace_hint(working.spans[r].end(), asn_value,
                                    canonicalize(spans));
  working.first_observed = lifetimes::registry_first_observed(archive);
  working.activity = activity;
  snap.derive();
  return snap;
}

void Snapshot::derive(AdvanceStats* stats) {
  const WorkingSet& working = *working_;
  lifetimes::RegistrySpanMaps spans;
  for (std::size_t r = 0; r < asn::kRirCount; ++r)
    spans[r] = &working.spans[r];
  assemble(lifetimes::build_admin_lifetimes(spans, working.first_observed,
                                            archive_end_, config_.admin),
           lifetimes::coalesce_activity(working.activity,
                                        config_.op_timeout_days));
  rebuild_indexes();
  if (stats != nullptr) {
    stats->touched_admin = std::count_if(
        rows_.begin(), rows_.end(),
        [](const AsnRow& row) { return row.admin_count > 0; });
    stats->touched_op = std::count_if(
        rows_.begin(), rows_.end(),
        [](const AsnRow& row) { return row.op_count > 0; });
  }
}

Snapshot Snapshot::from_datasets(lifetimes::AdminDataset admin,
                                 lifetimes::OpDataset op,
                                 const SnapshotConfig& config) {
  Snapshot snap;
  snap.config_ = config;

  const auto by_asn_then_start = [](const auto& a, const auto& b) {
    if (a.asn != b.asn) return a.asn < b.asn;
    return a.days.first < b.days.first;
  };
  std::sort(admin.lifetimes.begin(), admin.lifetimes.end(), by_asn_then_start);
  std::sort(op.lifetimes.begin(), op.lifetimes.end(), by_asn_then_start);

  util::Day end = admin.archive_end;
  for (const lifetimes::AdminLifetime& life : admin.lifetimes)
    end = std::max(end, life.days.last);
  for (const lifetimes::OpLifetime& life : op.lifetimes)
    end = std::max(end, life.days.last);
  snap.archive_end_ = end;

  snap.assemble(admin.lifetimes, op.lifetimes);
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
  }
  for (const asn::Asn active : delta.active)
    working.activity.mark_active(active, delta.day);
  archive_end_ = delta.day;

  if (stats != nullptr) {
    stats->facts = static_cast<std::int64_t>(delta.delegation.size());
    stats->active = static_cast<std::int64_t>(delta.active.size());
  }
  derive(stats);
  return {};
}

pl::Status Snapshot::check_cut(util::Day day) const {
  if (!working_)
    return pl::failed_precondition_error(
        "snapshot has no working set (built from datasets); a past day is "
        "a cut of the working set");
  if (day > archive_end_)
    return pl::invalid_argument_error(
        "cannot cut at " + util::format_iso(day) + ", after the archive end " +
        util::format_iso(archive_end_));
  return {};
}

pl::StatusOr<Snapshot> Snapshot::at(util::Day day, CutStats* stats) const {
  if (pl::Status status = check_cut(day); !status.ok()) return status;
  // The cut spans stay canonical and their earliest start per registry is
  // the anchor build() would take from the truncated world.
  Snapshot snap;
  snap.config_ = config_;
  snap.archive_end_ = day;
  WorkingSet& cut = snap.working_.emplace();
  std::int64_t spans = 0;
  for (std::size_t r = 0; r < asn::kRirCount; ++r) {
    auto& out = cut.spans[r];
    for (const auto& [asn_value, list] : working_->spans[r]) {
      std::vector<StateSpan> clipped = restore::clip_spans(list, day);
      if (clipped.empty()) continue;
      spans += static_cast<std::int64_t>(clipped.size());
      auto& first = cut.first_observed[r];
      first = std::min(first.value_or(day), clipped.front().days.first);
      out.emplace_hint(out.end(), asn_value, std::move(clipped));
    }
  }
  cut.activity = working_->activity.clipped(day);
  snap.derive();
  if (stats != nullptr) {
    stats->asns = static_cast<std::int64_t>(snap.asn_count());
    stats->spans = spans;
  }
  return snap;
}

pl::StatusOr<Snapshot> Snapshot::at(util::Day day,
                                    std::span<const asn::Asn> asns,
                                    CutStats* stats) const {
  if (pl::Status status = check_cut(day); !status.ok()) return status;
  const WorkingSet& working = *working_;
  std::vector<std::uint32_t> keys;
  keys.reserve(asns.size());
  for (const asn::Asn asn : asns) keys.push_back(asn.value);
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());

  Snapshot snap;
  snap.config_ = config_;
  snap.archive_end_ = day;
  std::int64_t spans = 0;
  for (const std::uint32_t asn_value : keys) {
    std::array<std::vector<StateSpan>, asn::kRirCount> clipped;
    lifetimes::AsnSpansByRegistry span_lists{};
    bool any = false;
    for (std::size_t r = 0; r < asn::kRirCount; ++r) {
      const auto it = working.spans[r].find(asn_value);
      if (it == working.spans[r].end()) continue;
      clipped[r] = restore::clip_spans(it->second, day);
      if (clipped[r].empty()) continue;
      spans += static_cast<std::int64_t>(clipped[r].size());
      span_lists[r] = &clipped[r];
      any = true;
    }
    // The live backdating anchors need no cut: one is read only for a
    // registry where this ASN has a span starting by `day`, and then the
    // anchor, that registry's earliest span start, is by `day` too.
    std::vector<lifetimes::AdminLifetime> admin;
    if (any)
      admin = lifetimes::build_asn_admin_lifetimes(
          asn_value, span_lists, working.first_observed, day, config_.admin);
    std::vector<lifetimes::OpLifetime> op;
    if (const util::IntervalSet* activity =
            working.activity.activity(asn::Asn{asn_value}))
      for (const util::DayInterval& life :
           activity->clipped(day).coalesce(config_.op_timeout_days))
        op.push_back(lifetimes::OpLifetime{asn::Asn{asn_value}, life});
    snap.append_asn_rows(asn::Asn{asn_value}, admin, op);
  }
  snap.rebuild_indexes();
  if (stats != nullptr) {
    stats->asns = static_cast<std::int64_t>(snap.asn_count());
    stats->spans = spans;
  }
  return snap;
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
         wa.activity.entries() == wb.activity.entries();
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
