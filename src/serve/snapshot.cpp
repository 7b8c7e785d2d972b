#include "serve/snapshot.hpp"

#include <algorithm>
#include <functional>
#include <utility>

#include "check/contracts.hpp"
#include "util/date.hpp"
#include "util/interval_set.hpp"

namespace pl::serve {

namespace {

using restore::StateSpan;
using util::Day;

/// Count of sorted values <= day.
std::int64_t count_le(const std::vector<Day>& sorted, Day day) noexcept {
  return std::upper_bound(sorted.begin(), sorted.end(), day) - sorted.begin();
}

/// Count of sorted values < day.
std::int64_t count_lt(const std::vector<Day>& sorted, Day day) noexcept {
  return std::lower_bound(sorted.begin(), sorted.end(), day) - sorted.begin();
}

/// Sort days ascending in linear time: an LSD radix sort, four stable 8-bit
/// passes over the day biased to unsigned (so negative days order first),
/// with `buffer` as the other half of each pass. A pass whose digit is the
/// same for every day would move nothing, so it is skipped. Sorted ints
/// have one order, so the result equals std::sort's.
void radix_sort(std::vector<Day>& days, std::vector<Day>& buffer) {
  if (days.empty()) return;
  constexpr int kPasses = 4;
  const auto digit = [](Day day, int pass) {
    return ((static_cast<std::uint32_t>(day) ^ 0x80000000u) >> (8 * pass)) &
           0xFFu;
  };
  std::array<std::array<std::uint32_t, 256>, kPasses> offsets{};
  for (const Day day : days)
    for (int pass = 0; pass < kPasses; ++pass) ++offsets[pass][digit(day, pass)];
  buffer.resize(days.size());
  for (int pass = 0; pass < kPasses; ++pass) {
    std::array<std::uint32_t, 256>& offset = offsets[pass];
    if (offset[digit(days.front(), pass)] == days.size()) continue;
    std::uint32_t next = 0;
    for (std::uint32_t& slot : offset) next += std::exchange(slot, next);
    for (const Day day : days) buffer[offset[digit(day, pass)]++] = day;
    days.swap(buffer);
  }
}

/// The (registry, ASN) key of a fact: registry-major, so a delta in
/// slice_day's order gives an ascending key list.
std::uint64_t fact_key(const DelegationFact& fact) noexcept {
  return (std::uint64_t{asn::index_of(fact.registry)} << 32) | fact.asn.value;
}

/// A span's day interval, for the flat tables' clip.
constexpr auto span_days = [](auto& span) -> auto& { return span.days; };
/// A run is its own day interval.
constexpr auto run_days = [](auto& run) -> auto& { return run; };

/// Fold one registry's facts for `day` (ascending ASNs, one per ASN) into
/// its span table: a fact that continues the ASN's trailing span extends it
/// in place; the rest become edits merged in one pass. An ASN whose
/// trailing span reached the day before and got no fact has vanished from
/// the registry's file. The ASNs of edits and vanishings are appended to
/// `rederive`. Returns how many facts opened a new span.
std::int64_t apply_facts(std::span<const DelegationFact> facts, util::Day day,
                         restore::SpanTable& table,
                         std::vector<std::uint32_t>& rederive) {
  std::vector<util::FlatEdit<StateSpan>> edits;
  std::size_t at = 0;
  const auto pass_to = [&](std::uint64_t key) {  // keys before `key` got none
    for (; at < table.size() && table.keys[at] < key; ++at)
      if (table.values[table.end_of(at) - 1].days.last == day - 1)
        rederive.push_back(table.keys[at]);
  };
  for (const DelegationFact& fact : facts) {
    const StateSpan today{util::DayInterval{day, day}, fact.state};
    pass_to(fact.asn.value);
    if (at == table.size() || table.keys[at] != fact.asn.value) {
      edits.push_back({fact.asn.value, {today}});  // the registry's new ASN
      continue;
    }
    const std::span<StateSpan> spans = table.row(at++);
    StateSpan& last = spans.back();
    if (last.days.last == day - 1 && last.state == fact.state) {
      last.days.last = day;  // state unchanged: extend the run
      continue;
    }
    edits.push_back({fact.asn.value, {spans.begin(), spans.end()}});
    edits.back().values.push_back(today);
  }
  pass_to(std::uint64_t{1} << 32);
  table.replace(edits);
  for (const util::FlatEdit<StateSpan>& edit : edits)
    rederive.push_back(edit.key);
  return static_cast<std::int64_t>(edits.size());
}

/// Mark `active` (ascending, no repeats) active on `day`: a run ending the
/// day before is extended in place and its ASN appended to `extended`; the
/// rest become edits merged in one pass, their ASNs appended to `rederive`.
/// Returns how many ASNs opened a new run.
std::int64_t apply_active(std::span<const asn::Asn> active, util::Day day,
                          lifetimes::RunTable& table,
                          std::vector<std::uint32_t>& rederive,
                          std::vector<std::uint32_t>& extended) {
  std::vector<util::FlatEdit<util::DayInterval>> edits;
  std::size_t at = 0;
  for (const asn::Asn asn : active) {
    at = table.lower_bound(asn.value, at);
    if (at == table.size() || table.keys[at] != asn.value) {
      edits.push_back({asn.value, {util::DayInterval{day, day}}});
      continue;
    }
    const std::span<util::DayInterval> runs = table.row(at);
    if (runs.back().last + 1 == day) {
      runs.back().last = day;  // active the day before: extend the run
      extended.push_back(asn.value);
      continue;
    }
    // A new run — or, for a day the runs already reach, their union.
    util::IntervalSet days({runs.begin(), runs.end()});
    days.add(day);
    if (std::ranges::equal(days.runs(), runs)) continue;
    edits.push_back({asn.value, days.runs()});
  }
  table.replace(edits);
  for (const util::FlatEdit<util::DayInterval>& edit : edits)
    rederive.push_back(edit.key);
  return static_cast<std::int64_t>(edits.size());
}

/// Take `removed` (each present) out of the sorted `days` and put `added`
/// in, as one splice. A day both removed and added stays where it is.
void patch_sorted(std::vector<Day>& days, std::vector<Day>& removed,
                  std::vector<Day>& added) {
  std::sort(removed.begin(), removed.end());
  std::sort(added.begin(), added.end());
  // Drop the days both lists hold: a re-derived life mostly keeps its days.
  std::size_t kept_removed = 0;
  std::size_t kept_added = 0;
  for (std::size_t r = 0, a = 0; r < removed.size() || a < added.size();) {
    if (a == added.size() || (r < removed.size() && removed[r] < added[a]))
      removed[kept_removed++] = removed[r++];
    else if (r == removed.size() || added[a] < removed[r])
      added[kept_added++] = added[a++];
    else
      ++r, ++a;
  }
  removed.resize(kept_removed);
  added.resize(kept_added);
  if (removed.empty() && added.empty()) return;
  std::vector<util::SpliceRun> runs;
  std::size_t next = 0;  // the first day not placed yet
  const auto keep_to = [&](std::size_t to) {
    if (to > next) runs.push_back({false, next, to - next});
    next = to;
  };
  const auto position = [&](auto bound, Day day) {
    return static_cast<std::size_t>(
        bound(days.begin() + static_cast<std::ptrdiff_t>(next), days.end(),
              day) -
        days.begin());
  };
  // A day's removals go before its additions, so an addition never lands
  // in front of a copy that is removed after it.
  for (std::size_t r = 0, a = 0; r < removed.size() || a < added.size();) {
    if (r < removed.size() && (a == added.size() || removed[r] <= added[a])) {
      keep_to(position(std::ranges::lower_bound, removed[r++]));
      ++next;
    } else {
      keep_to(position(std::ranges::upper_bound, added[a]));
      if (!runs.empty() && runs.back().fresh &&
          runs.back().from + runs.back().count == a)
        ++runs.back().count;
      else
        runs.push_back({true, a, 1});
      ++a;
    }
  }
  keep_to(days.size());
  util::splice<Day>(days, runs, added);
}

/// Calls `on_registry(index)` for each registry among one ASN's admin lives
/// and `on_country(code)` for each known country, once each, in life order
/// — the ASN's entries in the per-registry and per-country row lists.
template <typename OnRegistry, typename OnCountry>
void for_each_index_key(std::span<const AdminLifeRow> lives,
                        OnRegistry&& on_registry, OnCountry&& on_country) {
  std::array<bool, asn::kRirCount> seen_registry{};
  for (std::size_t i = 0; i < lives.size(); ++i) {
    const lifetimes::AdminLifetime& life = lives[i].life;
    const std::size_t rir = asn::index_of(life.registry);
    if (!seen_registry[rir]) {
      seen_registry[rir] = true;
      on_registry(rir);
    }
    // An ASN has a handful of lives: its row joins a country's list the
    // first time one of them names it.
    if (life.country.unknown() ||
        std::any_of(lives.begin(),
                    lives.begin() + static_cast<std::ptrdiff_t>(i),
                    [&](const AdminLifeRow& earlier) {
                      return earlier.life.country == life.country;
                    }))
      continue;
    on_country(life.country);
  }
}

/// A row the splice drops, in the old-to-new row map.
constexpr std::uint32_t kDroppedRow = ~std::uint32_t{0};

/// Rewrite an ascending list of old row indices as new ones through
/// `new_row`, dropping the rows it drops (the re-derived ASNs').
void remap_rows(std::vector<std::uint32_t>& list,
                std::span<const std::uint32_t> new_row) {
  std::size_t kept = 0;
  for (const std::uint32_t row : list)
    if (new_row[row] != kDroppedRow) list[kept++] = new_row[row];
  list.resize(kept);
}

/// Merge the ascending row indices `added` into the ascending `list`, in
/// place from the back.
void merge_rows(std::vector<std::uint32_t>& list,
                std::span<const std::uint32_t> added) {
  std::size_t i = list.size();
  std::size_t j = added.size();
  list.resize(i + j);
  for (std::size_t out = list.size(); j > 0;)
    list[--out] = i > 0 && list[i - 1] > added[j - 1] ? list[--i] : added[--j];
}

}  // namespace

void Snapshot::append_asn_rows(
    asn::Asn asn, std::span<const lifetimes::AdminLifetime> admin,
    std::span<const lifetimes::OpLifetime> op, joint::AsnClassification& cls,
    joint::AsnSquatFlags& squats) {
  if (admin.empty() && op.empty()) return;
  joint::classify_asn(admin, op, cls);
  joint::flag_asn_squats(admin, op, cls, config_.squat, squats);

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
  admin_rows_.reserve(admin.size());
  op_rows_.reserve(op.size());

  joint::AsnClassification cls;
  joint::AsnSquatFlags squats;
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
                    op.subspan(o_begin, o - o_begin), cls, squats);
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

  // Country lists gather through a table indexed by the packed code, not a
  // tree walk per row, and move into the map in code order at the end.
  std::vector<std::uint32_t> country_slot(std::size_t{1} << 16);  // 1 + index
  std::vector<std::pair<asn::CountryCode, std::vector<std::uint32_t>>>
      country_rows;
  for (std::uint32_t r = 0; r < rows_.size(); ++r) {
    const AsnRow& row = rows_[r];
    for (const AdminLifeRow& life : admin_lives(row)) {
      admin_starts_.push_back(life.life.days.first);
      admin_ends_.push_back(life.life.days.last);
    }
    for (const OpLifeRow& life : op_lives(row)) {
      op_starts_.push_back(life.life.days.first);
      op_ends_.push_back(life.life.days.last);
    }
    for_each_index_key(
        admin_lives(row),
        [&](std::size_t rir) { by_registry_[rir].push_back(r); },
        [&](asn::CountryCode country) {
          std::uint32_t& slot = country_slot[country.packed()];
          if (slot == 0) {
            country_rows.emplace_back(country, std::vector<std::uint32_t>{});
            slot = static_cast<std::uint32_t>(country_rows.size());
          }
          country_rows[slot - 1].second.push_back(r);
        });
  }
  std::sort(country_rows.begin(), country_rows.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  for (auto& [country, list] : country_rows)
    by_country_.emplace_hint(by_country_.end(), country, std::move(list));
  std::vector<Day> buffer;
  for (std::vector<Day>* days :
       {&admin_starts_, &admin_ends_, &op_starts_, &op_ends_})
    radix_sort(*days, buffer);
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
  working.spans = lifetimes::flatten_spans(archive);
  working.first_observed = lifetimes::registry_first_observed(archive);
  working.activity = lifetimes::flatten_activity(activity);
  snap.derive();
  return snap;
}

void Snapshot::derive() {
  {  // the life lists die before the index rebuild, keeping the peak low
    const WorkingSet& working = *working_;
    const std::vector<lifetimes::AdminLifetime> admin =
        lifetimes::build_admin_lifetimes(working.spans, working.first_observed,
                                         archive_end_, config_.admin);
    const std::vector<lifetimes::OpLifetime> op =
        lifetimes::coalesce_activity(working.activity,
                                     config_.op_timeout_days);
    assemble(admin, op);
  }
  rebuild_indexes();
}

Snapshot Snapshot::from_datasets(lifetimes::AdminDataset admin,
                                 lifetimes::OpDataset op,
                                 const SnapshotConfig& config) {
  Snapshot snap;
  snap.config_ = config;

  PL_EXPECT(std::is_sorted(admin.lifetimes.begin(), admin.lifetimes.end(),
                           lifetimes::AsnStartOrder{}) &&
                std::is_sorted(op.lifetimes.begin(), op.lifetimes.end(),
                               lifetimes::AsnStartOrder{}),
            "from_datasets() requires both datasets sorted by (asn, start), "
            "as the builders and the JSON loaders leave them");

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

pl::Status Snapshot::advance_day(const DayDelta& delta, AdvanceStats* stats,
                                 obs::Span* span) {
  if (!working_)
    return pl::failed_precondition_error(
        "snapshot has no working set (built from datasets, not from a "
        "restored archive); advance_day needs Snapshot::build output");
  if (delta.day != archive_end_ + 1)
    return pl::invalid_argument_error(
        "advance_day expects day " + util::format_iso(archive_end_ + 1) +
        ", got " + util::format_iso(delta.day));

  obs::Span apply_span = obs::child_of(span, "apply");
  // Validate before mutating so a rejected delta leaves the snapshot
  // untouched: at most one fact per (registry, ASN). The facts in that
  // order drive the merge below; slice_day's order already is, and
  // strictly ascending keys repeat none, so that takes one pass.
  std::span<const DelegationFact> facts = delta.delegation;
  std::vector<DelegationFact> sorted_facts;  // only for a delta out of order
  const auto out_of_order = [](const DelegationFact& a,
                               const DelegationFact& b) {
    return fact_key(a) >= fact_key(b);
  };
  if (std::adjacent_find(facts.begin(), facts.end(), out_of_order) !=
      facts.end()) {
    sorted_facts.assign(facts.begin(), facts.end());
    std::sort(sorted_facts.begin(), sorted_facts.end(),
              [](const DelegationFact& a, const DelegationFact& b) {
                return fact_key(a) < fact_key(b);
              });
    facts = sorted_facts;
    const auto duplicate = std::adjacent_find(
        facts.begin(), facts.end(),
        [](const DelegationFact& a, const DelegationFact& b) {
          return fact_key(a) == fact_key(b);
        });
    if (duplicate != facts.end())
      return pl::invalid_argument_error(
          "duplicate delegation fact for AS" + asn::to_string(duplicate->asn) +
          " in one registry on " + util::format_iso(delta.day));
  }

  WorkingSet& working = *working_;
  // The ASNs whose rows the day can change in more than their open end.
  std::vector<std::uint32_t> rederive;
  std::vector<std::uint32_t> extended_runs;
  extended_runs.reserve(delta.active.size());
  std::int64_t inserted_spans = 0;
  for (std::size_t r = 0, f = 0; r < asn::kRirCount; ++r) {
    const std::size_t begin = f;
    while (f < facts.size() && asn::index_of(facts[f].registry) == r) ++f;
    auto& first = working.first_observed[r];
    if (f > begin && !first) first = delta.day;  // first published day
    inserted_spans += apply_facts(facts.subspan(begin, f - begin), delta.day,
                                  working.spans[r], rederive);
  }
  std::span<const asn::Asn> active = delta.active;
  std::vector<asn::Asn> sorted;  // only for a delta out of slice_day's order
  if (std::adjacent_find(active.begin(), active.end(),
                         std::greater_equal<>{}) != active.end()) {
    sorted.assign(active.begin(), active.end());
    std::sort(sorted.begin(), sorted.end());
    sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());
    active = sorted;
  }
  const std::int64_t inserted_runs = apply_active(
      active, delta.day, working.activity, rederive, extended_runs);
  std::sort(rederive.begin(), rederive.end());
  rederive.erase(std::unique(rederive.begin(), rederive.end()),
                 rederive.end());
  archive_end_ = delta.day;
  apply_span.note("facts", static_cast<std::int64_t>(delta.delegation.size()));
  apply_span.note("active", static_cast<std::int64_t>(delta.active.size()));
  apply_span.note("inserted_spans", inserted_spans);
  apply_span.note("inserted_runs", inserted_runs);
  apply_span.finish();

  AdvanceStats folded;
  folded.facts = static_cast<std::int64_t>(delta.delegation.size());
  folded.active = static_cast<std::int64_t>(delta.active.size());
  folded.inserted_spans = inserted_spans;
  folded.inserted_runs = inserted_runs;
  fold(std::move(rederive), extended_runs, folded, span);
  if (stats != nullptr) *stats = folded;
  PL_ENSURE(([&] {
              Snapshot full = *this;
              full.derive();
              return full == *this;
            })(),
            "a folded day must equal a full derivation over the extended "
            "working set (DESIGN.md §11)");
  return {};
}

bool Snapshot::extension_changes_verdicts(const AsnRow& row,
                                          bool op_extended) const {
  // With a negative transfer tolerance a longer open life can stop
  // absorbing another registry's overlapping span.
  if (config_.admin.transfer_gap_tolerance < 0) return true;
  const std::span<const AdminLifeRow> admin = admin_lives(row);
  const std::span<const OpLifeRow> op = op_lives(row);
  const std::size_t open = admin.size() - 1;
  // The extended op life and the open admin life both hold yesterday, so
  // they overlap, and the lives are disjoint and ascending: the op life
  // overlaps two or more admin lives iff it overlaps the one before the
  // open one. Its overlap with the open one alone grows, so its
  // best-overlap life can switch.
  if (op_extended && admin.size() > 1 &&
      util::overlap_days(admin[open - 1].life.days, op.back().life.days) > 0)
    return true;
  if (admin[open].category != joint::Category::kCompleteOverlap) return false;
  // Each op life inside the open admin life keeps its dormancy but not its
  // length ratio: re-check the 6.1.2 verdicts at the lengths they will
  // have. An op life inside an admin life overlaps no other, so the ones
  // inside are those with it as best-overlap life and complete class.
  const lifetimes::AdminLifetime& life = admin[open].life;
  util::Day previous_end = life.days.first - 1;  // allocation start
  for (std::size_t o = 0; o < op.size(); ++o) {
    const OpLifeRow& inside = op[o];
    if (inside.admin_index != static_cast<std::int32_t>(open) ||
        inside.category != joint::Category::kCompleteOverlap)
      continue;
    const std::int64_t dormancy =
        static_cast<std::int64_t>(inside.life.days.first) - previous_end - 1;
    const std::int64_t op_days =
        inside.life.days.length() + (op_extended && o + 1 == op.size());
    if (joint::is_dormant_awakening(dormancy, op_days, life.days.length() + 1,
                                    config_.squat) != inside.dormant_squat)
      return true;
    previous_end = inside.life.days.last;
  }
  return false;
}

void Snapshot::fold(std::vector<std::uint32_t> rederive,
                    std::span<const std::uint32_t> extended_runs,
                    AdvanceStats& stats, obs::Span* span) {
  const Day day = archive_end_;
  obs::Span rederive_span = obs::child_of(span, "rederive");
  // Any other ASN with an admin life reaching yesterday had each span of
  // it extended (a span that was not is a vanishing, already listed), and
  // one in `extended_runs` its last run: both lives move on to today
  // unless a verdict they feed can flip.
  std::int64_t shifted_admin = 0;
  std::int64_t shifted_op = 0;
  const std::size_t listed = rederive.size();
  for (std::size_t r = 0, e = 0, i = 0; i < rows_.size(); ++i) {
    const AsnRow& row = rows_[i];
    const std::uint32_t key = row.asn.value;
    while (r < listed && rederive[r] < key) ++r;
    if (r < listed && rederive[r] == key) continue;
    while (e < extended_runs.size() && extended_runs[e] < key) ++e;
    const bool op_extended = e < extended_runs.size() &&
                             extended_runs[e] == key && row.op_count > 0;
    lifetimes::AdminLifetime* open =
        row.admin_count > 0
            ? &admin_rows_[row.admin_begin + row.admin_count - 1].life
            : nullptr;
    if (open != nullptr && open->days.last != day - 1) open = nullptr;
    if (open != nullptr && extension_changes_verdicts(row, op_extended)) {
      rederive.push_back(key);
      continue;
    }
    if (open != nullptr) {
      open->days.last = day;
      ++shifted_admin;
    }
    if (op_extended) {
      op_rows_[row.op_begin + row.op_count - 1].life.days.last = day;
      ++shifted_op;
    }
  }
  std::inplace_merge(rederive.begin(),
                     rederive.begin() + static_cast<std::ptrdiff_t>(listed),
                     rederive.end());
  const Snapshot fresh = derive_rows(rederive, day);
  rederive_span.note("asns", static_cast<std::int64_t>(rederive.size()));
  rederive_span.note("admin_lives",
                     static_cast<std::int64_t>(fresh.admin_rows_.size()));
  rederive_span.note("op_lives",
                     static_cast<std::int64_t>(fresh.op_rows_.size()));
  rederive_span.finish();

  obs::Span patch_span = obs::child_of(span, "patch");
  // The splice: the rows between two re-derived ASNs move as one block,
  // a re-derived ASN's old rows drop out and its fresh ones (if any) take
  // their place. The census days of both go to the index patch.
  std::vector<util::SpliceRun> row_runs;
  std::vector<util::SpliceRun> admin_runs;
  std::vector<util::SpliceRun> op_runs;
  std::vector<std::uint32_t> new_row(rows_.size(), kDroppedRow);
  std::array<std::vector<Day>, 4> removed;  // admin/op starts/ends
  std::array<std::vector<Day>, 4> added;
  const auto census = [](const Snapshot& snap, const AsnRow& row,
                         std::array<std::vector<Day>, 4>& days) {
    for (const AdminLifeRow& life : snap.admin_lives(row)) {
      days[0].push_back(life.life.days.first);
      days[1].push_back(life.life.days.last);
    }
    for (const OpLifeRow& life : snap.op_lives(row)) {
      days[2].push_back(life.life.days.first);
      days[3].push_back(life.life.days.last);
    }
  };
  std::size_t next = 0;    // the first old row not placed yet
  std::size_t placed = 0;  // rows placed so far
  const auto keep_to = [&](std::size_t to) {
    if (to == next) return;
    const std::size_t admin_to =
        to < rows_.size() ? rows_[to].admin_begin : admin_rows_.size();
    const std::size_t op_to =
        to < rows_.size() ? rows_[to].op_begin : op_rows_.size();
    row_runs.push_back({false, next, to - next});
    admin_runs.push_back(
        {false, rows_[next].admin_begin, admin_to - rows_[next].admin_begin});
    op_runs.push_back(
        {false, rows_[next].op_begin, op_to - rows_[next].op_begin});
    for (; next < to; ++next)
      new_row[next] = static_cast<std::uint32_t>(placed++);
  };
  std::vector<std::uint32_t> fresh_at;  // new index of each fresh row
  fresh_at.reserve(fresh.rows_.size());
  for (std::size_t f = 0; const std::uint32_t key : rederive) {
    const auto old = std::lower_bound(
        rows_.begin() + static_cast<std::ptrdiff_t>(next), rows_.end(), key,
        [](const AsnRow& row, std::uint32_t k) { return row.asn.value < k; });
    keep_to(static_cast<std::size_t>(old - rows_.begin()));
    if (old != rows_.end() && old->asn.value == key) {
      census(*this, *old, removed);
      ++next;
    }
    if (f < fresh.rows_.size() && fresh.rows_[f].asn.value == key) {
      const AsnRow& row = fresh.rows_[f];
      row_runs.push_back({true, f, 1});
      admin_runs.push_back({true, row.admin_begin, row.admin_count});
      op_runs.push_back({true, row.op_begin, row.op_count});
      census(fresh, row, added);
      fresh_at.push_back(static_cast<std::uint32_t>(placed++));
      ++f;
    }
  }
  keep_to(rows_.size());
  util::splice<AsnRow>(rows_, row_runs, fresh.rows_);
  util::splice<AdminLifeRow>(admin_rows_, admin_runs, fresh.admin_rows_);
  util::splice<OpLifeRow>(op_rows_, op_runs, fresh.op_rows_);
  // A row's lives start where its run's lives landed.
  for (std::size_t r = 0, row = 0, admin = 0, op = 0; r < row_runs.size();
       ++r) {
    const auto admin_shift =
        static_cast<std::uint32_t>(admin - admin_runs[r].from);
    const auto op_shift = static_cast<std::uint32_t>(op - op_runs[r].from);
    if (admin_shift != 0 || op_shift != 0)
      for (std::size_t i = row; i < row + row_runs[r].count; ++i) {
        rows_[i].admin_begin += admin_shift;
        rows_[i].op_begin += op_shift;
      }
    row += row_runs[r].count;
    admin += admin_runs[r].count;
    op += op_runs[r].count;
  }
  patch_span.note("shifted_admin", shifted_admin);
  patch_span.note("shifted_op", shifted_op);
  patch_span.note("rows", static_cast<std::int64_t>(rows_.size()));
  patch_span.finish();

  obs::Span index_span = obs::child_of(span, "index");
  // A shifted life's end leaves yesterday, the last day any life held, for
  // today: the last of yesterday's ends become today's.
  const auto shift_ends = [&](std::vector<Day>& ends, std::size_t count) {
    const auto yesterday =
        std::upper_bound(ends.begin(), ends.end(), day - 1);
    std::fill(yesterday - static_cast<std::ptrdiff_t>(count), yesterday, day);
  };
  shift_ends(admin_ends_, static_cast<std::size_t>(shifted_admin));
  shift_ends(op_ends_, static_cast<std::size_t>(shifted_op));
  patch_sorted(admin_starts_, removed[0], added[0]);
  patch_sorted(admin_ends_, removed[1], added[1]);
  patch_sorted(op_starts_, removed[2], added[2]);
  patch_sorted(op_ends_, removed[3], added[3]);

  std::array<std::vector<std::uint32_t>, asn::kRirCount> registry_rows;
  std::vector<std::pair<asn::CountryCode, std::uint32_t>> country_rows;
  for (std::size_t f = 0; f < fresh.rows_.size(); ++f)
    for_each_index_key(
        fresh.admin_lives(fresh.rows_[f]),
        [&](std::size_t rir) { registry_rows[rir].push_back(fresh_at[f]); },
        [&](asn::CountryCode country) {
          country_rows.emplace_back(country, fresh_at[f]);
        });
  for (std::size_t rir = 0; rir < asn::kRirCount; ++rir) {
    remap_rows(by_registry_[rir], new_row);
    merge_rows(by_registry_[rir], registry_rows[rir]);
  }
  for (auto& [country, list] : by_country_) remap_rows(list, new_row);
  std::sort(country_rows.begin(), country_rows.end());
  std::vector<std::uint32_t> rows;
  for (std::size_t c = 0; c < country_rows.size();) {
    const asn::CountryCode country = country_rows[c].first;
    rows.clear();
    for (; c < country_rows.size() && country_rows[c].first == country; ++c)
      rows.push_back(country_rows[c].second);
    merge_rows(by_country_[country], rows);
  }
  std::erase_if(by_country_,
                [](const auto& entry) { return entry.second.empty(); });
  index_span.note("countries", static_cast<std::int64_t>(by_country_.size()));
  index_span.finish();

  stats.touched_admin = std::count_if(
      fresh.rows_.begin(), fresh.rows_.end(),
      [](const AsnRow& row) { return row.admin_count > 0; });
  stats.touched_op = std::count_if(
      fresh.rows_.begin(), fresh.rows_.end(),
      [](const AsnRow& row) { return row.op_count > 0; });
  stats.shifted_admin = shifted_admin;
  stats.shifted_op = shifted_op;
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
    restore::SpanTable& out = cut.spans[r];
    out = working_->spans[r].clipped(day, span_days);
    spans += static_cast<std::int64_t>(out.values.size());
    auto& first = cut.first_observed[r];
    for (const std::uint32_t offset : out.offsets)
      first = std::min(first.value_or(day), out.values[offset].days.first);
  }
  cut.activity = working_->activity.clipped(day, run_days);
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
  std::vector<std::uint32_t> keys;
  keys.reserve(asns.size());
  for (const asn::Asn asn : asns) keys.push_back(asn.value);
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  std::int64_t spans = 0;
  Snapshot snap = derive_rows(keys, day, &spans);
  snap.rebuild_indexes();
  if (stats != nullptr) {
    stats->asns = static_cast<std::int64_t>(snap.asn_count());
    stats->spans = spans;
  }
  return snap;
}

Snapshot Snapshot::derive_rows(std::span<const std::uint32_t> keys,
                               util::Day day, std::int64_t* spans) const {
  const WorkingSet& working = *working_;
  Snapshot snap;
  snap.config_ = config_;
  snap.archive_end_ = day;
  joint::AsnClassification cls;
  joint::AsnSquatFlags squats;
  std::array<std::vector<StateSpan>, asn::kRirCount> clipped;
  std::vector<util::DayInterval> runs;
  std::vector<lifetimes::OpLifetime> op;
  // The keys ascend, so each table is searched on from the last hit.
  std::array<std::size_t, asn::kRirCount> span_cursor{};
  std::size_t run_cursor = 0;
  for (const std::uint32_t asn_value : keys) {
    lifetimes::AsnSpansByRegistry span_lists{};
    bool any = false;
    for (std::size_t r = 0; r < asn::kRirCount; ++r) {
      clipped[r].clear();
      util::append_clipped(working.spans[r].find(asn_value, span_cursor[r]),
                           day, span_days, clipped[r]);
      if (spans != nullptr)
        *spans += static_cast<std::int64_t>(clipped[r].size());
      span_lists[r] = clipped[r];
      any |= !clipped[r].empty();
    }
    // The live backdating anchors need no cut: one is read only for a
    // registry where this ASN has a span starting by `day`, and then the
    // anchor, that registry's earliest span start, is by `day` too.
    std::vector<lifetimes::AdminLifetime> admin;
    if (any)
      admin = lifetimes::build_asn_admin_lifetimes(
          asn_value, span_lists, working.first_observed, day, config_.admin);
    runs.clear();
    util::append_clipped(working.activity.find(asn_value, run_cursor), day,
                         run_days, runs);
    op.clear();
    lifetimes::append_op_lifetimes(asn::Asn{asn_value}, runs,
                                   config_.op_timeout_days, op);
    snap.append_asn_rows(asn::Asn{asn_value}, admin, op, cls, squats);
  }
  return snap;
}

bool operator==(const Snapshot& a, const Snapshot& b) {
  return a.rows_ == b.rows_ && a.admin_rows_ == b.admin_rows_ &&
         a.op_rows_ == b.op_rows_ && a.archive_end_ == b.archive_end_ &&
         a.config_ == b.config_ && a.by_registry_ == b.by_registry_ &&
         a.by_country_ == b.by_country_ &&
         a.admin_starts_ == b.admin_starts_ &&
         a.admin_ends_ == b.admin_ends_ && a.op_starts_ == b.op_starts_ &&
         a.op_ends_ == b.op_ends_ && a.working_ == b.working_;
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
