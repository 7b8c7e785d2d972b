// Incremental day-advance vs full rebuild, bit-for-bit.
//
// Strategy: run ONE extended pipeline over the full simulated history (the
// world E). Truncate its restored archive + activity table to a day D some
// weeks before the end and build a snapshot of that shorter world; then
// advance it one day at a time using DayDeltas sliced out of E. After every
// fold the advanced snapshot must compare equal — rows, derived indexes,
// AND working set — to Snapshot::build over the same truncation, and at the
// end to the full world's snapshot. Runs plain and under transport chaos,
// and over hand-built worlds where one rule of the fold decides the day:
// an elapsed-time verdict that flips, a vanishing, a re-merged op gap, a
// row inserted mid-table.
#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <vector>

#include "history/store.hpp"
#include "pipeline/pipeline.hpp"
#include "serve/snapshot.hpp"

namespace pl::serve {
namespace {

// World slicing lives on HistoryStore.
constexpr auto slice_day = &history::HistoryStore::slice_day;

/// Fold days first + 1 .. last of a world into the snapshot built at
/// `first`, asserting after every fold that it equals the build at that
/// day. Returns the summed stats.
AdvanceStats folds_match_builds(const restore::RestoredArchive& archive,
                                const bgp::ActivityTable& activity,
                                util::Day first, util::Day last,
                                const SnapshotConfig& config = {}) {
  Snapshot advanced =
      history::HistoryStore::rebuild_at(archive, activity, first, config);
  EXPECT_TRUE(advanced.can_advance());
  AdvanceStats total;
  for (util::Day day = first + 1; day <= last; ++day) {
    const DayDelta delta = slice_day(archive, activity, day);
    EXPECT_EQ(delta.day, day);
    AdvanceStats stats;
    const pl::Status status = advanced.advance_day(delta, &stats);
    EXPECT_TRUE(status.ok()) << status.to_string();
    if (!status.ok()) break;
    EXPECT_EQ(advanced.archive_end(), day);
    total.facts += stats.facts;
    total.active += stats.active;
    total.touched_admin += stats.touched_admin;
    total.shifted_admin += stats.shifted_admin;
    const bool same =
        advanced ==
        history::HistoryStore::rebuild_at(archive, activity, day, config);
    EXPECT_TRUE(same) << "diverged on day " << day;
    if (!same) break;
  }
  return total;
}

void advance_equals_rebuild(const pipeline::Config& config, int days_back) {
  const pipeline::Result extended = pipeline::run_simulated(config);
  const util::Day end = extended.truth.archive_end;
  const util::Day start = end - days_back;
  ASSERT_GT(start, extended.truth.archive_begin);

  const AdvanceStats total = folds_match_builds(
      extended.restored, extended.op_world.activity, start, end);
  // The days being advanced are real history, so they carry facts, and
  // most open lives only move on.
  EXPECT_GT(total.facts, 0);
  EXPECT_GT(total.active, 0);
  EXPECT_GT(total.shifted_admin, total.touched_admin);
}

TEST(ServeAdvance, ThirtyFiveDaysBitIdenticalToRebuild) {
  pipeline::Config config;
  config.seed = 99;
  config.scale = 0.02;
  advance_equals_rebuild(config, 35);
}

TEST(ServeAdvance, DifferentSeedAndScale) {
  pipeline::Config config;
  config.seed = 7;
  config.scale = 0.01;
  advance_equals_rebuild(config, 31);
}

TEST(ServeAdvance, BitIdenticalUnderChaos) {
  // Transport chaos perturbs the restored archive (quarantined days, gap
  // fills); whatever the restorer produced is still advanced exactly.
  pipeline::Config config;
  config.seed = 99;
  config.scale = 0.02;
  config.inject_chaos = true;
  advance_equals_rebuild(config, 35);
}

TEST(ServeAdvance, FourMonthsAtSmallScale) {
  // Long enough for spans to vanish and op gaps under the timeout to be
  // re-merged on some of the days.
  pipeline::Config config;
  config.seed = 7;
  config.scale = 0.01;
  advance_equals_rebuild(config, 125);
}

/// A hand-built world: restored spans per registry plus BGP activity.
struct World {
  restore::RestoredArchive archive;
  bgp::ActivityTable activity;

  World() {
    for (std::size_t r = 0; r < asn::kRirCount; ++r)
      archive.registries[r].rir = asn::kAllRirs[r];
  }

  /// `asn` listed by `rir` as `status` over [first, last], registered on
  /// `first` when delegated.
  void list(asn::Rir rir, std::uint32_t asn, util::Day first, util::Day last,
            dele::Status status = dele::Status::kAllocated,
            asn::CountryCode country = asn::CountryCode::literal('U', 'S')) {
    restore::StateSpan span;
    span.days = {first, last};
    span.state.status = status;
    if (dele::is_delegated(status)) span.state.registration_date = first;
    span.state.country = country;
    span.state.opaque_id = asn;
    archive.registries[asn::index_of(rir)].spans[asn].push_back(span);
  }

  void active(std::uint32_t asn, util::Day first, util::Day last) {
    activity.mark_active(asn::Asn{asn}, util::DayInterval{first, last});
  }
};

/// A short dormancy threshold and a loose length ratio, so a verdict flips
/// within days.
SnapshotConfig quick_squats() {
  SnapshotConfig config;
  config.squat.dormancy_days = 20;
  config.squat.max_relative_duration = 0.25;
  return config;
}

TEST(ServeAdvanceRules, DormantVerdictFlipsWhileLivesOnlyExtend) {
  // One allocation open from day 0 and one op life 30 days into it. Its
  // length ratio climbs past 0.25 on day 40 while both lives extend (the
  // verdict clears), and after the activity stops on day 45 it falls back
  // to 0.25 on day 63 while only the allocation extends (the verdict
  // returns). Neither day edits a span or a run.
  World world;
  world.list(asn::Rir::kArin, 100, 0, 70);
  world.active(100, 30, 45);
  const SnapshotConfig config = quick_squats();
  folds_match_builds(world.archive, world.activity, 25, 70, config);

  const auto flag = [&](util::Day day) {
    const Snapshot snap = history::HistoryStore::rebuild_at(
        world.archive, world.activity, day, config);
    return snap.op_lives(*snap.find(asn::Asn{100})).front().dormant_squat;
  };
  EXPECT_TRUE(flag(39));
  EXPECT_FALSE(flag(40));
  EXPECT_FALSE(flag(62));
  EXPECT_TRUE(flag(63));
}

TEST(ServeAdvanceRules, BestAdminLifeSwitchesAsTheOpenOneGrows) {
  // Two ARIN allocations, [0, 49] and [53, ...] under a new date, and one
  // op life over both (its runs' 3-day gap is under the timeout). It
  // overlaps the first by 20 days; the second passes that on day 73.
  World world;
  world.list(asn::Rir::kArin, 200, 0, 49);
  world.list(asn::Rir::kArin, 200, 50, 52, dele::Status::kAvailable);
  world.list(asn::Rir::kArin, 200, 53, 80);
  world.active(200, 30, 49);
  world.active(200, 53, 80);
  folds_match_builds(world.archive, world.activity, 55, 80);

  const auto best = [&](util::Day day) {
    const Snapshot snap =
        history::HistoryStore::rebuild_at(world.archive, world.activity, day);
    return snap.op_lives(*snap.find(asn::Asn{200})).front().admin_index;
  };
  EXPECT_EQ(best(72), 0);
  EXPECT_EQ(best(73), 1);
}

TEST(ServeAdvanceRules, AllocationThatVanishesCloses) {
  // AS300 drops out of ARIN's file after day 40 with no fact saying so:
  // its life stops being open-ended on day 41 and never moves on again.
  World world;
  world.list(asn::Rir::kArin, 1, 0, 50);
  world.list(asn::Rir::kArin, 300, 0, 40);
  world.active(300, 10, 45);
  folds_match_builds(world.archive, world.activity, 30, 50);

  const Snapshot end =
      history::HistoryStore::rebuild_at(world.archive, world.activity, 50);
  const lifetimes::AdminLifetime& life =
      end.admin_lives(*end.find(asn::Asn{300})).front().life;
  EXPECT_EQ(life.days.last, 40);
  EXPECT_FALSE(life.open_ended);
}

TEST(ServeAdvanceRules, OpGapUnderTheTimeoutIsReMerged) {
  // Active [10, 20], silent 14 days, active again from day 35: the new run
  // joins the first op life rather than starting a second.
  World world;
  world.list(asn::Rir::kArin, 400, 0, 50);
  world.active(400, 10, 20);
  world.active(400, 35, 40);
  folds_match_builds(world.archive, world.activity, 15, 50);

  const Snapshot end =
      history::HistoryStore::rebuild_at(world.archive, world.activity, 50);
  const std::span<const OpLifeRow> lives =
      end.op_lives(*end.find(asn::Asn{400}));
  ASSERT_EQ(lives.size(), 1u);
  EXPECT_EQ(lives.front().life.days, (util::DayInterval{10, 40}));
}

TEST(ServeAdvanceRules, NewRowMidTableShiftsIndexedRows) {
  // AS550 (ARIN, a country nobody had) and AS650 (RIPE) arrive on day 40
  // between rows that already exist: the rows after them move down, and
  // so do their entries in the ARIN, RIPE, US and DE lists.
  const asn::CountryCode de = asn::CountryCode::literal('D', 'E');
  World world;
  world.list(asn::Rir::kArin, 500, 0, 50);
  world.list(asn::Rir::kRipeNcc, 600, 0, 50, dele::Status::kAllocated, de);
  world.list(asn::Rir::kArin, 700, 0, 50);
  world.list(asn::Rir::kRipeNcc, 800, 0, 50, dele::Status::kAllocated, de);
  world.list(asn::Rir::kArin, 550, 40, 50, dele::Status::kAllocated,
             asn::CountryCode::literal('N', 'L'));
  world.list(asn::Rir::kRipeNcc, 650, 40, 50, dele::Status::kAllocated, de);
  world.active(700, 5, 50);
  folds_match_builds(world.archive, world.activity, 35, 50);

  const Snapshot end =
      history::HistoryStore::rebuild_at(world.archive, world.activity, 50);
  EXPECT_EQ(end.rows_in_registry(asn::Rir::kArin),
            (std::vector<std::uint32_t>{0, 1, 4}));
  EXPECT_EQ(end.rows_in_registry(asn::Rir::kRipeNcc),
            (std::vector<std::uint32_t>{2, 3, 5}));
  EXPECT_EQ(end.rows_by_country().at(de),
            (std::vector<std::uint32_t>{2, 3, 5}));
}

TEST(ServeAdvance, SliceDayIsDeterministicAndOrdered) {
  pipeline::Config config;
  config.seed = 99;
  config.scale = 0.01;
  const pipeline::Result result = pipeline::run_simulated(config);
  const util::Day day = result.truth.archive_end - 10;

  const DayDelta a =
      slice_day(result.restored, result.op_world.activity, day);
  const DayDelta b =
      slice_day(result.restored, result.op_world.activity, day);
  EXPECT_EQ(a, b);
  EXPECT_GT(a.delegation.size(), 0u);
  EXPECT_GT(a.active.size(), 0u);
  // Registry-major, ascending ASN within each registry block.
  for (std::size_t i = 1; i < a.delegation.size(); ++i) {
    const std::size_t prev = asn::index_of(a.delegation[i - 1].registry);
    const std::size_t cur = asn::index_of(a.delegation[i].registry);
    EXPECT_LE(prev, cur);
    if (prev == cur) {
      EXPECT_LT(a.delegation[i - 1].asn, a.delegation[i].asn);
    }
  }
  for (std::size_t i = 1; i < a.active.size(); ++i)
    EXPECT_LT(a.active[i - 1], a.active[i]);
}

TEST(ServeAdvance, TruncationClipsButKeepsEarlierHistory) {
  pipeline::Config config;
  config.seed = 99;
  config.scale = 0.01;
  const pipeline::Result result = pipeline::run_simulated(config);
  const util::Day cut = result.truth.archive_end - 100;

  const restore::RestoredArchive clipped =
      history::HistoryStore::truncate_archive(result.restored, cut);
  for (std::size_t r = 0; r < asn::kRirCount; ++r) {
    EXPECT_LE(clipped.registries[r].spans.size(),
              result.restored.registries[r].spans.size());
    for (const auto& [asn_value, spans] : clipped.registries[r].spans) {
      ASSERT_FALSE(spans.empty());
      for (const restore::StateSpan& span : spans)
        EXPECT_LE(span.days.last, cut);
    }
  }
  const bgp::ActivityTable activity =
      history::HistoryStore::truncate_activity(result.op_world.activity, cut);
  for (const auto& [asn_key, days] : activity.entries())
    EXPECT_LE(days.span().last, cut);
}

}  // namespace
}  // namespace pl::serve
