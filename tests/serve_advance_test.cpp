// Incremental day-advance vs full rebuild, bit-for-bit.
//
// Strategy: run ONE extended pipeline over the full simulated history (the
// world E). Truncate its restored archive + activity table to a day D some
// weeks before the end and build a snapshot of that shorter world; then
// advance it one day at a time using DayDeltas sliced out of E. After every
// stretch the advanced snapshot must compare equal — rows, derived indexes,
// AND working set — to Snapshot::build over the same truncation, and at the
// end to the full world's snapshot. Runs plain and under transport chaos.
#include <gtest/gtest.h>

#include "history/store.hpp"
#include "pipeline/pipeline.hpp"
#include "serve/snapshot.hpp"

namespace pl::serve {
namespace {

// World slicing lives on HistoryStore.
constexpr auto slice_day = &history::HistoryStore::slice_day;

void advance_equals_rebuild(const pipeline::Config& config, int days_back) {
  const pipeline::Result extended = pipeline::run_simulated(config);
  const util::Day end = extended.truth.archive_end;
  const util::Day start = end - days_back;
  ASSERT_GT(start, extended.truth.archive_begin);

  Snapshot advanced = history::HistoryStore::rebuild_at(
      extended.restored, extended.op_world.activity, start);
  ASSERT_TRUE(advanced.can_advance());

  AdvanceStats total;
  for (util::Day day = start + 1; day <= end; ++day) {
    const DayDelta delta =
        slice_day(extended.restored, extended.op_world.activity, day);
    ASSERT_EQ(delta.day, day);
    AdvanceStats stats;
    const pl::Status status = advanced.advance_day(delta, &stats);
    ASSERT_TRUE(status.ok()) << status.to_string();
    EXPECT_EQ(advanced.archive_end(), day);
    total.facts += stats.facts;
    total.active += stats.active;
    total.reclassified += stats.reclassified;

    // Spot-check mid-stretch too, not only at the end: catches drift that a
    // later day would happen to repair.
    if (day == start + days_back / 2) {
      const Snapshot rebuilt = history::HistoryStore::rebuild_at(
          extended.restored, extended.op_world.activity, day);
      EXPECT_TRUE(advanced == rebuilt) << "diverged by day " << day;
    }
  }

  // The days being advanced are real history, so they carry facts.
  EXPECT_GT(total.facts, 0);
  EXPECT_GT(total.active, 0);

  const Snapshot full =
      Snapshot::build(extended.restored, extended.op_world.activity, end);
  EXPECT_TRUE(advanced == full)
      << "advanced snapshot != full rebuild after " << days_back << " days";
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
