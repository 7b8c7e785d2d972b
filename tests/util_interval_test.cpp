#include <gtest/gtest.h>

#include <bitset>
#include <cstdint>
#include <map>
#include <vector>

#include "util/flat_table.hpp"
#include "util/interval_set.hpp"
#include "util/rng.hpp"

namespace pl::util {
namespace {

TEST(DayInterval, Basics) {
  const DayInterval i{10, 20};
  EXPECT_EQ(i.length(), 11);
  EXPECT_FALSE(i.empty());
  EXPECT_TRUE(i.contains(10));
  EXPECT_TRUE(i.contains(20));
  EXPECT_FALSE(i.contains(21));
  EXPECT_TRUE(i.contains(DayInterval{12, 18}));
  EXPECT_FALSE(i.contains(DayInterval{12, 21}));

  const DayInterval empty{5, 4};
  EXPECT_TRUE(empty.empty());
  EXPECT_EQ(empty.length(), 0);
  EXPECT_FALSE(i.contains(empty));
}

TEST(DayInterval, OverlapAndIntersect) {
  const DayInterval a{0, 10};
  const DayInterval b{10, 20};
  const DayInterval c{11, 20};
  EXPECT_TRUE(a.overlaps(b));
  EXPECT_FALSE(a.overlaps(c));
  EXPECT_EQ(overlap_days(a, b), 1);
  EXPECT_EQ(overlap_days(a, c), 0);
  EXPECT_EQ(a.intersect(b), (DayInterval{10, 10}));
  EXPECT_TRUE(a.intersect(c).empty());
}

TEST(IntervalSet, AddCoalesces) {
  IntervalSet set;
  set.add(DayInterval{1, 5});
  set.add(DayInterval{7, 9});
  EXPECT_EQ(set.run_count(), 2u);
  set.add(6);  // bridges the two runs
  EXPECT_EQ(set.run_count(), 1u);
  EXPECT_EQ(set.total_days(), 9);
  EXPECT_EQ(set.span(), (DayInterval{1, 9}));
}

TEST(IntervalSet, AdjacentMerges) {
  IntervalSet set;
  set.add(DayInterval{1, 5});
  set.add(DayInterval{6, 8});  // adjacent, must merge
  EXPECT_EQ(set.run_count(), 1u);
}

TEST(IntervalSet, Subtract) {
  IntervalSet set;
  set.add(DayInterval{1, 10});
  set.subtract(DayInterval{4, 6});
  EXPECT_EQ(set.run_count(), 2u);
  EXPECT_TRUE(set.contains(3));
  EXPECT_FALSE(set.contains(5));
  EXPECT_TRUE(set.contains(7));
  EXPECT_EQ(set.total_days(), 7);
}

TEST(IntervalSet, Gaps) {
  IntervalSet set;
  set.add(DayInterval{1, 5});
  set.add(DayInterval{10, 12});
  set.add(DayInterval{50, 60});
  const auto gaps = set.gaps();
  ASSERT_EQ(gaps.size(), 2u);
  EXPECT_EQ(gaps[0], 4);   // 6..9
  EXPECT_EQ(gaps[1], 37);  // 13..49
}

TEST(IntervalSet, CoveredDays) {
  IntervalSet set;
  set.add(DayInterval{10, 20});
  set.add(DayInterval{30, 40});
  EXPECT_EQ(set.covered_days(DayInterval{0, 100}), 22);
  EXPECT_EQ(set.covered_days(DayInterval{15, 35}), 12);
  EXPECT_EQ(set.covered_days(DayInterval{21, 29}), 0);
}

TEST(IntervalSet, UniteIntersect) {
  IntervalSet a(std::vector<DayInterval>{{1, 10}, {20, 30}});
  IntervalSet b(std::vector<DayInterval>{{5, 25}});
  const IntervalSet u = a.unite(b);
  EXPECT_EQ(u.run_count(), 1u);
  EXPECT_EQ(u.total_days(), 30);
  const IntervalSet i = a.intersect(b);
  EXPECT_EQ(i.total_days(), 6 + 6);  // 5..10 and 20..25
}

// Property test: IntervalSet must agree with a naive bitset model under
// random add/subtract sequences.
class IntervalSetModel : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(IntervalSetModel, MatchesBitsetModel) {
  constexpr int kUniverse = 400;
  Rng rng(GetParam());
  IntervalSet set;
  std::bitset<kUniverse> model;

  for (int step = 0; step < 200; ++step) {
    const Day lo = static_cast<Day>(rng.uniform(0, kUniverse - 1));
    const Day hi =
        static_cast<Day>(std::min<std::int64_t>(kUniverse - 1,
                                                lo + rng.uniform(0, 40)));
    if (rng.chance(0.6)) {
      set.add(DayInterval{lo, hi});
      for (Day d = lo; d <= hi; ++d) model.set(static_cast<std::size_t>(d));
    } else {
      set.subtract(DayInterval{lo, hi});
      for (Day d = lo; d <= hi; ++d)
        model.reset(static_cast<std::size_t>(d));
    }

    // Invariants: runs sorted, disjoint, separated by >= 1 day.
    const auto& runs = set.runs();
    for (std::size_t i = 0; i < runs.size(); ++i) {
      EXPECT_LE(runs[i].first, runs[i].last);
      if (i > 0) {
        EXPECT_GT(runs[i].first, runs[i - 1].last + 1);
      }
    }
    // Membership matches model.
    ASSERT_EQ(set.total_days(), static_cast<std::int64_t>(model.count()));
  }
  for (Day d = 0; d < kUniverse; ++d)
    EXPECT_EQ(set.contains(d), model.test(static_cast<std::size_t>(d)))
        << "day " << d;
}

TEST(Splice, KeptRunsMoveBothWaysAroundFreshOnes) {
  // Kept runs that move down, stay and move up, with fresh values between
  // them and three values dropped: each lands where the concatenation puts
  // it.
  std::vector<int> values = {0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
  const std::vector<int> fresh = {100, 101, 102};
  const std::vector<SpliceRun> runs = {
      {false, 1, 1},  // 1 moves down
      {true, 0, 2},   // 100 101
      {false, 3, 2},  // 3 4 stay
      {true, 2, 1},   // 102
      {false, 5, 2},  // 5 6 move up over the dropped 7
      {false, 8, 2},  // 8 9 stay
  };
  splice<int>(values, runs, fresh);
  EXPECT_EQ(values, (std::vector<int>{1, 100, 101, 3, 4, 102, 5, 6, 8, 9}));
}

/// The table holding `lists` (each non-empty), built key by key.
FlatTable<int> table_of(
    const std::map<std::uint32_t, std::vector<int>>& lists) {
  FlatTable<int> table;
  for (const auto& [key, values] : lists) table.push_back(key, values);
  return table;
}

TEST(FlatTable, ReplaceInPlaceMatchesARebuild) {
  // Random tables and random edits (replaced rows, longer or shorter, and
  // new keys anywhere): the table edited in place equals the one built
  // from the edited lists.
  Rng rng(17);
  for (int round = 0; round < 200; ++round) {
    std::map<std::uint32_t, std::vector<int>> lists;
    const auto random_list = [&] {
      std::vector<int> list(static_cast<std::size_t>(rng.uniform(1, 4)));
      for (int& value : list) value = static_cast<int>(rng.uniform(0, 999));
      return list;
    };
    const std::int64_t keys = rng.uniform(0, 30);
    for (std::int64_t k = 0; k < keys; ++k)
      lists[static_cast<std::uint32_t>(rng.uniform(0, 60))] = random_list();
    FlatTable<int> table = table_of(lists);

    std::map<std::uint32_t, std::vector<int>> edited;
    const std::int64_t edits = rng.uniform(0, 8);
    for (std::int64_t e = 0; e < edits; ++e)
      edited[static_cast<std::uint32_t>(rng.uniform(0, 60))] = random_list();
    std::vector<FlatEdit<int>> changes;
    for (const auto& [key, values] : edited) {
      changes.push_back({key, values});
      lists[key] = values;
    }
    table.replace(changes);
    ASSERT_TRUE(table == table_of(lists)) << "round " << round;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IntervalSetModel,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

}  // namespace
}  // namespace pl::util
