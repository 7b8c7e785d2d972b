// Property tests for the administrative lifetime builder: randomized
// restored-archive inputs, structural invariants as oracles.
#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "lifetimes/admin.hpp"
#include "lifetimes/op.hpp"
#include "util/interval_set.hpp"
#include "util/rng.hpp"

namespace pl::lifetimes {
namespace {

using dele::RecordState;
using dele::Status;
using restore::RestoredArchive;
using restore::StateSpan;
using util::Day;
using util::DayInterval;
using util::Rng;

const Day kEnd = util::make_day(2021, 3, 1);
const Day kBegin = util::make_day(2003, 10, 9);

/// Generate a random, structurally-plausible restored archive: per ASN, a
/// sorted sequence of non-overlapping spans with random statuses and dates.
RestoredArchive random_archive(Rng& rng, int asns) {
  RestoredArchive archive;
  for (std::size_t r = 0; r < asn::kRirCount; ++r)
    archive.registries[r].rir = asn::kAllRirs[r];

  for (int i = 0; i < asns; ++i) {
    const std::uint32_t asn_value = static_cast<std::uint32_t>(100 + i);
    const std::size_t registry =
        static_cast<std::size_t>(rng.uniform(0, asn::kRirCount - 1));
    std::vector<StateSpan> spans;
    Day cursor = kBegin + static_cast<Day>(rng.uniform(0, 2000));
    const int span_count = static_cast<int>(rng.uniform(1, 6));
    Day current_regdate = cursor - static_cast<Day>(rng.uniform(0, 3000));
    for (int s = 0; s < span_count && cursor < kEnd - 10; ++s) {
      StateSpan span;
      const Day length = static_cast<Day>(rng.uniform(5, 1500));
      span.days = DayInterval{cursor,
                              std::min<Day>(kEnd, cursor + length)};
      const double roll = rng.uniform01();
      if (roll < 0.6) {
        span.state.status = Status::kAllocated;
        if (rng.chance(0.3))
          current_regdate = span.days.first -
                            static_cast<Day>(rng.uniform(0, 100));
        span.state.registration_date = current_regdate;
        span.state.opaque_id = static_cast<std::uint64_t>(rng.uniform(1,
                                                                      50));
      } else if (roll < 0.8) {
        span.state.status = Status::kReserved;
      } else {
        span.state.status = Status::kAvailable;
      }
      spans.push_back(span);
      cursor = span.days.last + 1 +
               (rng.chance(0.5) ? 0 : static_cast<Day>(rng.uniform(1, 400)));
    }
    if (!spans.empty())
      archive.registries[registry].spans[asn_value] = std::move(spans);
  }
  return archive;
}

class AdminBuilderProperty : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(AdminBuilderProperty, InvariantsHold) {
  Rng rng(GetParam());
  const RestoredArchive archive = random_archive(rng, 200);
  const AdminDataset dataset = build_admin_lifetimes(archive, kEnd);

  // Collect the delegated day set per ASN from the input.
  std::map<std::uint32_t, util::IntervalSet> delegated;
  std::map<std::uint32_t, Day> earliest_regdate;
  for (const auto& registry : archive.registries)
    for (const auto& [asn_value, spans] : registry.spans)
      for (const StateSpan& span : spans)
        if (dele::is_delegated(span.state.status)) {
          delegated[asn_value].add(span.days);
          const Day regdate = span.state.registration_date.value_or(
              span.days.first);
          const auto it = earliest_regdate.find(asn_value);
          if (it == earliest_regdate.end() || regdate < it->second)
            earliest_regdate[asn_value] = regdate;
        }

  // 1. Every ASN with delegated spans produces at least one lifetime and
  //    vice versa.
  EXPECT_EQ(dataset.asn_count(), delegated.size());

  std::map<std::uint32_t, util::IntervalSet> covered;
  for (const AdminLifetime& life : dataset.lifetimes) {
    // 2. Lifetimes are non-empty and within bounds.
    EXPECT_FALSE(life.days.empty());
    EXPECT_LE(life.days.last, kEnd);
    // 3. open_ended iff the life reaches the archive end.
    EXPECT_EQ(life.open_ended, life.days.last >= kEnd);
    // 4. The registration date never postdates... the life's start may be
    //    later than regdate (backdating only applies at first-file), but a
    //    regdate after the life's end is impossible.
    EXPECT_LE(life.registration_date, life.days.last);
    covered[life.asn.value].add(life.days);
  }

  for (const auto& [asn_value, days] : delegated) {
    // 5. Lifetimes cover every delegated day (they may extend further:
    //    merges bridge reserved interruptions; backdating extends starts).
    const util::IntervalSet& cover = covered[asn_value];
    EXPECT_EQ(days.intersect(cover).total_days(), days.total_days())
        << "asn " << asn_value;
  }

  // 6. Per-ASN lifetimes are disjoint and ordered.
  for (std::size_t i = 1; i < dataset.lifetimes.size(); ++i)
    if (dataset.lifetimes[i - 1].asn == dataset.lifetimes[i].asn) {
      EXPECT_LT(dataset.lifetimes[i - 1].days.last,
                dataset.lifetimes[i].days.first)
          << "asn " << dataset.lifetimes[i].asn.value;
    }

  // 7. The (asn, start) order is the per-ASN index: every ASN's run (and
  //    the empty run of an ASN with no life, 99 and 300 included) is
  //    exactly the linear filter of that ASN's lives, in order, and
  //    asn_count() is the number of distinct ASNs.
  std::set<std::uint32_t> distinct;
  for (const AdminLifetime& life : dataset.lifetimes)
    distinct.insert(life.asn.value);
  EXPECT_EQ(dataset.asn_count(), distinct.size());
  for (std::uint32_t value = 99; value <= 300; ++value) {
    std::vector<AdminLifetime> expected;
    for (const AdminLifetime& life : dataset.lifetimes)
      if (life.asn.value == value) expected.push_back(life);
    const auto run = asn_run(dataset.lifetimes, asn::Asn{value});
    EXPECT_EQ(std::vector<AdminLifetime>(run.begin(), run.end()), expected)
        << "asn " << value;
  }

  // 8. Determinism: rebuilding yields the identical dataset.
  const AdminDataset again = build_admin_lifetimes(archive, kEnd);
  ASSERT_EQ(again.lifetimes.size(), dataset.lifetimes.size());
  for (std::size_t i = 0; i < dataset.lifetimes.size(); ++i) {
    EXPECT_EQ(again.lifetimes[i].asn, dataset.lifetimes[i].asn);
    EXPECT_EQ(again.lifetimes[i].days, dataset.lifetimes[i].days);
    EXPECT_EQ(again.lifetimes[i].registration_date,
              dataset.lifetimes[i].registration_date);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AdminBuilderProperty,
                         ::testing::Values(11, 222, 3333, 44444, 555555,
                                           6666666));

// Property: the 4.2 timeout rule yields exactly 1 + (number of gaps > t)
// lives.
class OpTimeoutProperty : public ::testing::TestWithParam<int> {};

TEST_P(OpTimeoutProperty, LifeCountMatchesGapCount) {
  Rng rng(99);
  util::IntervalSet set;
  Day cursor = 0;
  for (int i = 0; i < 30; ++i) {
    const Day len = static_cast<Day>(rng.uniform(1, 50));
    set.add(DayInterval{cursor, cursor + len - 1});
    cursor += len + static_cast<Day>(rng.uniform(1, 80));
  }
  const int timeout = GetParam();
  std::size_t expected = 1;
  for (const auto gap : set.gaps())
    if (gap > timeout) ++expected;
  std::vector<OpLifetime> lives;
  append_op_lifetimes(asn::Asn{1}, set.runs(), timeout, lives);
  EXPECT_EQ(lives.size(), expected);
}

INSTANTIATE_TEST_SUITE_P(Timeouts, OpTimeoutProperty,
                         ::testing::Values(0, 1, 15, 30, 50, 100, 100000));

}  // namespace
}  // namespace pl::lifetimes
