#include <gtest/gtest.h>

#include "joint/birdseye.hpp"
#include "joint/exhaustion.hpp"
#include "joint/outside.hpp"
#include "joint/partial.hpp"
#include "joint/squat.hpp"
#include "joint/unused.hpp"
#include "joint/utilization.hpp"

namespace pl::joint {
namespace {

using lifetimes::AdminDataset;
using lifetimes::AdminLifetime;
using lifetimes::AsnStartOrder;
using lifetimes::OpDataset;
using lifetimes::OpLifetime;
using util::DayInterval;
using util::make_day;

AdminLifetime admin_life(std::uint32_t asn_value, util::Day start,
                         util::Day end,
                         asn::Rir rir = asn::Rir::kRipeNcc,
                         const char* country = "DE",
                         std::uint64_t opaque = 0) {
  AdminLifetime life;
  life.asn = asn::Asn{asn_value};
  life.registration_date = start;
  life.days = DayInterval{start, end};
  life.registry = rir;
  life.country = *asn::CountryCode::parse(country);
  life.opaque_id = opaque;
  return life;
}

OpLifetime op_life(std::uint32_t asn_value, util::Day start, util::Day end) {
  return OpLifetime{asn::Asn{asn_value}, DayInterval{start, end}};
}

struct Fixture {
  AdminDataset admin;
  OpDataset op;

  void add_admin(AdminLifetime life) { admin.lifetimes.push_back(life); }
  void add_op(OpLifetime life) { op.lifetimes.push_back(life); }

  /// Put both lists in the (asn, start) order the builders emit.
  void finish() {
    std::sort(admin.lifetimes.begin(), admin.lifetimes.end(),
              AsnStartOrder{});
    admin.archive_end = make_day(2021, 3, 1);
    std::sort(op.lifetimes.begin(), op.lifetimes.end(), AsnStartOrder{});
  }
};

TEST(Taxonomy, FourCategories) {
  Fixture f;
  // Complete overlap.
  f.add_admin(admin_life(1, 100, 1000));
  f.add_op(op_life(1, 200, 900));
  // Partial overlap (dangling tail).
  f.add_admin(admin_life(2, 100, 1000));
  f.add_op(op_life(2, 200, 1500));
  // Unused.
  f.add_admin(admin_life(3, 100, 1000));
  // Outside delegation: previously allocated.
  f.add_admin(admin_life(4, 100, 400));
  f.add_op(op_life(4, 600, 700));
  // Outside delegation: never allocated.
  f.add_op(op_life(5, 600, 700));
  f.finish();

  const Taxonomy taxonomy = classify(f.admin, f.op);
  EXPECT_EQ(taxonomy.admin_counts[0], 1);  // complete
  EXPECT_EQ(taxonomy.admin_counts[1], 1);  // partial
  EXPECT_EQ(taxonomy.admin_counts[2], 2);  // unused (ASN 3 and ASN 4)
  EXPECT_EQ(taxonomy.op_counts[0], 1);
  EXPECT_EQ(taxonomy.op_counts[1], 1);
  EXPECT_EQ(taxonomy.op_counts[3], 2);

  // Partition identities (Table 3 row sums).
  EXPECT_EQ(taxonomy.total_admin(),
            static_cast<std::int64_t>(f.admin.lifetimes.size()));
  EXPECT_EQ(taxonomy.total_op(),
            static_cast<std::int64_t>(f.op.lifetimes.size()));

  const OutsideSplit split = split_outside(taxonomy, f.admin, f.op);
  ASSERT_EQ(split.ever_allocated.size(), 1u);
  EXPECT_EQ(split.ever_allocated[0], asn::Asn{4});
  ASSERT_EQ(split.never_allocated.size(), 1u);
  EXPECT_EQ(split.never_allocated[0], asn::Asn{5});
}

TEST(Taxonomy, BogonsExcludedFromOutsideSplit) {
  Fixture f;
  f.add_op(op_life(64512, 100, 200));  // private-use ASN
  f.add_op(op_life(99, 100, 200));
  f.finish();
  const Taxonomy taxonomy = classify(f.admin, f.op);
  const OutsideSplit split = split_outside(taxonomy, f.admin, f.op);
  ASSERT_EQ(split.never_allocated.size(), 1u);
  EXPECT_EQ(split.never_allocated[0], asn::Asn{99});
}

TEST(Taxonomy, OpLifeSpanningTwoAdminLives) {
  Fixture f;
  f.add_admin(admin_life(1, 0, 500));
  f.add_admin(admin_life(1, 700, 2000));
  f.add_op(op_life(1, 400, 900));  // crosses both
  f.finish();
  const Taxonomy taxonomy = classify(f.admin, f.op);
  EXPECT_EQ(taxonomy.op_category[0], Category::kPartialOverlap);
  // Assigned to the admin life with the larger overlap (700..900 = 201d).
  EXPECT_EQ(taxonomy.op_to_admin[0], 1);
  EXPECT_EQ(taxonomy.admin_category[0], Category::kPartialOverlap);
  EXPECT_EQ(taxonomy.admin_category[1], Category::kPartialOverlap);
}

TEST(Utilization, RatioAndLags) {
  Fixture f;
  // 1001-day life, one op life of 800 days, closed life.
  f.add_admin(admin_life(1, 0, 1000, asn::Rir::kApnic));
  f.add_op(op_life(1, 100, 899));
  f.finish();
  const Taxonomy taxonomy = classify(f.admin, f.op);
  const UtilizationAnalysis analysis =
      analyze_utilization(taxonomy, f.admin, f.op);
  ASSERT_EQ(analysis.ratios.size(), 1u);
  EXPECT_NEAR(analysis.ratios[0], 800.0 / 1001.0, 1e-9);
  const auto apnic = asn::index_of(asn::Rir::kApnic);
  ASSERT_EQ(analysis.activation_delay_days[apnic].size(), 1u);
  EXPECT_DOUBLE_EQ(analysis.activation_delay_days[apnic][0], 100);
  ASSERT_EQ(analysis.dealloc_lag_days[apnic].size(), 1u);
  EXPECT_DOUBLE_EQ(analysis.dealloc_lag_days[apnic][0], 101);
}

TEST(Utilization, OpenEndedLivesExcludedFromLag) {
  Fixture f;
  auto life = admin_life(1, 0, 1000);
  life.open_ended = true;
  f.add_admin(life);
  f.add_op(op_life(1, 100, 900));
  f.finish();
  const Taxonomy taxonomy = classify(f.admin, f.op);
  const UtilizationAnalysis analysis =
      analyze_utilization(taxonomy, f.admin, f.op);
  EXPECT_TRUE(analysis.dealloc_lag_days[asn::index_of(asn::Rir::kRipeNcc)]
                  .empty());
}

TEST(Utilization, HyperactiveAndSpaced) {
  Fixture f;
  f.add_admin(admin_life(1, 0, 10000));
  for (int i = 0; i < 12; ++i)
    f.add_op(op_life(1, i * 300, i * 300 + 100));  // gaps of 199 days
  // Largely spaced: two op lives > 365 days apart.
  f.add_admin(admin_life(2, 0, 10000));
  f.add_op(op_life(2, 0, 100));
  f.add_op(op_life(2, 1000, 1100));
  f.finish();
  const Taxonomy taxonomy = classify(f.admin, f.op);
  const UtilizationAnalysis analysis =
      analyze_utilization(taxonomy, f.admin, f.op);
  ASSERT_EQ(analysis.hyperactive_asns.size(), 1u);
  EXPECT_EQ(analysis.hyperactive_asns[0], asn::Asn{1});
  EXPECT_EQ(analysis.multi_op_lives, 2);
  EXPECT_EQ(analysis.largely_spaced_lives, 1);
}

TEST(Squat, DetectsDormantAwakening) {
  Fixture f;
  // AS10512-style: allocated for ~17 years, tiny awakening after years of
  // dormancy.
  f.add_admin(admin_life(10512, 0, 6300));
  f.add_op(op_life(10512, 5200, 5230));
  // Canonical ASN for contrast.
  f.add_admin(admin_life(2, 0, 6300));
  f.add_op(op_life(2, 40, 6000));
  f.finish();
  const Taxonomy taxonomy = classify(f.admin, f.op);
  const auto candidates = detect_dormant_squats(taxonomy, f.admin, f.op);
  ASSERT_EQ(candidates.size(), 1u);
  EXPECT_EQ(candidates[0].asn, asn::Asn{10512});
  EXPECT_EQ(candidates[0].dormancy, 5200);
  EXPECT_NEAR(candidates[0].relative_duration, 31.0 / 6301.0, 1e-9);
}

TEST(Squat, ThresholdsFilter) {
  Fixture f;
  // Dormancy below 1000 days: not flagged.
  f.add_admin(admin_life(1, 0, 6300));
  f.add_op(op_life(1, 900, 930));
  // Relative duration too large: not flagged.
  f.add_admin(admin_life(2, 0, 2000));
  f.add_op(op_life(2, 1500, 1900));
  f.finish();
  const Taxonomy taxonomy = classify(f.admin, f.op);
  EXPECT_TRUE(detect_dormant_squats(taxonomy, f.admin, f.op).empty());

  // Custom thresholds pick them up.
  SquatDetectorConfig config;
  config.dormancy_days = 800;
  config.max_relative_duration = 0.5;
  EXPECT_EQ(detect_dormant_squats(taxonomy, f.admin, f.op, config).size(),
            2u);
}

TEST(Squat, OutsideDelegationDetector) {
  Fixture f;
  // AS12391-style: op life 3 days after deallocation, long after previous
  // activity.
  f.add_admin(admin_life(12391, 0, 4000));
  f.add_op(op_life(12391, 50, 100));
  f.add_op(op_life(12391, 4003, 4010));
  f.finish();
  const Taxonomy taxonomy = classify(f.admin, f.op);
  const auto candidates =
      detect_outside_delegation_activity(taxonomy, f.admin, f.op);
  ASSERT_EQ(candidates.size(), 1u);
  EXPECT_EQ(candidates[0].asn, asn::Asn{12391});
  EXPECT_EQ(candidates[0].dormancy, 4003 - 100 - 1);
}

TEST(Partial, DanglingAndEarly) {
  Fixture f;
  // Dangling: op continues 200 days past deallocation.
  f.add_admin(admin_life(1, 0, 1000));
  f.add_op(op_life(1, 100, 1200));
  // Early: op starts 5 days before allocation (and before regdate).
  f.add_admin(admin_life(2, 500, 1500));
  f.add_op(op_life(2, 495, 1400));
  f.finish();
  const Taxonomy taxonomy = classify(f.admin, f.op);
  const PartialOverlapAnalysis analysis =
      analyze_partial_overlap(taxonomy, f.admin, f.op);
  EXPECT_EQ(analysis.partial_admin_lives, 2);
  EXPECT_EQ(analysis.dangling_lives, 1);
  ASSERT_EQ(analysis.dangling_days.size(), 1u);
  EXPECT_DOUBLE_EQ(analysis.dangling_days[0], 200);
  EXPECT_EQ(analysis.early_starts, 1);
  EXPECT_EQ(analysis.early_before_regdate, 1);
}

TEST(Unused, CountryAndSiblings) {
  Fixture f;
  // Chinese org with two ASNs: one used, one unused (sibling case).
  f.add_admin(admin_life(1, 0, 1000, asn::Rir::kApnic, "CN", 77));
  f.add_admin(admin_life(2, 0, 1000, asn::Rir::kApnic, "CN", 77));
  f.add_op(op_life(1, 100, 900));
  // Unused short 32-bit life (failed deployment).
  f.add_admin(admin_life(200000, 0, 20, asn::Rir::kApnic, "AU", 88));
  // Unused long 16-bit life.
  f.add_admin(admin_life(3, 0, 6000, asn::Rir::kRipeNcc, "RU", 99));
  f.finish();
  const Taxonomy taxonomy = classify(f.admin, f.op);
  const UnusedAnalysis analysis = analyze_unused(taxonomy, f.admin, f.op);
  EXPECT_EQ(analysis.unused_lives, 3);
  EXPECT_EQ(analysis.unused_asns, 3);
  EXPECT_EQ(analysis.never_seen_asns, 3);
  EXPECT_EQ(analysis.unused_with_active_sibling, 1);
  const auto apnic = asn::index_of(asn::Rir::kApnic);
  EXPECT_EQ(analysis.short_unused_count[apnic], 1);
  EXPECT_DOUBLE_EQ(analysis.short_unused_32bit_share[apnic], 1.0);
  // CN tops the country table with 1 of 2 lives unused.
  ASSERT_FALSE(analysis.by_country.empty());
  bool found_cn = false;
  for (const CountryUnusedRow& row : analysis.by_country)
    if (row.country.to_string() == "CN") {
      found_cn = true;
      EXPECT_EQ(row.unused_lives, 1);
      EXPECT_EQ(row.total_lives, 2);
      EXPECT_DOUBLE_EQ(row.unused_fraction(), 0.5);
    }
  EXPECT_TRUE(found_cn);
}

TEST(Outside, ClassifiesNeverAllocated) {
  Fixture f;
  f.add_admin(admin_life(32026, 0, 6000));
  f.add_op(op_life(32026, 10, 5000));
  // Prepending typo of 32026.
  f.add_op(op_life(3202632026U, 100, 105));
  // One-digit typo (insertion): 41933 -> 419333.
  f.add_admin(admin_life(41933, 0, 6000));
  f.add_op(op_life(41933, 10, 5000));
  f.add_op(op_life(419333, 200, 500));
  // Internal leak: 10-digit ASN.
  f.add_op(op_life(2900121471U, 300, 1000));
  f.finish();
  const Taxonomy taxonomy = classify(f.admin, f.op);
  const OutsideAnalysis analysis =
      analyze_never_allocated(taxonomy, f.admin, f.op);
  ASSERT_EQ(analysis.never_allocated.size(), 3u);
  std::map<std::uint32_t, NeverAllocatedKind> kinds;
  std::map<std::uint32_t, std::optional<asn::Asn>> imitated;
  for (const NeverAllocatedFinding& finding : analysis.never_allocated) {
    kinds[finding.asn.value] = finding.kind;
    imitated[finding.asn.value] = finding.imitated;
  }
  EXPECT_EQ(kinds[3202632026U], NeverAllocatedKind::kPrependTypo);
  EXPECT_EQ(imitated[3202632026U], asn::Asn{32026});
  EXPECT_EQ(kinds[419333], NeverAllocatedKind::kDigitTypo);
  EXPECT_EQ(imitated[419333], asn::Asn{41933});
  EXPECT_EQ(kinds[2900121471U], NeverAllocatedKind::kInternalLeak);
  EXPECT_EQ(analysis.large_asn_count, 1);
  EXPECT_EQ(analysis.active_over_1day, 3);
  EXPECT_EQ(analysis.active_over_1month, 2);
  EXPECT_EQ(analysis.active_over_1year, 1);  // the 701-day leak
}

TEST(Birdseye, CensusAndCrossover) {
  Fixture f;
  // RIPE grows past ARIN at day 100.
  f.add_admin(admin_life(1, 0, 1000, asn::Rir::kArin));
  f.add_admin(admin_life(2, 50, 1000, asn::Rir::kRipeNcc));
  f.add_admin(admin_life(3, 100, 1000, asn::Rir::kRipeNcc));
  f.add_op(op_life(2, 60, 900));
  f.finish();
  const DailyCensus census = compute_census(f.admin, f.op, 0, 1000);
  const auto arin = asn::index_of(asn::Rir::kArin);
  const auto ripe = asn::index_of(asn::Rir::kRipeNcc);
  EXPECT_EQ(census.admin_per_rir[arin][0], 1);
  EXPECT_EQ(census.admin_per_rir[ripe][0], 0);
  EXPECT_EQ(census.admin_per_rir[ripe][100], 2);
  EXPECT_EQ(census.admin_overall[100], 3);
  EXPECT_EQ(census.op_overall[60], 1);
  EXPECT_EQ(census.op_per_rir[ripe][60], 1);
  EXPECT_EQ(crossover_day(census.admin_per_rir[ripe],
                          census.admin_per_rir[arin], 0),
            100);
  EXPECT_EQ(crossover_day(census.admin_per_rir[arin],
                          census.admin_per_rir[ripe], 0),
            -1);
}

TEST(Birdseye, WidthCensus) {
  Fixture f;
  f.add_admin(admin_life(100, 0, 500, asn::Rir::kApnic));      // 16-bit
  f.add_admin(admin_life(200000, 100, 500, asn::Rir::kApnic)); // 32-bit
  f.finish();
  const WidthCensus census = compute_width_census(f.admin, 0, 500);
  const auto apnic = asn::index_of(asn::Rir::kApnic);
  EXPECT_EQ(census.bits16[apnic][0], 1);
  EXPECT_EQ(census.bits32[apnic][0], 0);
  EXPECT_EQ(census.bits32[apnic][100], 1);
}

TEST(Birdseye, QuarterlyBirthsAndBalance) {
  Fixture f;
  const util::Day q1 = make_day(2010, 2, 1);
  const util::Day q2 = make_day(2010, 5, 1);
  f.add_admin(admin_life(1, q1, q2 + 10, asn::Rir::kLacnic));
  f.add_admin(admin_life(2, q1 + 3, make_day(2021, 3, 1), asn::Rir::kLacnic));
  f.finish();
  const QuarterlySeries series =
      compute_quarterly(f.admin, make_day(2010, 1, 1), make_day(2011, 1, 1));
  const auto lacnic = asn::index_of(asn::Rir::kLacnic);
  EXPECT_EQ(series.births[lacnic][0], 2);
  EXPECT_EQ(series.balance[lacnic][0], 2);
  EXPECT_EQ(series.balance[lacnic][1], -1);  // death in Q2
}

TEST(Birdseye, LivesPerAsnTable) {
  Fixture f;
  f.add_admin(admin_life(1, 0, 100, asn::Rir::kArin));
  f.add_admin(admin_life(1, 300, 400, asn::Rir::kArin));
  f.add_admin(admin_life(2, 0, 400, asn::Rir::kArin));
  f.add_op(op_life(2, 10, 50));
  f.add_op(op_life(2, 100, 150));
  f.add_op(op_life(2, 200, 250));
  f.finish();
  const LivesPerAsnTable table = compute_lives_per_asn(f.admin, f.op);
  const auto arin = asn::index_of(asn::Rir::kArin);
  EXPECT_EQ(table.admin[arin].asns, 2);
  EXPECT_DOUBLE_EQ(table.admin[arin].one, 0.5);
  EXPECT_DOUBLE_EQ(table.admin[arin].two, 0.5);
  EXPECT_DOUBLE_EQ(table.op[arin].more, 1.0);  // ASN 2: three op lives
  EXPECT_EQ(table.op[arin].asns, 1);
  EXPECT_DOUBLE_EQ(table.admin_total.one, 0.5);
}

TEST(Birdseye, CountrySharesAndBirthYears) {
  Fixture f;
  f.add_admin(admin_life(1, 0, 5000, asn::Rir::kApnic, "IN"));
  f.add_admin(admin_life(2, 0, 5000, asn::Rir::kApnic, "IN"));
  f.add_admin(admin_life(3, 0, 5000, asn::Rir::kApnic, "AU"));
  f.add_admin(admin_life(4, 0, 5000, asn::Rir::kRipeNcc, "RU"));
  f.finish();
  const auto shares = country_shares_on(f.admin, asn::Rir::kApnic, 100, 5);
  ASSERT_GE(shares.size(), 2u);
  EXPECT_EQ(shares[0].country.to_string(), "IN");
  EXPECT_EQ(shares[0].count, 2);
  EXPECT_NEAR(shares[0].share, 2.0 / 3.0, 1e-9);

  const auto durations = durations_per_rir(f.admin);
  EXPECT_EQ(durations[asn::index_of(asn::Rir::kApnic)].size(), 3u);

  const BirthYearStats stats = compute_birth_year_stats(f.admin, 1970, 1971);
  EXPECT_EQ(stats.births[asn::index_of(asn::Rir::kApnic)][0], 3);
  EXPECT_EQ(
      stats.durations[asn::index_of(asn::Rir::kApnic)][0].size(), 3u);
}

TEST(Exhaustion, FindsPeaks) {
  Fixture f;
  // Two 16-bit lives: one dies mid-window, so the 16-bit count peaks while
  // both are alive; a 32-bit life is ignored by the 16-bit analysis.
  f.add_admin(admin_life(100, 0, 500, asn::Rir::kApnic));
  f.add_admin(admin_life(200, 0, 200, asn::Rir::kApnic));
  f.add_admin(admin_life(200000, 0, 500, asn::Rir::kApnic));
  f.finish();
  const DailyCensus unused_census = compute_census(f.admin, f.op, 0, 500);
  (void)unused_census;
  const WidthCensus census = compute_width_census(f.admin, 0, 500);
  const ExhaustionAnalysis analysis = analyze_16bit_exhaustion(census);
  const auto apnic = asn::index_of(asn::Rir::kApnic);
  EXPECT_EQ(analysis.peak_count[apnic], 2);
  EXPECT_EQ(analysis.peak_day[apnic], 0);
  EXPECT_EQ(analysis.global_peak_count, 2);
  // Universe: 65535 numbers minus AS0-is-not-in-range, minus 64496..65535
  // (1040 reserved), minus AS_TRANS 23456.
  EXPECT_EQ(analysis.allocatable_universe, 64494);
  EXPECT_EQ(analysis.available_at_peak, 64492);
}

}  // namespace
}  // namespace pl::joint
