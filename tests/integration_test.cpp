// End-to-end pipeline validation against simulator ground truth: the whole
// paper reproduction at small scale — world, archive, restoration, both
// lifetime datasets, taxonomy, and the squatting detector — with the
// simulator's labels as the referee.
#include <gtest/gtest.h>

#include "bgpsim/route_gen.hpp"
#include "joint/outside.hpp"
#include "joint/partial.hpp"
#include "joint/squat.hpp"
#include "joint/taxonomy.hpp"
#include "joint/unused.hpp"
#include "joint/utilization.hpp"
#include "lifetimes/sensitivity.hpp"
#include "util/stats.hpp"
#include "restore/pipeline.hpp"
#include "rirsim/inject.hpp"
#include "rirsim/world.hpp"

namespace pl {
namespace {

constexpr double kScale = 0.05;
constexpr std::uint64_t kSeed = 1234;

struct Pipeline {
  rirsim::GroundTruth truth;
  bgpsim::OpWorld op_world;
  restore::RestoredArchive restored;
  lifetimes::AdminDataset admin;
  lifetimes::OpDataset op;
  joint::Taxonomy taxonomy;

  Pipeline() {
    truth = rirsim::build_world(rirsim::WorldConfig::test_scale(kSeed,
                                                                kScale));
    bgpsim::OpWorldConfig op_config;
    op_config.behavior.seed = kSeed + 1;
    op_config.attacks.seed = kSeed + 2;
    op_config.attacks.scale = kScale;
    // Enough post-deallocation hijacks for a meaningful recall measurement
    // at this small scale (the paper-scale default of 9 would yield one).
    op_config.attacks.post_deallocation_events = 200;
    op_config.misconfigs.seed = kSeed + 3;
    op_config.misconfigs.scale = kScale;
    op_world = bgpsim::build_op_world(truth, op_config);

    rirsim::InjectorConfig injector;
    injector.seed = kSeed + 4;
    injector.scale = kScale;
    const rirsim::SimulatedArchive archive(truth, injector);
    std::array<std::unique_ptr<dele::ArchiveStream>, asn::kRirCount> streams;
    for (asn::Rir rir : asn::kAllRirs)
      streams[asn::index_of(rir)] = archive.stream(rir);
    restored = restore::restore_archive(
        std::move(streams), restore::RestoreConfig{}, &truth.erx,
        [this](asn::Asn a) { return truth.iana.owner(a); },
        truth.archive_begin, &op_world.activity);

    admin = lifetimes::build_admin_lifetimes(restored, truth.archive_end);
    op = lifetimes::build_op_lifetimes(op_world.activity);
    taxonomy = joint::classify(admin, op);
  }
};

class IntegrationTest : public ::testing::Test {
 protected:
  static const Pipeline& pipeline() {
    static const Pipeline instance;
    return instance;
  }
};

TEST_F(IntegrationTest, AdminLifetimeCountMatchesObservableTruth) {
  // Truth lives overlapping the archive window (per-registry file eras)
  // are what the pipeline can observe.
  std::size_t observable = 0;
  for (const rirsim::TrueAdminLife& life : pipeline().truth.lives) {
    for (const rirsim::RegistrySegment& segment : life.segments) {
      const asn::RirFacts& facts = asn::facts(segment.rir);
      if (segment.days.last >= facts.first_regular_file &&
          segment.days.first <= pipeline().truth.archive_end) {
        ++observable;
        break;
      }
    }
  }
  const auto recovered = pipeline().admin.lifetimes.size();
  EXPECT_NEAR(static_cast<double>(recovered),
              static_cast<double>(observable),
              0.03 * static_cast<double>(observable))
      << recovered << " vs " << observable;
}

TEST_F(IntegrationTest, AdminLivesPerAsnNeverOverlap) {
  const auto& lives = pipeline().admin.lifetimes;
  for (std::size_t i = 1; i < lives.size(); ++i)
    if (lives[i - 1].asn == lives[i].asn) {
      EXPECT_LT(lives[i - 1].days.last, lives[i].days.first)
          << lives[i].asn.value;
    }
}

TEST_F(IntegrationTest, TaxonomyIsAPartition) {
  const joint::Taxonomy& taxonomy = pipeline().taxonomy;
  EXPECT_EQ(taxonomy.total_admin(),
            static_cast<std::int64_t>(pipeline().admin.lifetimes.size()));
  EXPECT_EQ(taxonomy.total_op(),
            static_cast<std::int64_t>(pipeline().op.lifetimes.size()));
  EXPECT_EQ(taxonomy.admin_counts[3], 0);  // no admin life is "outside"
  EXPECT_EQ(taxonomy.op_counts[2], 0);     // no op life is "unused"
}

TEST_F(IntegrationTest, TaxonomyFractionsMatchPaperShape) {
  const joint::Taxonomy& taxonomy = pipeline().taxonomy;
  const double total = static_cast<double>(taxonomy.total_admin());
  const double complete =
      static_cast<double>(taxonomy.admin_counts[0]) / total;
  const double partial =
      static_cast<double>(taxonomy.admin_counts[1]) / total;
  const double unused = static_cast<double>(taxonomy.admin_counts[2]) / total;
  // Paper: 78.6% / 3.4% / 17.9%.
  EXPECT_NEAR(complete, 0.786, 0.05);
  EXPECT_NEAR(partial, 0.034, 0.02);
  EXPECT_NEAR(unused, 0.179, 0.04);
  EXPECT_GT(taxonomy.op_counts[3], 0);  // outside-delegation lives exist
}

TEST_F(IntegrationTest, UnusedLivesMatchBehaviorGroundTruth) {
  // Every taxonomy-unused admin life should correspond to a truth life
  // whose behaviour produced no visible activity, and vice versa (modulo
  // boundary effects). Check aggregate counts within 10%.
  std::size_t truth_unused = 0;
  for (std::size_t i = 0; i < pipeline().truth.lives.size(); ++i) {
    const rirsim::TrueAdminLife& life = pipeline().truth.lives[i];
    if (life.days.last < pipeline().truth.archive_begin) continue;
    const util::IntervalSet* activity =
        pipeline().op_world.activity.activity(life.asn);
    if (activity == nullptr ||
        activity->covered_days(life.days) == 0)
      ++truth_unused;
  }
  const auto measured =
      static_cast<std::size_t>(pipeline().taxonomy.admin_counts[2]);
  EXPECT_NEAR(static_cast<double>(measured),
              static_cast<double>(truth_unused),
              0.1 * static_cast<double>(truth_unused))
      << measured << " vs " << truth_unused;
}

TEST_F(IntegrationTest, SquatDetectorRecallsInjectedAttacks) {
  const auto candidates = joint::detect_dormant_squats(
      pipeline().taxonomy, pipeline().admin, pipeline().op);
  std::set<std::uint32_t> flagged;
  for (const joint::SquatCandidate& candidate : candidates)
    flagged.insert(candidate.asn.value);

  std::size_t dormant_attacks = 0;
  std::size_t caught = 0;
  for (const bgpsim::SquatEvent& event : pipeline().op_world.attacks.events) {
    if (event.post_deallocation) continue;
    ++dormant_attacks;
    if (flagged.contains(event.asn.value)) ++caught;
  }
  ASSERT_GT(dormant_attacks, 0u);
  // The detector's thresholds were designed for exactly this behaviour:
  // high recall expected (the paper's filter caught all its case studies).
  EXPECT_GE(static_cast<double>(caught) /
                static_cast<double>(dormant_attacks),
            0.75)
      << caught << "/" << dormant_attacks;
  // And it also catches benign dormant awakenings (the paper's 3,051
  // candidates vastly exceed the ~76 confirmed malicious): candidates
  // outnumber attacks.
  EXPECT_GT(candidates.size(), dormant_attacks);
}

TEST_F(IntegrationTest, PostDeallocationHijacksLandOutsideDelegation) {
  const auto outside = joint::detect_outside_delegation_activity(
      pipeline().taxonomy, pipeline().admin, pipeline().op);
  std::set<std::uint32_t> outside_asns;
  for (const joint::SquatCandidate& candidate : outside)
    outside_asns.insert(candidate.asn.value);
  std::size_t events = 0;
  std::size_t found = 0;
  for (const bgpsim::SquatEvent& event : pipeline().op_world.attacks.events) {
    if (!event.post_deallocation) continue;
    ++events;
    if (outside_asns.contains(event.asn.value)) ++found;
  }
  ASSERT_GE(events, 2u);
  // A few events can be masked when missing files at the life's end let the
  // restored span extend past the true deallocation; most must be caught.
  EXPECT_GE(static_cast<double>(found) / static_cast<double>(events), 0.6)
      << found << "/" << events;
}

TEST_F(IntegrationTest, MisconfigsClassifiedFromNumbersAlone) {
  const joint::OutsideAnalysis analysis = joint::analyze_never_allocated(
      pipeline().taxonomy, pipeline().admin, pipeline().op);
  std::map<std::uint32_t, joint::NeverAllocatedKind> classified;
  for (const joint::NeverAllocatedFinding& finding :
       analysis.never_allocated)
    classified[finding.asn.value] = finding.kind;

  std::size_t events = 0;
  std::size_t matching = 0;
  for (const bgpsim::MisconfigEvent& event :
       pipeline().op_world.misconfigs.events) {
    const auto it = classified.find(event.bogus_origin.value);
    if (it == classified.end()) continue;  // activity below visibility
    ++events;
    const bool match =
        (event.kind == bgpsim::MisconfigKind::kPrependTypo &&
         it->second == joint::NeverAllocatedKind::kPrependTypo) ||
        (event.kind == bgpsim::MisconfigKind::kDigitTypo &&
         it->second == joint::NeverAllocatedKind::kDigitTypo) ||
        (event.kind == bgpsim::MisconfigKind::kInternalLeak &&
         it->second == joint::NeverAllocatedKind::kInternalLeak);
    if (match) ++matching;
  }
  ASSERT_GT(events, 5u);
  EXPECT_GE(static_cast<double>(matching) / static_cast<double>(events),
            0.8)
      << matching << "/" << events;
}

TEST_F(IntegrationTest, PartialOverlapDanglingDominates) {
  const joint::PartialOverlapAnalysis analysis =
      joint::analyze_partial_overlap(pipeline().taxonomy, pipeline().admin,
                                     pipeline().op);
  ASSERT_GT(analysis.partial_admin_lives, 0);
  // Paper: ~64% of the category are dangling announcements.
  EXPECT_GT(analysis.dangling_lives, analysis.partial_admin_lives / 3);
  EXPECT_GT(analysis.early_starts, 0);
}

TEST_F(IntegrationTest, ThirtyDayTimeoutSitsNearPaperFractions) {
  const lifetimes::TimeoutChoice choice = lifetimes::evaluate_choice(
      pipeline().op_world.activity, pipeline().admin, 30);
  // Paper: 70.1% of gaps, 83% of admin lives.
  EXPECT_NEAR(choice.gap_fraction, 0.701, 0.08);
  EXPECT_NEAR(choice.one_or_less_fraction, 0.83, 0.08);
}

TEST_F(IntegrationTest, UtilizationShapeMatchesFig7) {
  const joint::UtilizationAnalysis analysis = joint::analyze_utilization(
      pipeline().taxonomy, pipeline().admin, pipeline().op);
  ASSERT_GT(analysis.ratios.size(), 100u);
  const util::Ecdf ecdf{std::vector<double>(analysis.ratios.begin(),
                                            analysis.ratios.end())};
  // Paper: ~70% of lives used > 75% of their duration; ~10% below 30%.
  EXPECT_NEAR(1.0 - ecdf.at(0.75), 0.70, 0.08);
  EXPECT_NEAR(ecdf.at(0.30), 0.10, 0.05);
}

TEST_F(IntegrationTest, ChinaTopsUnusedConcentration) {
  const joint::UnusedAnalysis analysis = joint::analyze_unused(
      pipeline().taxonomy, pipeline().admin, pipeline().op);
  // Among countries with enough allocations, CN must show the highest
  // unused fraction (paper: 50.6% vs <15% runners-up).
  double cn_fraction = 0;
  double best_other = 0;
  for (const joint::CountryUnusedRow& row : analysis.by_country) {
    if (row.total_lives < 30) continue;
    if (row.country.to_string() == "CN")
      cn_fraction = row.unused_fraction();
    else
      best_other = std::max(best_other, row.unused_fraction());
  }
  EXPECT_GT(cn_fraction, 0.4);
  EXPECT_GT(cn_fraction, best_other);
}

TEST_F(IntegrationTest, DeterministicAcrossRuns) {
  const Pipeline second;
  EXPECT_EQ(second.admin.lifetimes.size(),
            pipeline().admin.lifetimes.size());
  EXPECT_EQ(second.op.lifetimes.size(), pipeline().op.lifetimes.size());
  EXPECT_EQ(second.taxonomy.admin_counts, pipeline().taxonomy.admin_counts);
  EXPECT_EQ(second.taxonomy.op_counts, pipeline().taxonomy.op_counts);
}

}  // namespace
}  // namespace pl
