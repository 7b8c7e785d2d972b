// Seed-robustness sweep: the full pipeline must satisfy its structural
// invariants — and stay within coarse calibration bands — for any seed, not
// just the tuned defaults. Catches calibration fragility.
#include <gtest/gtest.h>

#include "bgpsim/route_gen.hpp"
#include "joint/taxonomy.hpp"
#include "restore/pipeline.hpp"
#include "rirsim/inject.hpp"
#include "rirsim/world.hpp"

namespace pl {
namespace {

class SeedSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SeedSweep, PipelineInvariantsHoldForAnySeed) {
  const std::uint64_t seed = GetParam();
  constexpr double kScale = 0.03;

  const rirsim::GroundTruth truth =
      rirsim::build_world(rirsim::WorldConfig::test_scale(seed, kScale));
  ASSERT_GT(truth.lives.size(), 1000u);

  bgpsim::OpWorldConfig op_config;
  op_config.behavior.seed = seed * 3 + 1;
  op_config.attacks.seed = seed * 5 + 2;
  op_config.attacks.scale = kScale;
  op_config.misconfigs.seed = seed * 7 + 3;
  op_config.misconfigs.scale = kScale;
  const bgpsim::OpWorld op_world = bgpsim::build_op_world(truth, op_config);

  rirsim::InjectorConfig injector;
  injector.seed = seed * 11 + 4;
  injector.scale = kScale;
  const rirsim::SimulatedArchive archive(truth, injector);
  std::array<std::unique_ptr<dele::ArchiveStream>, asn::kRirCount> streams;
  for (asn::Rir rir : asn::kAllRirs)
    streams[asn::index_of(rir)] = archive.stream(rir);
  const restore::RestoredArchive restored = restore::restore_archive(
      std::move(streams), restore::RestoreConfig{}, &truth.erx,
      [&](asn::Asn a) { return truth.iana.owner(a); }, truth.archive_begin,
      &op_world.activity);

  const lifetimes::AdminDataset admin =
      lifetimes::build_admin_lifetimes(restored, truth.archive_end);
  const lifetimes::OpDataset op =
      lifetimes::build_op_lifetimes(op_world.activity);
  const joint::Taxonomy taxonomy = joint::classify(admin, op);

  // Structural invariants.
  EXPECT_EQ(taxonomy.total_admin(),
            static_cast<std::int64_t>(admin.lifetimes.size()));
  EXPECT_EQ(taxonomy.total_op(),
            static_cast<std::int64_t>(op.lifetimes.size()));
  for (std::size_t i = 1; i < admin.lifetimes.size(); ++i)
    if (admin.lifetimes[i - 1].asn == admin.lifetimes[i].asn) {
      ASSERT_LT(admin.lifetimes[i - 1].days.last,
                admin.lifetimes[i].days.first)
          << "seed " << seed << " asn " << admin.lifetimes[i].asn.value;
    }

  // Coarse calibration bands (wider than the tuned-seed integration test).
  const double total = static_cast<double>(taxonomy.total_admin());
  EXPECT_NEAR(static_cast<double>(taxonomy.admin_counts[0]) / total, 0.786,
              0.08);
  EXPECT_NEAR(static_cast<double>(taxonomy.admin_counts[1]) / total, 0.034,
              0.03);
  EXPECT_NEAR(static_cast<double>(taxonomy.admin_counts[2]) / total, 0.179,
              0.07);
  EXPECT_GT(taxonomy.op_counts[3], 0);

  // The recovered lifetime count tracks the observable truth within 5%.
  std::size_t observable = 0;
  for (const rirsim::TrueAdminLife& life : truth.lives)
    for (const rirsim::RegistrySegment& segment : life.segments) {
      const asn::RirFacts& facts = asn::facts(segment.rir);
      if (segment.days.last >= facts.first_regular_file &&
          segment.days.first <= truth.archive_end) {
        ++observable;
        break;
      }
    }
  EXPECT_NEAR(static_cast<double>(admin.lifetimes.size()),
              static_cast<double>(observable),
              0.05 * static_cast<double>(observable));
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeedSweep,
                         ::testing::Values(2026, 777, 31415));

}  // namespace
}  // namespace pl
