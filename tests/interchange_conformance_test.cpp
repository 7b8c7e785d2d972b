// Interchange conformance: the binary wire format (`pl-dlg-bin/1`) must carry
// the exact day-observation model the generator produced. The reference is
// the in-memory stream itself (`rirsim::SimulatedArchive::stream(rir)`,
// drained through its materializing `next()`): for every seed × scale, the
// decoded observations equal the generator's, and a registry restored from
// the decoded archive equals one restored straight from the generator — in
// a plain run, under FaultStream transport chaos, and across a
// checkpoint/resume split driven from the decoded stream.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "delegation/fault_stream.hpp"
#include "delegation/interchange.hpp"
#include "restore/pipeline.hpp"
#include "rirsim/inject.hpp"
#include "rirsim/world.hpp"
#include "robust/chaos.hpp"
#include "robust/error.hpp"

namespace pl {
namespace {

/// One simulated world plus the archive generator over it, wired with the
/// same seed offsets `pipeline::run_simulated` uses.
struct World {
  rirsim::GroundTruth truth;
  rirsim::InjectorConfig injector;
};

const World& world_for(std::uint64_t seed, double scale) {
  static std::map<std::pair<std::uint64_t, double>, std::unique_ptr<World>>
      cache;
  std::unique_ptr<World>& slot = cache[{seed, scale}];
  if (slot == nullptr) {
    slot = std::make_unique<World>();
    slot->truth =
        rirsim::build_world(rirsim::WorldConfig::test_scale(seed, scale));
    slot->injector.seed = seed + 4;
    slot->injector.scale = scale;
  }
  return *slot;
}

std::vector<dele::DayObservation> drain(dele::ArchiveStream& stream) {
  std::vector<dele::DayObservation> days;
  while (std::optional<dele::DayObservation> obs = stream.next())
    days.push_back(std::move(*obs));
  return days;
}

/// Field-by-field registry comparison, so a mismatch names the first
/// diverging ASN instead of a bare inequality.
void expect_same_registry(const restore::RestoredRegistry& expected,
                          const restore::RestoredRegistry& actual,
                          asn::Rir rir) {
  ASSERT_EQ(expected.spans.size(), actual.spans.size())
      << asn::display_name(rir);
  auto expected_it = expected.spans.begin();
  auto actual_it = actual.spans.begin();
  for (; expected_it != expected.spans.end(); ++expected_it, ++actual_it) {
    ASSERT_EQ(expected_it->first, actual_it->first) << asn::display_name(rir);
    ASSERT_EQ(expected_it->second, actual_it->second)
        << asn::display_name(rir) << " asn " << expected_it->first;
  }
  EXPECT_EQ(expected.report, actual.report) << asn::display_name(rir);
}

class InterchangeConformance
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, double>> {
 protected:
  const World& world() const {
    const auto [seed, scale] = GetParam();
    return world_for(seed, scale);
  }

  dele::EncodedArchive encode(const rirsim::SimulatedArchive& archive,
                              asn::Rir rir) const {
    return dele::encode_archive(*archive.stream(rir));
  }
};

TEST_P(InterchangeConformance, DecodedObservationsMatchGeneratorStream) {
  const rirsim::SimulatedArchive archive(world().truth, world().injector);
  for (asn::Rir rir : asn::kAllRirs) {
    const std::vector<dele::DayObservation> expected =
        drain(*archive.stream(rir));
    const dele::EncodedArchive encoded = encode(archive, rir);
    auto decoded = dele::decode_archive(encoded);
    ASSERT_TRUE(decoded.ok()) << decoded.status().message();
    ASSERT_EQ(expected.size(), decoded->size()) << asn::display_name(rir);
    for (std::size_t i = 0; i < expected.size(); ++i) {
      const dele::DayObservation& e = expected[i];
      const dele::DayObservation& d = (*decoded)[i];
      ASSERT_EQ(e.day, d.day);
      const auto expect_channel_eq = [&](const dele::ChannelDelta& ec,
                                         const dele::ChannelDelta& dc) {
        EXPECT_EQ(ec.condition, dc.condition) << "day " << e.day;
        EXPECT_EQ(ec.publish_minute, dc.publish_minute) << "day " << e.day;
        ASSERT_EQ(ec.changes, dc.changes) << "day " << e.day;
        ASSERT_EQ(ec.duplicates, dc.duplicates) << "day " << e.day;
      };
      expect_channel_eq(e.extended, d.extended);
      expect_channel_eq(e.regular, d.regular);
    }
  }
}

TEST_P(InterchangeConformance, RestoredRegistriesMatchGeneratorStream) {
  const rirsim::SimulatedArchive archive(world().truth, world().injector);
  const restore::RestoreConfig config;
  for (asn::Rir rir : asn::kAllRirs) {
    const restore::RestoredRegistry expected = restore::restore_registry(
        *archive.stream(rir), config, &world().truth.erx);
    const dele::EncodedArchive encoded = encode(archive, rir);
    auto reader = dele::open_archive(encoded);
    ASSERT_TRUE(reader.ok()) << reader.status().message();
    const restore::RestoredRegistry actual =
        restore::restore_registry(**reader, config, &world().truth.erx);
    ASSERT_TRUE((*reader)->status().ok()) << (*reader)->status().message();
    expect_same_registry(expected, actual, rir);
  }
}

TEST_P(InterchangeConformance, ChaoticRestoresMatchGeneratorStream) {
  const auto [seed, scale] = GetParam();
  const rirsim::SimulatedArchive archive(world().truth, world().injector);
  const restore::RestoreConfig config;
  for (asn::Rir rir : asn::kAllRirs) {
    const robust::ChaosConfig chaos =
        robust::ChaosConfig::uniform(0.05, seed * 13 + asn::index_of(rir));

    robust::ErrorSink expected_sink;
    dele::FaultStream expected_stream(archive.stream(rir), chaos,
                                      &expected_sink);
    const restore::RestoredRegistry expected = restore::restore_registry(
        expected_stream, config, &world().truth.erx, nullptr, &expected_sink);

    const dele::EncodedArchive encoded = encode(archive, rir);
    auto reader = dele::open_archive(encoded);
    ASSERT_TRUE(reader.ok()) << reader.status().message();
    robust::ErrorSink actual_sink;
    dele::FaultStream actual_stream(std::move(*reader), chaos, &actual_sink);
    const restore::RestoredRegistry actual = restore::restore_registry(
        actual_stream, config, &world().truth.erx, nullptr, &actual_sink);

    expect_same_registry(expected, actual, rir);
    const robust::RobustnessReport& e = expected_sink.counters();
    const robust::RobustnessReport& a = actual_sink.counters();
    // Chaos must actually have exercised the fault path for the comparison
    // to mean anything.
    EXPECT_GT(e.days_dropped + e.days_duplicated + e.days_reordered, 0)
        << asn::display_name(rir);
    EXPECT_EQ(e.days_input, a.days_input);
    EXPECT_EQ(e.days_delivered, a.days_delivered);
    EXPECT_EQ(e.days_dropped, a.days_dropped);
    EXPECT_EQ(e.days_duplicated, a.days_duplicated);
    EXPECT_EQ(e.days_reordered, a.days_reordered);
    EXPECT_EQ(e.channels_corrupted, a.channels_corrupted);
    EXPECT_EQ(e.days_applied, a.days_applied);
    EXPECT_EQ(e.days_quarantined_duplicate, a.days_quarantined_duplicate);
    EXPECT_EQ(e.days_quarantined_late, a.days_quarantined_late);
    EXPECT_EQ(e.days_reorder_recovered, a.days_reorder_recovered);
    EXPECT_EQ(e.warnings, a.warnings);
    EXPECT_EQ(e.errors, a.errors);
  }
}

/// Checkpoint/resume driven from the decoded stream must land on the same
/// restored registry as an uninterrupted restore over the generator.
TEST_P(InterchangeConformance, CheckpointResumeMatchesGeneratorStream) {
  const rirsim::SimulatedArchive archive(world().truth, world().injector);
  const restore::RestoreConfig config;
  const restore::ErxDates* erx = &world().truth.erx;
  for (asn::Rir rir : asn::kAllRirs) {
    const restore::RestoredRegistry expected =
        restore::restore_registry(*archive.stream(rir), config, erx);

    const dele::EncodedArchive encoded = encode(archive, rir);
    auto reader = dele::open_archive(encoded);
    ASSERT_TRUE(reader.ok()) << reader.status().message();
    restore::StreamingRestorer first(rir, config, erx);
    const std::int64_t split = expected.report.days_processed / 2;
    std::int64_t consumed = 0;
    const dele::DayObservationView* view = nullptr;
    while (consumed < split && (view = (*reader)->next_view()) != nullptr) {
      first.consume(*view);
      ++consumed;
    }
    ASSERT_TRUE((*reader)->status().ok()) << (*reader)->status().message();

    // Simulated crash: the first restorer is abandoned mid-archive and a
    // fresh one resumes from its checkpoint over the rest of the stream.
    auto resumed = restore::StreamingRestorer::from_checkpoint(
        first.checkpoint(), config, erx);
    ASSERT_TRUE(resumed.has_value()) << asn::display_name(rir);
    while ((view = (*reader)->next_view()) != nullptr) resumed->consume(*view);
    ASSERT_TRUE((*reader)->status().ok()) << (*reader)->status().message();

    expect_same_registry(expected, std::move(*resumed).finalize(), rir);
  }
}

INSTANTIATE_TEST_SUITE_P(
    SeedsByScales, InterchangeConformance,
    ::testing::Combine(::testing::Values<std::uint64_t>(42, 7, 2026),
                       ::testing::Values(0.02, 0.05)));

}  // namespace
}  // namespace pl
