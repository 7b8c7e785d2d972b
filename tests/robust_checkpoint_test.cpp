// Checkpoint/resume for the streaming restoration pipeline: a restorer
// checkpointed at an arbitrary day boundary and resumed must produce a
// RestoredRegistry identical to an uninterrupted run — the property a
// crash-recovering daily-update deployment (paper 9) depends on. Also
// covers the checkpoint framing primitives and the misuse guard
// (consume/finalize/checkpoint on spent or moved-from restorers).
#include <gtest/gtest.h>

#include "restore/pipeline.hpp"
#include "rirsim/inject.hpp"
#include "rirsim/world.hpp"
#include "robust/checkpoint.hpp"
#include "util/crc32.hpp"

namespace pl::restore {
namespace {

using dele::DayObservation;
using rirsim::GroundTruth;

class CheckpointTest : public ::testing::Test {
 protected:
  static constexpr double kScale = 0.01;
  static constexpr asn::Rir kRir = asn::Rir::kRipeNcc;

  static const GroundTruth& truth() {
    static const GroundTruth world =
        rirsim::build_world(rirsim::WorldConfig::test_scale(17, kScale));
    return world;
  }

  /// One registry's full day stream, materialized so tests can split it.
  static const std::vector<DayObservation>& days() {
    static const std::vector<DayObservation> all = [] {
      rirsim::InjectorConfig config;
      config.seed = 5;
      config.scale = kScale;
      const rirsim::SimulatedArchive archive(truth(), config);
      std::vector<DayObservation> out;
      auto stream = archive.stream(kRir);
      while (auto observation = stream->next())
        out.push_back(std::move(*observation));
      return out;
    }();
    return all;
  }

  static RestoredRegistry run_uninterrupted(const RestoreConfig& config) {
    StreamingRestorer restorer(kRir, config, &truth().erx);
    for (const DayObservation& observation : days())
      restorer.consume(observation);
    return std::move(restorer).finalize();
  }

  static void expect_identical(const RestoredRegistry& a,
                               const RestoredRegistry& b) {
    EXPECT_EQ(a.rir, b.rir);
    EXPECT_EQ(a.report, b.report);
    ASSERT_EQ(a.spans.size(), b.spans.size());
    for (const auto& [asn, spans] : a.spans) {
      const auto it = b.spans.find(asn);
      ASSERT_NE(it, b.spans.end()) << "ASN " << asn << " missing";
      EXPECT_EQ(spans, it->second) << "spans differ for ASN " << asn;
    }
  }
};

TEST_F(CheckpointTest, ResumeAtArbitraryBoundariesIsBitIdentical) {
  const RestoreConfig config;
  const RestoredRegistry baseline = run_uninterrupted(config);
  ASSERT_FALSE(days().empty());

  // Split at several arbitrary day boundaries, including degenerate ones.
  const std::size_t total = days().size();
  const std::size_t splits[] = {0, 1, total / 7, total / 2,
                                total - 1, total};
  for (const std::size_t split : splits) {
    StreamingRestorer first(kRir, config, &truth().erx);
    for (std::size_t i = 0; i < split; ++i) first.consume(days()[i]);
    const std::string blob = first.checkpoint();
    ASSERT_FALSE(blob.empty());

    // Simulated crash: `first` is abandoned; a fresh process resumes.
    auto resumed =
        StreamingRestorer::from_checkpoint(blob, config, &truth().erx);
    ASSERT_TRUE(resumed.has_value()) << "split at " << split;
    for (std::size_t i = split; i < total; ++i)
      resumed->consume(days()[i]);
    const RestoredRegistry rebuilt = std::move(*resumed).finalize();
    expect_identical(baseline, rebuilt);
  }
}

TEST_F(CheckpointTest, ResumeWithReorderWindowPendingDays) {
  // A checkpoint taken while the reorder window still holds days back must
  // carry the pending buffer; resuming mid-window stays differential.
  RestoreConfig config;
  config.reorder_window_days = 5;
  const RestoredRegistry baseline = run_uninterrupted(config);

  const std::size_t split = days().size() / 3;
  StreamingRestorer first(kRir, config, &truth().erx);
  for (std::size_t i = 0; i < split; ++i) first.consume(days()[i]);
  // With a 5-day window at least the newest days must still be pending.
  EXPECT_LT(first.report().days_processed,
            static_cast<std::int64_t>(split));

  auto resumed = StreamingRestorer::from_checkpoint(first.checkpoint(),
                                                    config, &truth().erx);
  ASSERT_TRUE(resumed.has_value());
  for (std::size_t i = split; i < days().size(); ++i)
    resumed->consume(days()[i]);
  expect_identical(baseline, std::move(*resumed).finalize());
}

TEST_F(CheckpointTest, CheckpointsAreDeterministic) {
  const RestoreConfig config;
  const std::size_t split = days().size() / 2;

  StreamingRestorer a(kRir, config, &truth().erx);
  StreamingRestorer b(kRir, config, &truth().erx);
  for (std::size_t i = 0; i < split; ++i) {
    a.consume(days()[i]);
    b.consume(days()[i]);
  }
  const std::string blob = a.checkpoint();
  EXPECT_EQ(blob, b.checkpoint());
  // Serializing a resumed restorer reproduces the blob byte for byte.
  auto resumed =
      StreamingRestorer::from_checkpoint(blob, config, &truth().erx);
  ASSERT_TRUE(resumed.has_value());
  EXPECT_EQ(blob, resumed->checkpoint());
}

TEST_F(CheckpointTest, CorruptBlobsAreRejectedNotCrashed) {
  const RestoreConfig config;
  StreamingRestorer restorer(kRir, config, &truth().erx);
  for (std::size_t i = 0; i < days().size() / 4; ++i)
    restorer.consume(days()[i]);
  const std::string blob = restorer.checkpoint();

  robust::ErrorSink sink;
  // Bit flips across the blob (header, payload, trailer).
  for (const std::size_t position :
       {std::size_t{0}, std::size_t{5}, blob.size() / 2, blob.size() - 1}) {
    std::string damaged = blob;
    damaged[position] = static_cast<char>(damaged[position] ^ 0x40);
    EXPECT_FALSE(StreamingRestorer::from_checkpoint(damaged, config,
                                                    &truth().erx, nullptr,
                                                    &sink)
                     .has_value())
        << "flip at " << position;
  }
  // Truncations (torn writes).
  for (const std::size_t keep : {std::size_t{0}, std::size_t{3},
                                 std::size_t{20}, blob.size() - 1}) {
    EXPECT_FALSE(StreamingRestorer::from_checkpoint(blob.substr(0, keep),
                                                    config, &truth().erx,
                                                    nullptr, &sink)
                     .has_value())
        << "truncated to " << keep;
  }
  EXPECT_GT(sink.counters().checkpoint_failures, 0);
  EXPECT_GT(sink.counters().fatals, 0);

  // A different RestoreConfig must be refused — resuming under different
  // restoration rules silently changes semantics.
  RestoreConfig other;
  other.recovery_grace_days = 99;
  EXPECT_FALSE(StreamingRestorer::from_checkpoint(blob, other, &truth().erx)
                   .has_value());
}

TEST_F(CheckpointTest, SpentAndMovedFromRestorersAreMisuseSafe) {
  const RestoreConfig config;
  robust::ErrorSink sink;
  StreamingRestorer restorer(kRir, config, &truth().erx, nullptr, &sink);
  restorer.consume(days().front());
  const RestoredRegistry result = std::move(restorer).finalize();
  EXPECT_EQ(result.report.days_processed, 1);

  // consume() after finalize(): counted no-op, not UB.
  restorer.consume(days().front());
  restorer.consume(days().front());
  EXPECT_EQ(restorer.report().misuse_calls, 2);
  EXPECT_TRUE(restorer.checkpoint().empty());
  EXPECT_EQ(restorer.report().misuse_calls, 3);
  // The frozen report still carries the pre-finalize counters.
  EXPECT_EQ(restorer.report().days_processed, 1);
  EXPECT_GE(sink.counters().misuse_calls, 3);
  EXPECT_GT(sink.counters().fatals, 0);

  // Moved-from restorer: same guard.
  StreamingRestorer source(kRir, config, &truth().erx, nullptr, &sink);
  StreamingRestorer target = std::move(source);
  source.consume(days().front());
  EXPECT_EQ(source.report().misuse_calls, 1);
  target.consume(days().front());
  EXPECT_EQ(target.report().days_processed, 1);
}

// ---- Framing primitives.

TEST(CheckpointFraming, RoundTripsEveryFieldKind) {
  robust::CheckpointWriter writer;
  writer.u8(0xAB);
  writer.u16(0xBEEF);
  writer.u32(0xDEADBEEFu);
  writer.u64(0x0123456789ABCDEFull);
  writer.i32(-123456);
  writer.i64(-9876543210);
  writer.boolean(true);
  writer.varint(0);
  writer.varint(300);
  writer.varint(~0ull);
  writer.str("delegated-parsed-1997");
  const std::string blob = std::move(writer).finish();

  robust::CheckpointReader reader(blob);
  ASSERT_TRUE(reader.ok()) << reader.error();
  EXPECT_EQ(reader.u8(), 0xAB);
  EXPECT_EQ(reader.u16(), 0xBEEF);
  EXPECT_EQ(reader.u32(), 0xDEADBEEFu);
  EXPECT_EQ(reader.u64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(reader.i32(), -123456);
  EXPECT_EQ(reader.i64(), -9876543210);
  EXPECT_TRUE(reader.boolean());
  EXPECT_EQ(reader.varint(), 0u);
  EXPECT_EQ(reader.varint(), 300u);
  EXPECT_EQ(reader.varint(), ~0ull);
  EXPECT_EQ(reader.str(), "delegated-parsed-1997");
  EXPECT_TRUE(reader.at_end());
  EXPECT_TRUE(reader.ok());
}

TEST(CheckpointFraming, ReaderLatchesOnExhaustionInsteadOfOverrunning) {
  robust::CheckpointWriter writer;
  writer.u16(7);
  const std::string blob = std::move(writer).finish();
  robust::CheckpointReader reader(blob);
  EXPECT_EQ(reader.u16(), 7);
  EXPECT_EQ(reader.u64(), 0u);  // exhausted: zero value, latched failure
  EXPECT_FALSE(reader.ok());
  EXPECT_EQ(reader.u8(), 0u);   // still safe
}

TEST(CheckpointFraming, HostileContainerCountsAreRejectedBeforeAllocation) {
  // A corrupted count must fail the bounds check, not drive a giant
  // reserve/allocate loop.
  robust::CheckpointWriter writer;
  writer.varint(~0ull >> 1);  // claims ~9e18 items
  writer.u32(1);
  const std::string blob = std::move(writer).finish();
  robust::CheckpointReader reader(blob);
  EXPECT_EQ(reader.container_size(4), 0u);
  EXPECT_FALSE(reader.ok());
}

TEST(CheckpointFraming, Crc32MatchesKnownVector) {
  // IEEE 802.3 check value for "123456789".
  EXPECT_EQ(util::crc32("123456789"), 0xCBF43926u);
}

}  // namespace
}  // namespace pl::restore
