// Durable serving: snapshot persistence round-trips bit-identically,
// corruption in every flavor is rejected (never silently loaded), the WAL
// append/replay cycle reconstructs exact state, retries are deterministic,
// and the DurableService surfaces an accurate HealthReport.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>

#include "history/store.hpp"
#include "pipeline/pipeline.hpp"
#include "robust/checkpoint.hpp"
#include "serve/durable.hpp"
#include "serve/serving.hpp"
#include "serve/snapshot.hpp"

namespace pl::serve {
namespace {

// World slicing lives on HistoryStore.
constexpr auto slice_day = &history::HistoryStore::slice_day;
constexpr auto truncate_archive = &history::HistoryStore::truncate_archive;
constexpr auto truncate_activity = &history::HistoryStore::truncate_activity;

pipeline::Config small_config() {
  pipeline::Config config;
  config.seed = 99;
  config.scale = 0.01;
  return config;
}

const pipeline::Result& small_pipeline() {
  static const pipeline::Result result = pipeline::run_simulated(small_config());
  return result;
}

Snapshot small_snapshot() {
  const pipeline::Result& result = small_pipeline();
  return Snapshot::build(result.restored, result.op_world.activity,
                         result.truth.archive_end);
}

std::string temp_dir(const std::string& name) {
  const std::string dir = testing::TempDir() + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

std::string read_all(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

void write_all(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

TEST(DurableSnapshot, RoundTripsBitIdentically) {
  const std::string dir = temp_dir("durable_roundtrip");
  const std::string path = dir + "/snap.plsnap";
  const Snapshot original = small_snapshot();
  ASSERT_TRUE(original.can_advance());

  ASSERT_TRUE(save_snapshot(original, path).ok());
  auto reopened = open_snapshot(path);
  ASSERT_TRUE(reopened.ok()) << reopened.status().to_string();
  // Deep equality: rows, config, derived indexes AND the working set, so
  // the reopened snapshot can keep advancing.
  EXPECT_TRUE(*reopened == original);
  EXPECT_TRUE(reopened->can_advance());
}

TEST(DurableSnapshot, QueryOnlySnapshotRoundTrips) {
  const pipeline::Result& result = small_pipeline();
  SnapshotConfig config;
  config.keep_working_set = false;
  const Snapshot original =
      Snapshot::build(result.restored, result.op_world.activity,
                      result.truth.archive_end, config);
  const std::string dir = temp_dir("durable_queryonly");
  const std::string path = dir + "/snap.plsnap";
  ASSERT_TRUE(save_snapshot(original, path).ok());
  auto reopened = open_snapshot(path);
  ASSERT_TRUE(reopened.ok());
  EXPECT_TRUE(*reopened == original);
  EXPECT_FALSE(reopened->can_advance());
}

TEST(DurableSnapshot, MissingFileIsNotFound) {
  EXPECT_EQ(open_snapshot(testing::TempDir() + "no_such_snap").status().code(),
            pl::StatusCode::kNotFound);
}

TEST(DurableSnapshot, TruncationIsRejectedAtEveryPrefix) {
  const std::string dir = temp_dir("durable_truncate");
  const std::string path = dir + "/snap.plsnap";
  ASSERT_TRUE(save_snapshot(small_snapshot(), path).ok());
  const std::string bytes = read_all(path);
  ASSERT_GT(bytes.size(), 64u);

  // A sweep of prefix lengths, including the header-only and mid-payload
  // cases a torn write would leave behind.
  for (const std::size_t keep :
       {std::size_t{0}, std::size_t{3}, std::size_t{15}, std::size_t{16},
        std::size_t{64}, bytes.size() / 2, bytes.size() - 1}) {
    write_all(path, bytes.substr(0, keep));
    const auto status = open_snapshot(path).status();
    EXPECT_EQ(status.code(), pl::StatusCode::kDataLoss)
        << "prefix " << keep << " loaded: " << status.to_string();
  }
}

TEST(DurableSnapshot, BitFlipsAreRejected) {
  const std::string dir = temp_dir("durable_bitflip");
  const std::string path = dir + "/snap.plsnap";
  ASSERT_TRUE(save_snapshot(small_snapshot(), path).ok());
  const std::string bytes = read_all(path);

  for (const std::size_t at :
       {std::size_t{0}, std::size_t{8}, std::size_t{20}, bytes.size() / 2,
        bytes.size() - 1}) {
    std::string flipped = bytes;
    flipped[at] = static_cast<char>(flipped[at] ^ 0x40);
    write_all(path, flipped);
    EXPECT_EQ(open_snapshot(path).status().code(), pl::StatusCode::kDataLoss)
        << "flip at " << at << " was not detected";
  }
}

TEST(DurableSnapshot, PayloadVersionSkewIsRejected) {
  // A frame with a VALID checksum but a future payload schema version:
  // the frame layer passes, the codec must still refuse to interpret it.
  robust::CheckpointWriter writer;
  writer.u32(kSnapshotFormatVersion + 1);
  writer.i32(123);
  const std::string dir = temp_dir("durable_skew");
  const std::string path = dir + "/snap.plsnap";
  write_all(path, std::move(writer).finish());

  const auto status = open_snapshot(path).status();
  EXPECT_EQ(status.code(), pl::StatusCode::kDataLoss);
  EXPECT_NE(status.message().find("version skew"), std::string::npos);
}

TEST(DurableSnapshot, SaveIsAtomicOverExistingFile) {
  const std::string dir = temp_dir("durable_atomic");
  const std::string path = dir + "/snap.plsnap";
  const Snapshot original = small_snapshot();
  ASSERT_TRUE(save_snapshot(original, path).ok());

  // A crash halfway through the NEXT save must leave the previous bytes
  // untouched (the torn write lands in the .tmp sibling).
  robust::CrashPoints crash;
  crash.arm("durable.checkpoint.torn_tmp");
  EXPECT_FALSE(save_snapshot(original, path, &crash).ok());
  EXPECT_TRUE(crash.fired());
  auto reopened = open_snapshot(path);
  ASSERT_TRUE(reopened.ok()) << reopened.status().to_string();
  EXPECT_TRUE(*reopened == original);
}

TEST(DurableWal, AppendReplayRoundTrips) {
  const pipeline::Result& result = small_pipeline();
  const util::Day end = result.truth.archive_end;
  const std::string dir = temp_dir("wal_roundtrip");
  const std::string path = dir + "/days.plwal";

  std::vector<DayDelta> days;
  for (util::Day day = end - 4; day <= end; ++day) {
    days.push_back(slice_day(result.restored, result.op_world.activity, day));
    ASSERT_TRUE(append_wal(path, days.back()).ok());
  }
  auto replay = replay_wal(path);
  ASSERT_TRUE(replay.ok());
  EXPECT_EQ(replay->valid_records, 5);
  EXPECT_EQ(replay->corrupt_records, 0);
  EXPECT_FALSE(replay->torn_tail);
  ASSERT_EQ(replay->deltas.size(), days.size());
  for (std::size_t i = 0; i < days.size(); ++i)
    EXPECT_EQ(replay->deltas[i], days[i]) << "record " << i;
}

TEST(DurableWal, TornTailIsDroppedNotFatal) {
  const pipeline::Result& result = small_pipeline();
  const util::Day end = result.truth.archive_end;
  const std::string dir = temp_dir("wal_torn");
  const std::string path = dir + "/days.plwal";

  const DayDelta first =
      slice_day(result.restored, result.op_world.activity, end - 1);
  ASSERT_TRUE(append_wal(path, first).ok());
  robust::CrashPoints crash;
  crash.arm("durable.wal.torn_append");
  const DayDelta second =
      slice_day(result.restored, result.op_world.activity, end);
  EXPECT_FALSE(append_wal(path, second, &crash).ok());

  auto replay = replay_wal(path);
  ASSERT_TRUE(replay.ok());
  EXPECT_EQ(replay->valid_records, 1);
  ASSERT_EQ(replay->deltas.size(), 1u);
  EXPECT_EQ(replay->deltas[0], first);
  EXPECT_TRUE(replay->torn_tail);
  EXPECT_GT(replay->dropped_bytes, 0);
}

TEST(DurableWal, CorruptMiddleRecordIsSkippedWithAccounting) {
  const pipeline::Result& result = small_pipeline();
  const util::Day end = result.truth.archive_end;
  const std::string dir = temp_dir("wal_corrupt_mid");
  const std::string path = dir + "/days.plwal";

  std::vector<std::size_t> sizes;
  for (util::Day day = end - 2; day <= end; ++day) {
    const DayDelta delta =
        slice_day(result.restored, result.op_world.activity, day);
    ASSERT_TRUE(append_wal(path, delta).ok());
    sizes.push_back(read_all(path).size());
  }
  // Flip one byte inside the SECOND record's payload; frame boundaries
  // stay parseable, so replay should skip exactly that record.
  std::string bytes = read_all(path);
  bytes[sizes[0] + 24] = static_cast<char>(bytes[sizes[0] + 24] ^ 0x01);
  write_all(path, bytes);

  auto replay = replay_wal(path);
  ASSERT_TRUE(replay.ok());
  EXPECT_EQ(replay->valid_records, 2);
  EXPECT_EQ(replay->corrupt_records, 1);
  EXPECT_FALSE(replay->torn_tail);
  ASSERT_EQ(replay->deltas.size(), 2u);
  EXPECT_EQ(replay->deltas[0].day, end - 2);
  EXPECT_EQ(replay->deltas[1].day, end);
}

TEST(DurableRetry, TransientUnavailableIsRetriedDeterministically) {
  int calls = 0;
  const SnapshotLoader loader = [&calls]() -> pl::StatusOr<Snapshot> {
    ++calls;
    if (calls < 3) return pl::unavailable_error("transient");
    return Snapshot{};
  };
  VirtualClock clock;
  RetryPolicy policy;
  policy.max_attempts = 4;
  policy.base_delay_ms = 50;
  policy.max_delay_ms = 2000;
  int attempts = 0;
  auto loaded = load_with_retry(loader, policy, clock, &attempts);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(calls, 3);
  EXPECT_EQ(attempts, 3);
  // Virtual backoff: 50ms then 100ms — exact, no wall clock involved.
  EXPECT_EQ(clock.now_ms(), 150);
}

TEST(DurableRetry, GivesUpAfterMaxAttemptsAndCapsBackoff) {
  int calls = 0;
  const SnapshotLoader loader = [&calls]() -> pl::StatusOr<Snapshot> {
    ++calls;
    return pl::unavailable_error("still down");
  };
  VirtualClock clock;
  RetryPolicy policy;
  policy.max_attempts = 5;
  policy.base_delay_ms = 800;
  policy.max_delay_ms = 1000;
  auto loaded = load_with_retry(loader, policy, clock);
  EXPECT_EQ(loaded.status().code(), pl::StatusCode::kUnavailable);
  EXPECT_EQ(calls, 5);
  // 800 + 1000 + 1000 + 1000: the cap kicks in after the first doubling.
  EXPECT_EQ(clock.now_ms(), 3800);
}

TEST(DurableRetry, PermanentErrorsAreNotRetried) {
  int calls = 0;
  const SnapshotLoader loader = [&calls]() -> pl::StatusOr<Snapshot> {
    ++calls;
    return pl::data_loss_error("corrupt");
  };
  VirtualClock clock;
  auto loaded = load_with_retry(loader, RetryPolicy{}, clock);
  EXPECT_EQ(loaded.status().code(), pl::StatusCode::kDataLoss);
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(clock.now_ms(), 0);
}

TEST(DurableService, AdvancesAndRecoversAcrossReopen) {
  const pipeline::Config config = small_config();
  const pipeline::Result extended = pipeline::run_simulated(config);
  const util::Day end = extended.truth.archive_end;
  const util::Day start = end - 10;

  Snapshot base = Snapshot::build(truncate_archive(extended.restored, start),
                                  truncate_activity(extended.op_world.activity, start),
                                  start);
  const std::string dir = temp_dir("durable_service");
  DurableConfig durable;
  durable.dir = dir;
  durable.checkpoint_every_days = 4;

  {
    auto service = DurableService::open(std::move(base), durable);
    ASSERT_TRUE(service.ok()) << service.status().to_string();
    for (util::Day day = start + 1; day <= end - 5; ++day) {
      const DayDelta delta =
          slice_day(extended.restored, extended.op_world.activity, day);
      ASSERT_TRUE(service->advance_day(delta).ok());
    }
    EXPECT_EQ(service->archive_end(), end - 5);
    const HealthReport health = service->health();
    EXPECT_FALSE(health.degraded);
    EXPECT_EQ(health.last_durable_day, end - 5);
    // checkpoint_every_days = 4 over 5 folded days: one checkpoint fired,
    // one day still rides the WAL.
    EXPECT_EQ(health.wal_records, 1);
  }

  // Reopen from disk only (bootstrap deliberately empty) and keep going.
  auto reopened = DurableService::open(Snapshot{}, durable);
  ASSERT_TRUE(reopened.ok()) << reopened.status().to_string();
  EXPECT_EQ(reopened->archive_end(), end - 5);
  EXPECT_FALSE(reopened->health().degraded);
  for (util::Day day = end - 4; day <= end; ++day) {
    const DayDelta delta =
        slice_day(extended.restored, extended.op_world.activity, day);
    ASSERT_TRUE(reopened->advance_day(delta).ok());
  }
  const Snapshot full = Snapshot::build(extended.restored,
                                        extended.op_world.activity, end);
  EXPECT_TRUE(reopened->snapshot() == full);
}

TEST(DurableService, MisSequencedDayNeverLandsInTheWal) {
  const std::string dir = temp_dir("durable_missequence");
  DurableConfig durable;
  durable.dir = dir;
  auto service = DurableService::open(small_snapshot(), durable);
  ASSERT_TRUE(service.ok());
  const util::Day end = service->archive_end();

  DayDelta wrong;
  wrong.day = end + 7;
  EXPECT_EQ(service->advance_day(wrong).code(),
            pl::StatusCode::kInvalidArgument);
  // Nothing was acknowledged, so nothing may be durable: the WAL is absent
  // or empty and health is clean.
  auto replay = replay_wal(service->wal_path());
  if (replay.ok()) {
    EXPECT_EQ(replay->valid_records, 0);
  }
  EXPECT_FALSE(service->health().degraded);
}

TEST(DurableService, QuarantinedDayDegradesButKeepsServing) {
  const pipeline::Config config = small_config();
  const pipeline::Result extended = pipeline::run_simulated(config);
  const util::Day end = extended.truth.archive_end;
  const std::string dir = temp_dir("durable_quarantine");

  DurableConfig durable;
  durable.dir = dir;
  Snapshot base = Snapshot::build(truncate_archive(extended.restored, end - 2),
                                  truncate_activity(extended.op_world.activity, end - 2),
                                  end - 2);
  auto service = DurableService::open(std::move(base), durable);
  ASSERT_TRUE(service.ok());

  // A delta with the right day number but a duplicate (registry, ASN) fact
  // appends to the WAL, then fails the fold — exactly the quarantine path.
  DayDelta poisoned =
      slice_day(extended.restored, extended.op_world.activity, end - 1);
  ASSERT_FALSE(poisoned.delegation.empty());
  poisoned.delegation.push_back(poisoned.delegation.front());
  EXPECT_FALSE(service->advance_day(poisoned).ok());

  const HealthReport health = service->health();
  EXPECT_TRUE(health.degraded);
  ASSERT_EQ(health.quarantined_days.size(), 1u);
  EXPECT_EQ(health.quarantined_days[0], end - 1);
  EXPECT_EQ(health.last_durable_day, end - 2);
  EXPECT_FALSE(health.last_error.empty());

  // Still answering queries from the last good state.
  EXPECT_EQ(service->archive_end(), end - 2);
  auto census = service->queries().query(Query::census(end - 2));
  ASSERT_TRUE(census.ok()) << census.status().to_string();
  ASSERT_TRUE(census->census.has_value());
  EXPECT_EQ(census->census->day, end - 2);

  // Reopen replays the poisoned record, quarantines it again, and reports
  // the same degradation — deterministic recovery, no silent skip.
  auto reopened = DurableService::open(Snapshot{}, durable);
  ASSERT_TRUE(reopened.ok());
  const HealthReport after = reopened->health();
  EXPECT_TRUE(after.degraded);
  ASSERT_EQ(after.quarantined_days.size(), 1u);
  EXPECT_EQ(after.quarantined_days[0], end - 1);
  EXPECT_EQ(reopened->archive_end(), end - 2);
}

TEST(DurableService, CorruptSnapshotFallsBackToBootstrapAndReports) {
  const std::string dir = temp_dir("durable_snapcorrupt");
  DurableConfig durable;
  durable.dir = dir;
  const Snapshot bootstrap = small_snapshot();
  {
    auto service = DurableService::open(bootstrap, durable);
    ASSERT_TRUE(service.ok());
  }
  // Flip a payload byte: the next open must reject the file, fall back to
  // the bootstrap snapshot, and say so in health + metrics.
  const std::string path = dir + "/snapshot.plsnap";
  std::string bytes = read_all(path);
  bytes[bytes.size() / 2] ^= 0x10;
  write_all(path, bytes);

  auto reopened = DurableService::open(bootstrap, durable);
  ASSERT_TRUE(reopened.ok()) << reopened.status().to_string();
  const HealthReport health = reopened->health();
  EXPECT_TRUE(health.degraded);
  EXPECT_TRUE(health.snapshot_rejected);
  EXPECT_FALSE(health.last_error.empty());
  EXPECT_TRUE(reopened->snapshot() == bootstrap);
#ifndef PL_OBS_OFF
  const obs::Report report = reopened->report();
  EXPECT_EQ(report.metrics.counter_value("pl_serve_snapshot_rejected"), 1);
  ASSERT_EQ(report.metrics.gauges.count("pl_serve_degraded"), 1u);
  EXPECT_EQ(report.metrics.gauges.at("pl_serve_degraded"), 1);
#endif
}

TEST(DurableService, TransientLoaderErrorsAreRetriedOnOpen) {
  const std::string dir = temp_dir("durable_loader_retry");
  const Snapshot bootstrap = small_snapshot();
  int calls = 0;
  DurableConfig durable;
  durable.dir = dir;
  durable.loader = [&calls, &bootstrap]() -> pl::StatusOr<Snapshot> {
    ++calls;
    if (calls < 3) return pl::unavailable_error("nfs flake");
    return bootstrap;
  };
  auto service = DurableService::open(Snapshot{}, durable);
  ASSERT_TRUE(service.ok()) << service.status().to_string();
  EXPECT_EQ(calls, 3);
  EXPECT_EQ(service->health().load_attempts, 3);
  EXPECT_TRUE(service->snapshot() == bootstrap);
  EXPECT_FALSE(service->health().degraded);
}

TEST(ServingWrapper, PersistsTheSnapshotAsATracedStage) {
  const std::string dir = temp_dir("serving_persist");
  const std::string path = dir + "/snap.plsnap";
  pipeline::Config config = small_config();
  const ServingWorld world = run_simulated_serving(config, {}, path);
  ASSERT_TRUE(world.save_status.ok()) << world.save_status.to_string();

  auto reopened = open_snapshot(path);
  ASSERT_TRUE(reopened.ok());
  EXPECT_TRUE(*reopened == world.snapshot);
#ifndef PL_OBS_OFF
  EXPECT_GT(world.result.timings.save_snapshot_ms, 0.0);
  const obs::TraceNode* stage = world.result.report.trace.child("serve.save_snapshot");
  ASSERT_NE(stage, nullptr);
  EXPECT_EQ(stage->note_value("ok"), 1);
#endif
}

}  // namespace
}  // namespace pl::serve
