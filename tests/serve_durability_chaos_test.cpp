// Durability under byte-level chaos: drive the robust:: corruptors over
// the WAL and snapshot files across seeds and corruption rates, and require
// that reopening NEVER crashes, NEVER silently serves damaged state, and
// always reports the damage accurately in the HealthReport.
//
// The invariant under corruption is containment, not recovery: whatever
// the files lost stays lost (and is accounted for), but everything the
// validator accepts must be bit-identical to real history, and the service
// must keep answering from the last good state.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "history/store.hpp"
#include "pipeline/pipeline.hpp"
#include "robust/chaos.hpp"
#include "serve/durable.hpp"
#include "serve/snapshot.hpp"
#include "util/rng.hpp"

namespace pl::serve {
namespace {

// World slicing lives on HistoryStore.
constexpr auto slice_day = &history::HistoryStore::slice_day;
constexpr auto truncate_archive = &history::HistoryStore::truncate_archive;
constexpr auto truncate_activity = &history::HistoryStore::truncate_activity;

struct World {
  pipeline::Result extended;
  util::Day start = 0;
  util::Day end = 0;
  Snapshot base;
};

const World& world() {
  static const World w = [] {
    pipeline::Config config;
    config.seed = 99;
    config.scale = 0.01;
    World built;
    built.extended = pipeline::run_simulated(config);
    built.end = built.extended.truth.archive_end;
    built.start = built.end - 12;
    built.base = Snapshot::build(
        truncate_archive(built.extended.restored, built.start),
        truncate_activity(built.extended.op_world.activity, built.start),
        built.start);
    return built;
  }();
  return w;
}

std::string fresh_dir(const std::string& name) {
  const std::string dir = testing::TempDir() + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

DayDelta day_of(util::Day day) {
  return slice_day(world().extended.restored,
                   world().extended.op_world.activity, day);
}

/// Build a durable directory whose WAL carries `wal_days` live records on
/// top of the base snapshot (checkpointing disabled so they all stay).
std::string build_durable_dir(const std::string& name, int wal_days) {
  const std::string dir = fresh_dir(name);
  DurableConfig durable;
  durable.dir = dir;
  durable.checkpoint_every_days = 0;
  auto service = DurableService::open(world().base, durable);
  EXPECT_TRUE(service.ok());
  for (util::Day day = world().start + 1; day <= world().start + wal_days;
       ++day)
    EXPECT_TRUE(service->advance_day(day_of(day)).ok());
  return dir;
}

std::vector<std::uint8_t> read_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  return std::vector<std::uint8_t>(text.begin(), text.end());
}

void write_bytes(const std::string& path,
                 const std::vector<std::uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

/// The served state must equal a clean rebuild at whatever day the service
/// recovered to — corruption may cost days, never correctness.
void expect_serves_real_history(DurableService& service) {
  const util::Day day = service.archive_end();
  ASSERT_GE(day, world().start);
  ASSERT_LE(day, world().end);
  const Snapshot rebuilt = Snapshot::build(
      truncate_archive(world().extended.restored, day),
      truncate_activity(world().extended.op_world.activity, day), day);
  EXPECT_TRUE(service.snapshot() == rebuilt)
      << "recovered state at day " << day << " is not real history";
}

TEST(ServeDurabilityChaos, CorruptedWalAcrossSeedsIsContained) {
  const int wal_days = 8;
  for (const std::uint64_t seed : {1u, 7u, 99u, 1234u}) {
    for (const double rate : {0.01, 0.05, 0.25}) {
      SCOPED_TRACE("seed " + std::to_string(seed) + " rate " +
                   std::to_string(rate));
      const std::string dir = build_durable_dir(
          "chaos_wal_" + std::to_string(seed) + "_" +
              std::to_string(static_cast<int>(rate * 100)),
          wal_days);

      const std::string wal = dir + "/days.plwal";
      std::vector<std::uint8_t> bytes = read_bytes(wal);
      ASSERT_FALSE(bytes.empty());
      const std::size_t original_size = bytes.size();
      util::Rng rng(seed);
      robust::corrupt_buffer(bytes, rng, robust::ChaosConfig::uniform(rate, seed));
      const bool truncated = bytes.size() < original_size;
      write_bytes(wal, bytes);

      DurableConfig durable;
      durable.dir = dir;
      durable.checkpoint_every_days = 0;
      auto service = DurableService::open(Snapshot{}, durable);
      ASSERT_TRUE(service.ok()) << service.status().to_string();

      const HealthReport health = service->health();
      const std::int64_t lost =
          wal_days - health.replayed_days;
      EXPECT_GE(lost, 0);
      // Damage must be visible whenever days went missing: every lost day
      // is explained by a corrupt record, a torn tail, a quarantine — or a
      // truncation that happened to cut exactly at a frame boundary, which
      // is indistinguishable from a shorter-but-clean WAL by design.
      if (lost > 0) {
        EXPECT_TRUE(health.wal_corrupt_records > 0 || health.wal_torn_tail ||
                    !health.quarantined_days.empty() || truncated)
            << "lost " << lost << " days with a clean health report";
      }
      if (health.wal_corrupt_records > 0 ||
          !health.quarantined_days.empty()) {
        EXPECT_TRUE(health.degraded);
        EXPECT_FALSE(health.last_error.empty());
      }
      expect_serves_real_history(*service);

      // The service stays operational: it can keep advancing from wherever
      // replay landed.
      const util::Day next = service->archive_end() + 1;
      if (next <= world().end) {
        EXPECT_TRUE(service->advance_day(day_of(next)).ok());
      }
    }
  }
}

TEST(ServeDurabilityChaos, CorruptedSnapshotAcrossSeedsFallsBackToBootstrap) {
  for (const std::uint64_t seed : {3u, 42u, 777u}) {
    for (const double rate : {0.02, 0.2}) {
      SCOPED_TRACE("seed " + std::to_string(seed) + " rate " +
                   std::to_string(rate));
      const std::string dir = build_durable_dir(
          "chaos_snap_" + std::to_string(seed) + "_" +
              std::to_string(static_cast<int>(rate * 100)),
          4);

      const std::string snap = dir + "/snapshot.plsnap";
      std::vector<std::uint8_t> bytes = read_bytes(snap);
      ASSERT_FALSE(bytes.empty());
      util::Rng rng(seed);
      const std::vector<std::uint8_t> before = bytes;
      robust::corrupt_buffer(bytes, rng,
                             robust::ChaosConfig::uniform(rate, seed));
      if (bytes == before) bytes[bytes.size() / 3] ^= 0x04;  // force damage
      write_bytes(snap, bytes);

      DurableConfig durable;
      durable.dir = dir;
      durable.checkpoint_every_days = 0;
      auto service = DurableService::open(world().base, durable);
      ASSERT_TRUE(service.ok()) << service.status().to_string();

      // The damaged snapshot was rejected — bootstrap + WAL replay carried
      // the service back to real history, and health says exactly that.
      const HealthReport health = service->health();
      EXPECT_TRUE(health.snapshot_rejected);
      EXPECT_TRUE(health.degraded);
      EXPECT_FALSE(health.last_error.empty());
      expect_serves_real_history(*service);
    }
  }
}

TEST(ServeDurabilityChaos, BothFilesCorruptedStillServesBootstrap) {
  for (const std::uint64_t seed : {11u, 202u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const std::string dir =
        build_durable_dir("chaos_both_" + std::to_string(seed), 6);
    util::Rng rng(seed);
    for (const std::string file : {"/snapshot.plsnap", "/days.plwal"}) {
      std::vector<std::uint8_t> bytes = read_bytes(dir + file);
      const std::vector<std::uint8_t> before = bytes;
      robust::corrupt_buffer(bytes, rng,
                             robust::ChaosConfig::uniform(0.3, seed));
      if (bytes == before) bytes[0] ^= 0xFF;
      write_bytes(dir + file, bytes);
    }

    DurableConfig durable;
    durable.dir = dir;
    durable.checkpoint_every_days = 0;
    auto service = DurableService::open(world().base, durable);
    ASSERT_TRUE(service.ok()) << service.status().to_string();
    EXPECT_TRUE(service->health().degraded);
    expect_serves_real_history(*service);
  }
}

TEST(ServeDurabilityChaos, EmptyFilesAreHandled) {
  // Zero-length snapshot and WAL (e.g. crash at creation, disk-full): the
  // snapshot is rejected as data loss, the WAL replays as empty.
  const std::string dir = build_durable_dir("chaos_empty", 3);
  write_bytes(dir + "/snapshot.plsnap", {});
  write_bytes(dir + "/days.plwal", {});

  DurableConfig durable;
  durable.dir = dir;
  auto service = DurableService::open(world().base, durable);
  ASSERT_TRUE(service.ok()) << service.status().to_string();
  EXPECT_TRUE(service->health().snapshot_rejected);
  EXPECT_EQ(service->health().replayed_days, 0);
  EXPECT_TRUE(service->snapshot() == world().base);
}

}  // namespace
}  // namespace pl::serve
