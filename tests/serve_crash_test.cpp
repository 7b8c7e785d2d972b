// The crash matrix: kill advance_day() at EVERY injected crash point, then
// reopen from disk and prove the recovered service is bit-identical to a
// run that never crashed.
//
// Structure per scenario: one extended pipeline run (the world E), a
// durable directory bootstrapped at day end-N, then daily advances with a
// robust::CrashPoints armed at one site. When the crash fires, the service
// instance is dead; a fresh DurableService::open() over the same directory
// must recover (snapshot + WAL replay), resume the remaining days, and land
// on a snapshot that compares equal — rows, indexes, working set — to the
// full rebuild. Runs over two seeds and two crash timings per site, 35/31
// chaos-free days (the advance-vs-rebuild equivalence under transport chaos
// is covered by serve_advance_test).
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <vector>

#include "history/store.hpp"
#include "obs/flight.hpp"
#include "pipeline/pipeline.hpp"
#include "serve/durable.hpp"
#include "serve/snapshot.hpp"
#include "util/crc32.hpp"

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
  Snapshot base;  ///< built at `start`; copied into every scenario
  Snapshot full;  ///< built at `end`; the never-crashed fingerprint
};

World make_world(std::uint64_t seed, double scale, int days_back) {
  pipeline::Config config;
  config.seed = seed;
  config.scale = scale;
  World world;
  world.extended = pipeline::run_simulated(config);
  world.end = world.extended.truth.archive_end;
  world.start = world.end - days_back;
  world.base = Snapshot::build(
      truncate_archive(world.extended.restored, world.start),
      truncate_activity(world.extended.op_world.activity, world.start),
      world.start);
  world.full = Snapshot::build(world.extended.restored,
                               world.extended.op_world.activity, world.end);
  return world;
}

const World& world_99() {
  static const World world = make_world(99, 0.02, 35);
  return world;
}

const World& world_7() {
  static const World world = make_world(7, 0.01, 31);
  return world;
}

std::string fresh_dir(const std::string& name) {
  const std::string dir = testing::TempDir() + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

DayDelta day_of(const World& world, util::Day day) {
  return slice_day(world.extended.restored,
                   world.extended.op_world.activity, day);
}

/// Drive one crash/recover cycle: advance until the armed crash fires,
/// reopen, resume, compare against the never-crashed fingerprint.
void crash_and_recover(const World& world, std::string_view site,
                       int countdown, const std::string& dir_name) {
  SCOPED_TRACE(std::string(site) + " countdown " + std::to_string(countdown));
  const std::string dir = fresh_dir(dir_name);
  robust::CrashPoints crash;

  DurableConfig durable;
  durable.dir = dir;
  durable.checkpoint_every_days = 5;  // checkpoint sites fire mid-stretch
  durable.crash = &crash;

  bool crashed = false;
  {
    auto service = DurableService::open(world.base, durable);
    ASSERT_TRUE(service.ok()) << service.status().to_string();
    crash.arm(std::string(site), countdown);
    for (util::Day day = world.start + 1; day <= world.end; ++day) {
      const pl::Status status = service->advance_day(day_of(world, day));
      if (crash.fired()) {
        EXPECT_FALSE(status.ok());
        EXPECT_NE(status.message().find("crash injected"), std::string::npos)
            << status.to_string();
        // The instance is dead from here on; only reopen brings it back.
        EXPECT_EQ(service->advance_day(day_of(world, day)).code(),
                  pl::StatusCode::kFailedPrecondition);
        crashed = true;
        break;
      }
      ASSERT_TRUE(status.ok()) << status.to_string();
    }
  }
  ASSERT_TRUE(crashed) << "site " << site << " never fired — is the "
                       << "countdown reachable within the stretch?";

  // The kill must have left a valid flight-recorder dump behind, and (when
  // recording is compiled in) its timeline must name the crash site: the
  // last kCrash event carries crc32(site) as its detail.
  const std::string flight_file = dir + "/flight.plflight";
  ASSERT_TRUE(std::filesystem::exists(flight_file))
      << "no flight dump after a crash at " << site;
  const obs::FlightRead flight = obs::read_flight(flight_file);
  ASSERT_TRUE(flight.ok()) << "flight dump unparseable after " << site;
  if constexpr (obs::kEnabled) {
    const auto is_crash = [](const obs::FlightEvent& event) {
      return event.kind ==
             static_cast<std::uint32_t>(obs::EventKind::kCrash);
    };
    const auto crash_event = std::find_if(flight.events.rbegin(),
                                          flight.events.rend(), is_crash);
    ASSERT_NE(crash_event, flight.events.rend())
        << "flight dump carries no kCrash event for " << site;
    EXPECT_EQ(crash_event->detail, util::crc32(site))
        << "flight kCrash event does not identify site " << site;
  } else {
    EXPECT_TRUE(flight.events.empty());
  }

  // Recovery: open the directory again (bootstrap empty on purpose — disk
  // must carry everything) and finish the stretch.
  durable.crash = nullptr;
  auto recovered = DurableService::open(Snapshot{}, durable);
  ASSERT_TRUE(recovered.ok()) << recovered.status().to_string();
  const HealthReport health = recovered->health();
  EXPECT_FALSE(health.degraded) << health.last_error;
  EXPECT_TRUE(health.quarantined_days.empty());
  ASSERT_GE(recovered->archive_end(), world.start);
  ASSERT_LE(recovered->archive_end(), world.end);

  for (util::Day day = recovered->archive_end() + 1; day <= world.end; ++day)
    ASSERT_TRUE(recovered->advance_day(day_of(world, day)).ok());

  EXPECT_TRUE(recovered->snapshot() == world.full)
      << "recovered state diverged from the never-crashed run after a "
         "crash at "
      << site;
  EXPECT_FALSE(recovered->health().degraded);
}

TEST(ServeCrash, AdvanceCrashSiteListIsExactlyWhatExecutionVisits) {
  // Discovery guard: run a full stretch with an unarmed hook and require
  // the visited-site set to equal kAdvanceCrashSites — adding a site to
  // the code without adding it to the matrix (or vice versa) fails here.
  const World& world = world_99();
  robust::CrashPoints observer;
  DurableConfig durable;
  durable.dir = fresh_dir("crash_discovery");
  durable.checkpoint_every_days = 5;
  durable.crash = &observer;
  auto service = DurableService::open(world.base, durable);
  ASSERT_TRUE(service.ok());
  for (util::Day day = world.start + 1; day <= world.end; ++day)
    ASSERT_TRUE(service->advance_day(day_of(world, day)).ok());

  std::vector<std::string> visited = observer.visited();
  std::vector<std::string> expected;
  for (const std::string_view site : kAdvanceCrashSites)
    expected.emplace_back(site);
  std::sort(visited.begin(), visited.end());
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(visited, expected);
  EXPECT_FALSE(observer.fired());
}

TEST(ServeCrash, EverySiteRecoversBitIdentically_Seed99) {
  const World& world = world_99();
  int scenario = 0;
  for (const std::string_view site : kAdvanceCrashSites) {
    // Two timings per site: early in the stretch and deep into it. The
    // checkpoint sites are visited once per checkpoint (every 5 days), the
    // advance/WAL sites once per day.
    const bool checkpoint_site =
        site.find("checkpoint") != std::string_view::npos;
    for (const int countdown :
         (checkpoint_site ? std::vector<int>{2, 4}
                          : std::vector<int>{10, 23})) {
      crash_and_recover(world, site, countdown,
                        "crash99_" + std::to_string(scenario++));
    }
  }
}

TEST(ServeCrash, EverySiteRecoversBitIdentically_Seed7) {
  const World& world = world_7();
  int scenario = 0;
  for (const std::string_view site : kAdvanceCrashSites) {
    const bool checkpoint_site =
        site.find("checkpoint") != std::string_view::npos;
    crash_and_recover(world, site, checkpoint_site ? 3 : 17,
                      "crash7_" + std::to_string(scenario++));
  }
}

TEST(ServeCrash, RepeatedCrashesAtTheSameSiteStillConverge) {
  // Crash, recover, crash again at the same site a few days later, recover
  // again — accumulating WAL/snapshot generations must not drift.
  const World& world = world_99();
  const std::string dir = fresh_dir("crash_repeat");
  robust::CrashPoints crash;
  DurableConfig durable;
  durable.dir = dir;
  durable.checkpoint_every_days = 5;
  durable.crash = &crash;

  util::Day resume_from = world.start + 1;
  for (int round = 0; round < 3; ++round) {
    Snapshot bootstrap = round == 0 ? world.base : Snapshot{};
    auto service = DurableService::open(std::move(bootstrap), durable);
    ASSERT_TRUE(service.ok()) << service.status().to_string();
    resume_from = service->archive_end() + 1;
    crash.arm("durable.wal.torn_append", 7);
    bool fired = false;
    for (util::Day day = resume_from; day <= world.end; ++day) {
      const pl::Status status = service->advance_day(day_of(world, day));
      if (crash.fired()) {
        fired = true;
        break;
      }
      ASSERT_TRUE(status.ok());
    }
    if (!fired) break;  // stretch finished before the countdown
  }

  durable.crash = nullptr;
  auto final_service = DurableService::open(Snapshot{}, durable);
  ASSERT_TRUE(final_service.ok());
  for (util::Day day = final_service->archive_end() + 1; day <= world.end;
       ++day)
    ASSERT_TRUE(final_service->advance_day(day_of(world, day)).ok());
  EXPECT_TRUE(final_service->snapshot() == world.full);
  EXPECT_FALSE(final_service->health().degraded);
}

}  // namespace
}  // namespace pl::serve
