// Near-realtime daily update (paper §9: "we intend to continue updating and
// publishing our datasets on a daily basis") — now through the durable
// serving layer. A deployment keeps a serve::Snapshot warm on disk, appends
// each day's DayDelta to a write-ahead log before folding it in, and
// checkpoints periodically; if the process dies mid-update, reopening the
// state directory replays the WAL and resumes exactly where it left off.
//
// This example demonstrates the whole crash/resume cycle with an injected
// fault: the daily loop is killed by a robust::CrashPoints hook halfway
// through a torn WAL append, the service is reopened from disk, the stretch
// is finished, and the recovered snapshot is verified bit-identical to a
// full rebuild that never crashed.
//
// The service also records every folded day into a history::HistoryStore
// (DurableConfig::history): after the month, `QueryOptions::as_of` answers
// from any recorded day, reconstructed bit-identically from keyframe +
// deltas — crash, WAL replay and all.
//
// The "new day arriving from the RIR FTP sites + collectors" is played here
// by HistoryStore::slice_day over an extended simulated world; a production
// loop would assemble the same DayDelta from the day's delegation files and
// collector dump.
//
// Run:  ./daily_update [scale] [seed]
#include <cstdlib>
#include <filesystem>
#include <iostream>

#include "history/store.hpp"
#include "pipeline/pipeline.hpp"
#include "robust/crashpoint.hpp"
#include "serve/durable.hpp"
#include "serve/query.hpp"
#include "serve/snapshot.hpp"
#include "util/strings.hpp"

int main(int argc, char** argv) {
  using namespace pl;
  const double scale = argc > 1 ? std::atof(argv[1]) : 0.05;
  const std::uint64_t seed = argc > 2 ? std::strtoull(argv[2], nullptr, 10)
                                      : 7;

  // The extended world E: the full simulated history, of which the last
  // weeks will arrive "live" below.
  pipeline::Config config;
  config.seed = seed;
  config.scale = scale;
  const pipeline::Result extended = pipeline::run_simulated(config);
  const util::Day end = extended.truth.archive_end;
  const int days_live = 28;
  const util::Day start = end - days_live;
  const auto day_of = [&](util::Day day) {
    return history::HistoryStore::slice_day(extended.restored,
                                            extended.op_world.activity, day);
  };

  // Day 0 of the deployment: build the snapshot over everything published
  // up to `start` and open a durable service over a fresh state directory.
  serve::Snapshot base = history::HistoryStore::rebuild_at(
      extended.restored, extended.op_world.activity, start);
  std::cout << "serving from " << util::format_iso(start) << ": "
            << util::with_commas(static_cast<std::int64_t>(base.asn_count()))
            << " ASNs, "
            << util::with_commas(
                   static_cast<std::int64_t>(base.admin_life_count()))
            << " admin lives\n";

  const std::string dir =
      (std::filesystem::temp_directory_path() / "pl_daily_update").string();
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  robust::CrashPoints crash;
  history::HistoryStore history;
  serve::DurableConfig durable;
  durable.dir = dir;
  durable.checkpoint_every_days = 7;
  durable.crash = &crash;
  durable.history = &history;  // record every folded day for time travel

  // Phase 1: the daily loop, with a process death scheduled mid-stretch —
  // the 12th WAL append tears halfway through its frame.
  util::Day died_on = 0;
  {
    auto service = serve::DurableService::open(std::move(base), durable);
    if (!service.ok()) {
      std::cerr << "open failed: " << service.status().to_string() << "\n";
      return 1;
    }
    crash.arm("durable.wal.torn_append", 12);
    for (util::Day day = start + 1; day <= end; ++day) {
      const pl::Status status = service->advance_day(day_of(day));
      if (crash.fired()) {
        died_on = day;
        std::cout << "\n*** process death on " << util::format_iso(day)
                  << ": " << status.to_string() << "\n";
        break;
      }
      if (!status.ok()) {
        std::cerr << "advance failed on " << util::format_iso(day) << ": "
                  << status.to_string() << "\n";
        return 1;
      }
      if ((day - start) % 7 == 0) {
        auto answer = service->queries().query(serve::Query::census(day));
        if (!answer.ok()) {
          std::cerr << "census failed: " << answer.status().to_string()
                    << "\n";
          return 1;
        }
        const serve::CensusAnswer census = *answer->census;
        std::cout << util::format_iso(day) << ": "
                  << util::with_commas(census.admin_alive) << " admin / "
                  << util::with_commas(census.op_alive)
                  << " op lives alive (durable through "
                  << util::format_iso(service->health().last_durable_day)
                  << ")\n";
      }
    }
  }
  if (died_on == 0) {
    std::cerr << "crash point never fired; stretch too short?\n";
    return 1;
  }

  // Phase 2: recovery. Reopen the same directory — the bootstrap snapshot
  // is deliberately empty, so everything must come back from the durable
  // snapshot + WAL replay — and finish the stretch.
  durable.crash = nullptr;
  auto recovered = serve::DurableService::open(serve::Snapshot{}, durable);
  if (!recovered.ok()) {
    std::cerr << "reopen failed: " << recovered.status().to_string() << "\n";
    return 1;
  }
  const serve::HealthReport health = recovered->health();
  std::cout << "reopened " << dir << ": snapshot day "
            << util::format_iso(health.snapshot_day) << ", "
            << health.replayed_days << " WAL days replayed, resuming at "
            << util::format_iso(recovered->archive_end() + 1)
            << (health.degraded ? " [DEGRADED]" : "") << "\n";
  if (health.degraded) {
    std::cerr << "recovery came back degraded: " << health.last_error << "\n";
    return 1;
  }
  if (recovered->archive_end() >= died_on) {
    std::cerr << "the day that crashed must not have been folded durably\n";
    return 1;
  }

  for (util::Day day = recovered->archive_end() + 1; day <= end; ++day) {
    const pl::Status status = recovered->advance_day(day_of(day));
    if (!status.ok()) {
      std::cerr << "resume failed on " << util::format_iso(day) << ": "
                << status.to_string() << "\n";
      return 1;
    }
  }

  // The §9 promise, crash included: the crashed-and-recovered snapshot is
  // bit-identical to rebuilding the study over the full extended world.
  const serve::Snapshot full = history::HistoryStore::rebuild_at(
      extended.restored, extended.op_world.activity, end);
  if (!(recovered->snapshot() == full)) {
    std::cerr << "recovered snapshot diverged from full rebuild\n";
    return 1;
  }
  std::cout << "recovered snapshot == full rebuild (bit-identical)\n";

  // Time travel through the recovered service: the history store received
  // every folded day — reseeded on reopen, WAL-replayed days included — so
  // `as_of` serves any recorded day.
  const util::Day week_ago = end - 7;
  serve::QueryOptions as_of;
  as_of.as_of = week_ago;
  auto past =
      recovered->queries().query(serve::Query::census(week_ago, as_of));
  if (!past.ok()) {
    std::cerr << "as_of query failed: " << past.status().to_string() << "\n";
    return 1;
  }
  const history::HistoryStats hstats = history.stats();
  std::cout << "as of " << util::format_iso(week_ago) << ": "
            << util::with_commas(past->census->admin_alive) << " admin / "
            << util::with_commas(past->census->op_alive)
            << " op lives alive — served from " << hstats.keyframes
            << " keyframes + " << hstats.deltas << " deltas ("
            << util::with_commas(hstats.delta_bytes) << " delta bytes)\n";

  // And the reconstruction really is the study-as-of-that-day: bit-identical
  // to a fresh rebuild over the world truncated a week early.
  auto mid = history.at(week_ago);
  if (!mid.ok() ||
      !(**mid == history::HistoryStore::rebuild_at(
                     extended.restored, extended.op_world.activity,
                     week_ago))) {
    std::cerr << "history reconstruction diverged from rebuild\n";
    return 1;
  }
  std::cout << "history.at(" << util::format_iso(week_ago)
            << ") == rebuild at that day (bit-identical)\n";

  // What the monitoring stack sees after the month, crash and all.
  const obs::Snapshot metrics = recovered->report().metrics;
  std::cout << "durability metrics: "
            << metrics.counter_value("pl_serve_wal_appends")
            << " WAL appends, "
            << metrics.counter_value("pl_serve_wal_replayed_days")
            << " days replayed, "
            << metrics.counter_value("pl_serve_snapshot_saves")
            << " snapshots saved\n";
  std::cout << "daily_update OK\n";
  return 0;
}
