// The §9 daily-update deployment the serving sections run against, and how
// it is brought up from nothing (the benchmark's set-up).
#pragma once

#include <filesystem>
#include <memory>

#include "bench/run.hpp"
#include "history/store.hpp"
#include "pipeline/pipeline.hpp"
#include "serve/durable.hpp"
#include "serve/query.hpp"

namespace perfbench {

/// Keyframe interval and checkpoint period: the library defaults (16 and
/// 16). The untraced run uses the library's configs as they come; these
/// copies drive the composed loop and the input generators.
inline constexpr int kKeyframeInterval =
    pl::history::HistoryConfig{}.keyframe_interval;
inline constexpr int kCheckpointEveryDays = 16;

struct Deployment {
  pl::pipeline::Result study;  ///< the run's world (input slicing, oracles)
  std::uint64_t fingerprint = 0;    ///< of the study outputs
  std::int64_t archive_bytes = 0;   ///< composed study only
  std::int64_t restored_spans = 0;  ///< composed study only
  pl::util::Day base_day = 0;  ///< archive end of the served snapshot
  pl::util::Day end_day = 0;   ///< archive end of the world
  std::filesystem::path state_dir;

  /// Read-only service over the live snapshot: no history, no advances.
  std::unique_ptr<pl::serve::QueryService> lookups;
  /// The durable service's history (keyframe interval 16).
  std::unique_ptr<pl::history::HistoryStore> history;
  /// Untraced runs: the durable service, checkpointing every 16 days.
  std::unique_ptr<pl::serve::DurableService> durable;
  /// Traced runs: the snapshot the composed durable loop serves, with its
  /// base saved in `state_dir` exactly as DurableService::open saves it.
  pl::serve::Snapshot live;

  std::filesystem::path snapshot_path() const {
    return state_dir / "snapshot.plsnap";
  }
  std::filesystem::path wal_path() const { return state_dir / "days.plwal"; }
};

/// Bring the deployment up: run the study (composed and traced in a traced
/// run, `run_simulated` otherwise), rebuild the snapshot `days` before the
/// archive end, start the read-only service on a copy of it, and open the
/// durable service with its history over a fresh state directory. Adds the
/// whole bring-up's wall time to `setup_ms`.
std::unique_ptr<Deployment> bring_up(Run& run, int days, Samples& setup_ms);

}  // namespace perfbench
