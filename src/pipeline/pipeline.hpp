// The whole study as one call — the paper's Fig. 1 pipeline:
//
//   world -> delegation archive (+defects) -> restoration -> admin
//   lifetimes;  behaviour plans -> BGP activity -> op lifetimes;
//   joint taxonomy.
//
// `run_simulated()` drives everything from the built-in world simulator;
// deployments against real data assemble the same stages from restored
// archives (see restore::StreamingRestorer) and a BGPStream-fed
// VisibilityAggregator instead.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "bgpsim/route_gen.hpp"
#include "joint/taxonomy.hpp"
#include "lifetimes/admin.hpp"
#include "lifetimes/op.hpp"
#include "obs/export.hpp"
#include "restore/pipeline.hpp"
#include "rirsim/inject.hpp"
#include "rirsim/world.hpp"
#include "robust/chaos.hpp"
#include "robust/error.hpp"

namespace pl::pipeline {

struct Result;

struct Config {
  std::uint64_t seed = 42;
  double scale = 1.0;  ///< 1.0 = the paper's scale (~127k admin lifetimes)
  int op_timeout_days = lifetimes::kPaperTimeoutDays;
  /// Wire format of the render→restore boundary. pl-dlg-bin/1 is the only
  /// one; the field remains only because the frozen perfbench study code
  /// reads it, and the next change to perfbench removes it.
  dele::Interchange interchange = dele::Interchange::kBinary;
  restore::RestoreConfig restore;
  rirsim::InjectorConfig injector;      ///< seed/scale overridden from above
  bgpsim::OpWorldConfig operations;     ///< seeds/scales overridden
  /// Pass the BGP activity to the restorer as the step-iv disambiguation
  /// hint (the paper sometimes consulted BGP behaviour for duplicates).
  bool bgp_hint_for_duplicates = true;
  /// Layer transport chaos (dele::FaultStream) between the rendered
  /// archive and the restorer: outages, retries, duplicate / out-of-order /
  /// corrupt days at the configured rates. Per-registry seeds derive from
  /// chaos.seed. The run must degrade gracefully, never crash; the books
  /// land in Result::robustness.
  bool inject_chaos = false;
  robust::ChaosConfig chaos;
  /// Write the JSON observability report (trace tree + metrics snapshot,
  /// schema `pl-obs/1`) to this path after the run. Empty falls back to the
  /// `PL_TRACE` environment variable; unset disables the dump. The report
  /// is always available in memory as `Result::report` either way.
  std::string trace_path;
  /// Write the Prometheus text exposition of the metrics snapshot to this
  /// path. Empty falls back to `PL_PROM`; unset disables.
  std::string prom_path;
  /// Write a pl-flight/1 dump of per-stage events (EventKind::kStage, one
  /// per Fig. 1 stage, a = wall-clock microseconds) to this path after the
  /// run. Empty falls back to `PL_FLIGHT`; unset disables. Gives batch runs
  /// the same post-mortem artifact the serving layer dumps on crash.
  std::string flight_path;
  /// Optional post-taxonomy hook, invoked inside the root span after every
  /// Fig. 1 stage finished but before the report is frozen — the extension
  /// point derived products (e.g. serve::Snapshot) use to run as a traced,
  /// metered stage of the same run. Unset (the default) leaves the trace
  /// tree exactly as before: seven stage children.
  std::function<void(Result&, obs::Span&, obs::Registry&)> post_stage;
};

/// Wall-clock spent in each Fig. 1 stage. A thin view over the trace tree
/// (see `timings_from_trace`), kept so the perf harness and older callers
/// keep their flat per-stage numbers; the span tree in `Result::report` is
/// the authoritative record. The pipeline is its own profiler so the perf
/// harness (bench_pipeline_e2e) never re-implements the stage wiring just
/// to time it.
struct StageTimings {
  double world_ms = 0;     ///< rirsim::build_world
  double op_world_ms = 0;  ///< bgpsim::build_op_world (plans + activity)
  double render_ms = 0;    ///< rirsim::SimulatedArchive (delegation render)
  double restore_ms = 0;   ///< restoration incl. chaos + reconciliation
  double admin_ms = 0;     ///< lifetimes::build_admin_lifetimes
  double op_ms = 0;        ///< lifetimes::build_op_lifetimes
  double taxonomy_ms = 0;  ///< joint::classify
  double build_snapshot_ms = 0;  ///< serve::Snapshot::build (post_stage hook;
                                 ///< 0 when no hook installed one)
  double save_snapshot_ms = 0;   ///< serve::save_snapshot (post_stage hook;
                                 ///< 0 when the run did not persist)
  double total_ms = 0;
};

/// Every stage's output, kept alive together.
struct Result {
  rirsim::GroundTruth truth;
  bgpsim::OpWorld op_world;
  restore::RestoredArchive restored;
  lifetimes::AdminDataset admin;
  lifetimes::OpDataset op;
  joint::Taxonomy taxonomy;
  /// Ingestion fault accounting (all zero unless Config::inject_chaos).
  robust::RobustnessReport robustness;
  /// Structured observability report: the hierarchical span tree covering
  /// every Fig. 1 stage (with per-registry / per-step substages) plus the
  /// frozen metrics registry. Metric *values* are bit-identical across
  /// runs of the same config; span timings are wall clock and are not.
  obs::Report report;
  /// Per-stage wall clock, derived from `report.trace`.
  StageTimings timings;
};

/// Project the flat per-stage view out of a pipeline trace tree. Unknown
/// or missing stages read as zero (e.g. under -DPL_OBS_OFF, where the tree
/// is empty).
StageTimings timings_from_trace(const obs::TraceNode& root);

/// Run the full simulated pipeline deterministically.
Result run_simulated(const Config& config = {});

}  // namespace pl::pipeline
