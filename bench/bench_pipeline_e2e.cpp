// End-to-end pipeline performance harness: runs the full Fig. 1 pipeline at
// a sweep of worker-thread counts, prints stage-by-stage wall-clock and
// speedup tables, verifies every run is bit-identical to the serial
// baseline, and writes machine-readable BENCH_pipeline.json so successive
// PRs accumulate a perf trajectory.
//
// Environment knobs:
//   PL_BENCH_SCALE        world scale (default 1.0 = paper scale)
//   PL_BENCH_SEED         world seed (default 42)
//   PL_BENCH_THREADS      comma-separated sweep, default "0,1,2,4,8"
//                         (0 = serial baseline; always run even if omitted)
//   PL_BENCH_OUT          JSON output path (default BENCH_pipeline.json)
//
// JSON format (schema pl-bench-pipeline/4):
//   {
//     "schema": "pl-bench-pipeline/4",
//     "scale": 1.0, "seed": 42,
//     "machine": {"hardware_threads": N, "compiler": "...",
//                 "build_type": "..."},
//     "before": {pre-interchange committed baseline stages at t=0, for the
//                before/after table},
//     "runs": [
//       {"threads": 0, "stages": {"world": ms, ...}, "total_ms": ms,
//        "speedup": x, "fingerprint": "0x..."}
//     ],
//     "identical": true,
//     "metrics": {workload counters from the serial run's obs snapshot},
//     "stage_latency_us": {stage wall-clock distribution across every run in
//                          the sweep, as the shared percentile summary from
//                          bench/common.hpp (count/sum/p50/p90/p99/p999)}
//   }
//
// Exit status is non-zero when any run's fingerprint deviates from the
// serial baseline, or when the single-worker run (t=1) regresses beyond
// noise against the serial path (the t<=1 configurations share the same
// serial code path and must not diverge; see exec/pool.cpp).

#include <cstdint>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "common.hpp"
#include "exec/pool.hpp"

namespace {

using pl::pipeline::Config;
using pl::pipeline::Result;
using pl::pipeline::StageTimings;

/// t=1 must stay within this factor of t=0: both run the exact same serial
/// code (a single worker falls through to the caller's thread), so anything
/// beyond measurement noise is a scheduling regression.
constexpr double kSingleWorkerNoiseFactor = 1.35;

/// The committed pre-interchange baseline (schema pl-bench-pipeline/2, the
/// 1-thread machine of that era, scale 1.0 / seed 42 / t=0) — the "before"
/// half of the before/after table. Update when re-anchoring the trajectory.
constexpr double kBeforeStagesMs[] = {151.546, 107.788, 505.201, 1091.315,
                                      182.719, 48.355,  40.012};
constexpr double kBeforeTotalMs = 2126.965;

#ifdef __VERSION__
constexpr const char* kCompiler = __VERSION__;
#else
constexpr const char* kCompiler = "unknown";
#endif

const char* const kStageNames[] = {"world", "op_world", "render",  "restore",
                                   "admin", "op",       "taxonomy"};

struct Run {
  int threads = 0;
  StageTimings timings;
  std::uint64_t fingerprint = 0;
};

double stage_ms(const StageTimings& t, std::size_t stage) {
  const double values[] = {t.world_ms, t.op_world_ms, t.render_ms,
                           t.restore_ms, t.admin_ms, t.op_ms, t.taxonomy_ms};
  return values[stage];
}

std::vector<int> thread_sweep() {
  std::string spec = "0,1,2,4,8";
  if (const char* env = std::getenv("PL_BENCH_THREADS")) spec = env;
  std::vector<int> sweep;
  std::stringstream stream(spec);
  std::string token;
  while (std::getline(stream, token, ','))
    if (!token.empty()) sweep.push_back(std::atoi(token.c_str()));
  if (sweep.empty() || sweep.front() != 0)
    sweep.insert(sweep.begin(), 0);  // the serial baseline anchors speedups
  return sweep;
}

std::string fmt_ms(double ms) {
  std::ostringstream out;
  out << std::fixed << std::setprecision(1) << ms;
  return out.str();
}

std::string fmt_speedup(double speedup) {
  std::ostringstream out;
  out << std::fixed << std::setprecision(2) << speedup << "x";
  return out.str();
}

std::string fmt_fingerprint(std::uint64_t fingerprint) {
  std::ostringstream out;
  out << "0x" << std::hex << fingerprint;
  return out.str();
}

/// The workload block: non-timing counters from the serial run's metrics
/// snapshot, so the perf trajectory records *what* was processed next to
/// how long it took. Cross-registry counters aggregate over labels via
/// `counter_sum`.
void write_metrics_block(pl::bench::JsonWriter& json,
                         const pl::obs::Snapshot& metrics) {
  json.key("metrics").begin_object();
  json.key("restored_days")
      .value(metrics.counter_sum("pl_restore_days_processed"));
  json.key("restored_asns").value(metrics.counter_sum("pl_restore_asns"));
  json.key("restored_spans").value(metrics.counter_sum("pl_restore_spans"));
  json.key("admin_lifetimes").value(metrics.counter_value("pl_admin_lifetimes"));
  json.key("op_lifetimes").value(metrics.counter_value("pl_op_lifetimes"));
  json.key("active_asn_days")
      .value(metrics.counter_sum("pl_bgp_active_asn_days"));
  json.key("faults_injected")
      .value(metrics.counter_sum("pl_fault_days_dropped") +
             metrics.counter_sum("pl_fault_days_duplicated") +
             metrics.counter_sum("pl_fault_days_reordered"));
  json.key("faults_recovered")
      .value(metrics.counter_sum("pl_ingest_days_reorder_recovered") +
             metrics.counter_sum("pl_fault_fetch_retries"));
  json.key("taxonomy_admin").begin_object();
  json.key("complete_overlap")
      .value(metrics.counter_value(
          "pl_taxonomy_admin{class=\"complete_overlap\"}"));
  json.key("partial_overlap")
      .value(metrics.counter_value(
          "pl_taxonomy_admin{class=\"partial_overlap\"}"));
  json.key("unused")
      .value(metrics.counter_value("pl_taxonomy_admin{class=\"unused\"}"));
  json.end_object();
  json.key("taxonomy_op").begin_object();
  json.key("complete_overlap")
      .value(
          metrics.counter_value("pl_taxonomy_op{class=\"complete_overlap\"}"));
  json.key("partial_overlap")
      .value(
          metrics.counter_value("pl_taxonomy_op{class=\"partial_overlap\"}"));
  json.key("outside_delegation")
      .value(metrics.counter_value(
          "pl_taxonomy_op{class=\"outside_delegation\"}"));
  json.end_object();
  json.end_object();
}

void write_json(const std::string& path, double scale, std::uint64_t seed,
                const std::vector<Run>& runs, bool identical,
                const pl::obs::Snapshot& metrics) {
  pl::bench::JsonWriter json;
  json.begin_object();
  json.key("schema").value("pl-bench-pipeline/4");
  json.key("scale").value(scale);
  json.key("seed").value(static_cast<std::uint64_t>(seed));
  json.key("machine").begin_object();
  json.key("hardware_threads").value(pl::exec::hardware_threads());
  json.key("compiler").value(kCompiler);
  json.key("build_type").value(PL_BUILD_TYPE);
  json.end_object();

  // The "before" half of the before/after table: the committed
  // pre-interchange trajectory point.
  json.key("before").begin_object();
  json.key("schema").value("pl-bench-pipeline/2");
  json.key("stages").begin_object();
  for (std::size_t s = 0; s < std::size(kStageNames); ++s)
    json.key(kStageNames[s]).value(kBeforeStagesMs[s]);
  json.end_object();
  json.key("total_ms").value(kBeforeTotalMs);
  json.end_object();

  // Speedups anchor at the serial run, the sweep's first entry.
  const double base = runs.front().timings.total_ms;
  json.key("runs").begin_array();
  for (const Run& run : runs) {
    const StageTimings& t = run.timings;
    json.begin_object();
    json.key("threads").value(run.threads);
    json.key("stages").begin_object();
    for (std::size_t s = 0; s < std::size(kStageNames); ++s)
      json.key(kStageNames[s]).value(stage_ms(t, s));
    json.end_object();
    json.key("total_ms").value(t.total_ms);
    json.key("speedup").value(t.total_ms > 0 ? base / t.total_ms : 0.0);
    json.key("fingerprint").value(fmt_fingerprint(run.fingerprint));
    json.end_object();
  }
  json.end_array();

  json.key("identical").value(identical);
  write_metrics_block(json, metrics);

  // Stage wall-clock distribution over the whole sweep, folded through the
  // log2 latency histogram so the artifact carries the same percentile
  // shape as BENCH_serve.json's observability block (one parser for both
  // trajectories). Microsecond unit: stage times are ms-scale doubles and
  // the histogram is integer-valued.
  pl::obs::LatencyHisto stage_histo;
  for (const Run& run : runs) {
    for (std::size_t s = 0; s < std::size(kStageNames); ++s) {
      const double stage = stage_ms(run.timings, s);
      if (stage > 0)
        stage_histo.observe(static_cast<std::int64_t>(stage * 1000.0));
    }
  }
  json.key("stage_latency_us");
  pl::bench::emit_latency_summary(json, stage_histo.snapshot());
  json.end_object();

  std::ofstream out(path);
  out << json.str() << "\n";
}

}  // namespace

int main() {
  pl::bench::print_banner("pipeline e2e",
                          "stage wall-clock vs. worker threads (PL_THREADS)");

  double scale = 1.0;
  std::uint64_t seed = 42;
  if (const char* env = std::getenv("PL_BENCH_SCALE")) scale = std::atof(env);
  if (const char* env = std::getenv("PL_BENCH_SEED"))
    seed = std::strtoull(env, nullptr, 10);
  std::string out_path = "BENCH_pipeline.json";
  if (const char* env = std::getenv("PL_BENCH_OUT")) out_path = env;

  const std::vector<int> threads_sweep = thread_sweep();
  std::cout << "scale=" << scale << " seed=" << seed
            << " hardware_threads=" << pl::exec::hardware_threads()
            << " compiler=" << kCompiler << " build_type=" << PL_BUILD_TYPE
            << "\n\n";

  std::vector<Run> runs;
  pl::obs::Snapshot serial_metrics;
  for (const int threads : threads_sweep) {
    Config config;
    config.seed = seed;
    config.scale = scale;
    config.threads = threads;
    std::cerr << "[bench] running with threads=" << threads << "\n";
    const Result result = pl::pipeline::run_simulated(config);
    runs.push_back(
        Run{threads, result.timings, pl::bench::fingerprint(result)});
    // The serial run's snapshot feeds the workload block; every sweep entry
    // holds identical metric values by the determinism contract.
    if (runs.size() == 1) serial_metrics = result.report.metrics;
  }

  bool identical = true;
  for (const Run& run : runs)
    identical = identical && run.fingerprint == runs.front().fingerprint;
  const Run& serial = runs.front();

  // Stage-by-stage table, one column per thread count.
  std::cout << std::left << std::setw(10) << "stage";
  for (const Run& run : runs)
    std::cout << std::right << std::setw(12)
              << ("t=" + std::to_string(run.threads) + " ms");
  std::cout << "\n";
  for (std::size_t s = 0; s < std::size(kStageNames); ++s) {
    std::cout << std::left << std::setw(10) << kStageNames[s];
    for (const Run& run : runs)
      std::cout << std::right << std::setw(12)
                << fmt_ms(stage_ms(run.timings, s));
    std::cout << "\n";
  }
  std::cout << std::left << std::setw(10) << "total";
  for (const Run& run : runs)
    std::cout << std::right << std::setw(12) << fmt_ms(run.timings.total_ms);
  std::cout << "\n" << std::left << std::setw(10) << "speedup";
  for (const Run& run : runs)
    std::cout << std::right << std::setw(12)
              << fmt_speedup(run.timings.total_ms > 0
                                 ? serial.timings.total_ms /
                                       run.timings.total_ms
                                 : 0.0);
  std::cout << "\n\n";

  // Before/after: the committed pre-interchange baseline vs this build's
  // serial run.
  std::cout << "before/after (t=0, before = committed pre-interchange "
               "baseline)\n";
  std::cout << std::left << std::setw(10) << "stage" << std::right
            << std::setw(12) << "before ms" << std::setw(12) << "now ms"
            << std::setw(12) << "speedup" << "\n";
  for (std::size_t s = 0; s < std::size(kStageNames); ++s) {
    const double now_ms = stage_ms(serial.timings, s);
    std::cout << std::left << std::setw(10) << kStageNames[s] << std::right
              << std::setw(12) << fmt_ms(kBeforeStagesMs[s]) << std::setw(12)
              << fmt_ms(now_ms) << std::setw(12)
              << fmt_speedup(now_ms > 0 ? kBeforeStagesMs[s] / now_ms : 0.0)
              << "\n";
  }
  std::cout << std::left << std::setw(10) << "total" << std::right
            << std::setw(12) << fmt_ms(kBeforeTotalMs) << std::setw(12)
            << fmt_ms(serial.timings.total_ms) << std::setw(12)
            << fmt_speedup(serial.timings.total_ms > 0
                               ? kBeforeTotalMs / serial.timings.total_ms
                               : 0.0)
            << "\n\n";

  std::cout << "fingerprint: " << fmt_fingerprint(serial.fingerprint) << "\n";
  std::cout << "all runs bit-identical to the serial run: "
            << (identical ? "yes" : "NO — DETERMINISM BUG") << "\n";

  // Single-worker regression guard: t=1 routes through the serial path
  // (exec/pool.cpp), so it must track t=0 within measurement noise.
  bool single_ok = true;
  for (const Run& run : runs) {
    if (run.threads != 1) continue;
    const double ratio = serial.timings.total_ms > 0
                             ? run.timings.total_ms / serial.timings.total_ms
                             : 1.0;
    const bool ok = ratio <= kSingleWorkerNoiseFactor;
    single_ok = single_ok && ok;
    std::cout << "t=1 vs t=0: " << fmt_speedup(ratio)
              << (ok ? " (within noise)" : " — SINGLE-WORKER REGRESSION")
              << "\n";
  }
  if (pl::exec::hardware_threads() == 1)
    std::cout << "(note: 1 hardware thread — speedups are bounded by the "
                 "machine, not the sharding)\n";

  write_json(out_path, scale, seed, runs, identical, serial_metrics);
  std::cout << "wrote " << out_path << "\n";
  return identical && single_ok ? 0 : 1;
}
