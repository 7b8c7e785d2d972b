// End-to-end pipeline performance harness: runs the full Fig. 1 pipeline a
// fixed number of times, prints per-stage medians and quartiles, verifies
// every repeat is bit-identical to the first, and writes machine-readable
// BENCH_pipeline.json so successive PRs accumulate a perf trajectory.
//
// Environment knobs:
//   PL_BENCH_SCALE        world scale (default 1.0 = paper scale)
//   PL_BENCH_SEED         world seed (default 42)
//   PL_BENCH_OUT          JSON output path (default BENCH_pipeline.json)
//
// JSON format (schema pl-bench-pipeline/5):
//   {
//     "schema": "pl-bench-pipeline/5",
//     "scale": 1.0, "seed": 42, "repeats": 5,
//     "machine": {"nproc": N, "compiler": "...", "build_type": "..."},
//     "before": {pre-interchange committed baseline stages, for the
//                before/after table},
//     "runs": [{"stages": {"world": ms, ...}, "total_ms": ms,
//               "fingerprint": "0x..."}],
//     "summary": {"world": {"p25": ms, "p50": ms, "p75": ms}, ...,
//                 "total": {...}},
//     "identical": true,
//     "metrics": {workload counters from the first run's obs snapshot},
//     "stage_latency_us": {stage wall-clock distribution across every
//                          repeat, as the shared percentile summary from
//                          bench/common.hpp (count/sum/p50/p90/p99/p999)}
//   }
//
// Exit status is non-zero when any repeat's fingerprint deviates from the
// first one's.

#include <cstdint>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"

namespace {

using pl::pipeline::Config;
using pl::pipeline::Result;
using pl::pipeline::StageTimings;

/// Repeats per invocation: enough for a median and quartiles.
constexpr int kRepeats = 5;

/// The committed pre-interchange baseline (schema pl-bench-pipeline/2, the
/// 1-thread machine of that era, scale 1.0 / seed 42, serial) — the
/// "before" half of the before/after table. Update when re-anchoring the
/// trajectory.
constexpr double kBeforeStagesMs[] = {151.546, 107.788, 505.201, 1091.315,
                                      182.719, 48.355,  40.012};
constexpr double kBeforeTotalMs = 2126.965;

#ifdef __VERSION__
constexpr const char* kCompiler = __VERSION__;
#else
constexpr const char* kCompiler = "unknown";
#endif

/// The seven Fig. 1 stages, then the whole run.
const char* const kRowNames[] = {"world", "op_world", "render", "restore",
                                 "admin", "op",       "taxonomy", "total"};
constexpr std::size_t kStageCount = std::size(kRowNames) - 1;

struct Run {
  StageTimings timings;
  std::uint64_t fingerprint = 0;
};

/// Row `row` of kRowNames: a stage, or the total.
double row_ms(const StageTimings& t, std::size_t row) {
  const double values[] = {t.world_ms,   t.op_world_ms, t.render_ms,
                           t.restore_ms, t.admin_ms,    t.op_ms,
                           t.taxonomy_ms, t.total_ms};
  return values[row];
}

struct Quartiles {
  double p25 = 0;
  double p50 = 0;
  double p75 = 0;
};

Quartiles quartiles(const std::vector<Run>& runs, std::size_t row) {
  std::vector<double> sample;
  for (const Run& run : runs) sample.push_back(row_ms(run.timings, row));
  return Quartiles{pl::util::quantile(sample, 0.25),
                   pl::util::quantile(sample, 0.50),
                   pl::util::quantile(sample, 0.75)};
}

int nproc() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
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

/// The workload block: non-timing counters from the first run's metrics
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
  json.key("schema").value("pl-bench-pipeline/5");
  json.key("scale").value(scale);
  json.key("seed").value(static_cast<std::uint64_t>(seed));
  json.key("repeats").value(static_cast<std::int64_t>(runs.size()));
  json.key("machine").begin_object();
  json.key("nproc").value(nproc());
  json.key("compiler").value(kCompiler);
  json.key("build_type").value(PL_BUILD_TYPE);
  json.end_object();

  // The "before" half of the before/after table: the committed
  // pre-interchange trajectory point.
  json.key("before").begin_object();
  json.key("schema").value("pl-bench-pipeline/2");
  json.key("stages").begin_object();
  for (std::size_t s = 0; s < kStageCount; ++s)
    json.key(kRowNames[s]).value(kBeforeStagesMs[s]);
  json.end_object();
  json.key("total_ms").value(kBeforeTotalMs);
  json.end_object();

  json.key("runs").begin_array();
  for (const Run& run : runs) {
    json.begin_object();
    json.key("stages").begin_object();
    for (std::size_t s = 0; s < kStageCount; ++s)
      json.key(kRowNames[s]).value(row_ms(run.timings, s));
    json.end_object();
    json.key("total_ms").value(run.timings.total_ms);
    json.key("fingerprint").value(fmt_fingerprint(run.fingerprint));
    json.end_object();
  }
  json.end_array();

  json.key("summary").begin_object();
  for (std::size_t row = 0; row < std::size(kRowNames); ++row) {
    const Quartiles q = quartiles(runs, row);
    json.key(kRowNames[row]).begin_object();
    json.key("p25").value(q.p25);
    json.key("p50").value(q.p50);
    json.key("p75").value(q.p75);
    json.end_object();
  }
  json.end_object();

  json.key("identical").value(identical);
  write_metrics_block(json, metrics);

  // Stage wall-clock distribution over every repeat, folded through the
  // log2 latency histogram so the artifact carries the shared percentile
  // shape. Microsecond unit: stage times are ms-scale doubles and the
  // histogram is integer-valued.
  pl::obs::LatencyHisto stage_histo;
  for (const Run& run : runs) {
    for (std::size_t s = 0; s < kStageCount; ++s) {
      const double stage = row_ms(run.timings, s);
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
                          "stage wall-clock, median of repeated runs");

  double scale = 1.0;
  std::uint64_t seed = 42;
  if (const char* env = std::getenv("PL_BENCH_SCALE")) scale = std::atof(env);
  if (const char* env = std::getenv("PL_BENCH_SEED"))
    seed = std::strtoull(env, nullptr, 10);
  std::string out_path = "BENCH_pipeline.json";
  if (const char* env = std::getenv("PL_BENCH_OUT")) out_path = env;

  std::cout << "scale=" << scale << " seed=" << seed << " repeats="
            << kRepeats << " nproc=" << nproc() << " compiler=" << kCompiler
            << " build_type=" << PL_BUILD_TYPE << "\n\n";

  std::vector<Run> runs;
  pl::obs::Snapshot first_metrics;
  for (int repeat = 0; repeat < kRepeats; ++repeat) {
    Config config;
    config.seed = seed;
    config.scale = scale;
    std::cerr << "[bench] repeat " << repeat + 1 << "/" << kRepeats << "\n";
    const Result result = pl::pipeline::run_simulated(config);
    runs.push_back(Run{result.timings, pl::bench::fingerprint(result)});
    // The first run's snapshot feeds the workload block; every repeat
    // holds identical metric values by the determinism contract.
    if (runs.size() == 1) first_metrics = result.report.metrics;
  }

  bool identical = true;
  for (const Run& run : runs)
    identical = identical && run.fingerprint == runs.front().fingerprint;

  // Per-stage quartiles over the repeats, next to the committed
  // pre-interchange baseline.
  std::cout << std::left << std::setw(10) << "stage" << std::right
            << std::setw(12) << "p25 ms" << std::setw(12) << "p50 ms"
            << std::setw(12) << "p75 ms" << std::setw(12) << "before ms"
            << std::setw(12) << "speedup" << "\n";
  for (std::size_t row = 0; row < std::size(kRowNames); ++row) {
    const Quartiles q = quartiles(runs, row);
    const double before =
        row < kStageCount ? kBeforeStagesMs[row] : kBeforeTotalMs;
    std::cout << std::left << std::setw(10) << kRowNames[row] << std::right
              << std::setw(12) << fmt_ms(q.p25) << std::setw(12)
              << fmt_ms(q.p50) << std::setw(12) << fmt_ms(q.p75)
              << std::setw(12) << fmt_ms(before) << std::setw(12)
              << fmt_speedup(q.p50 > 0 ? before / q.p50 : 0.0) << "\n";
  }
  std::cout << "\n";

  std::cout << "fingerprint: " << fmt_fingerprint(runs.front().fingerprint)
            << "\n";
  std::cout << "all repeats bit-identical to the first: "
            << (identical ? "yes" : "NO — DETERMINISM BUG") << "\n";

  write_json(out_path, scale, seed, runs, identical, first_metrics);
  std::cout << "wrote " << out_path << "\n";
  return identical ? 0 : 1;
}
