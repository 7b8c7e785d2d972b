// perfbench: the repository's benchmark program. One process runs one
// workload at scale 1.0 with the library's pool set to run every stage on
// the calling thread:
//
//   perfbench --workload study|daily --seed N --seconds S
//             --trace 0|1 --work-dir DIR [--source-id ID]
//
// It prints an environment block, every metric with the samples it rests
// on, and as its last line one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// per-layer ones, timed by spans around each layer call. Any oracle
// mismatch makes `correct` false and the exit code 1. perfbench/run.py
// builds this program and is the command to run; NOTES.md explains the
// workloads and metrics.

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>

#include "bench/daily.hpp"
#include "bench/deploy.hpp"
#include "bench/env.hpp"
#include "bench/lookup.hpp"
#include "bench/oracle.hpp"
#include "bench/run.hpp"
#include "bench/study.hpp"
#include "exec/pool.hpp"

namespace {

using namespace perfbench;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  int seconds = 0;
  int trace = -1;
  std::string work_dir;
  std::string source_id = "unknown";
};

bool parse_args(int argc, char** argv, Args& args) {
  std::map<std::string, std::string> values;
  for (int i = 1; i + 1 < argc; i += 2) values[argv[i]] = argv[i + 1];
  if (argc % 2 != 1) return false;
  const auto take = [&](const char* key, std::string& out) {
    const auto it = values.find(key);
    if (it == values.end()) return false;
    out = it->second;
    values.erase(it);
    return true;
  };
  std::string seed;
  std::string seconds;
  std::string trace;
  if (!take("--workload", args.workload) || !take("--seed", seed) ||
      !take("--seconds", seconds) || !take("--trace", trace) ||
      !take("--work-dir", args.work_dir))
    return false;
  take("--source-id", args.source_id);
  if (!values.empty()) return false;
  char* end = nullptr;
  args.seed = std::strtoull(seed.c_str(), &end, 10);
  if (seed.empty() || *end != '\0') return false;
  args.seconds = std::atoi(seconds.c_str());
  args.trace = trace == "0" ? 0 : trace == "1" ? 1 : -1;
  return args.seconds > 0 && args.trace >= 0;
}

std::string json_number(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

std::string hex(std::uint64_t value) {
  char buffer[32];
  std::snprintf(buffer, sizeof buffer, "0x%016" PRIx64, value);
  return buffer;
}

std::uint64_t fingerprint_of(const pl::pipeline::Result& result) {
  return study_fingerprint(result.admin, result.op, result.taxonomy,
                           result.robustness);
}

/// One study repetition, timed from a trimmed heap and checked against
/// `expected`, the deployment's study fingerprint. Untraced: one
/// `run_simulated` call into `study_ms`. Traced: the composed study twice,
/// with tracing on and off, in alternating order, and the difference into
/// `overhead_ms`.
void study_rep(Run& run, std::uint64_t expected, Samples& study_ms,
               Samples& overhead_ms) {
  const pl::pipeline::Config config = study_config(world_seed(run.seed));
  if (!run.traced) {
    trim_heap();
    const Clock::time_point start = Clock::now();
    const pl::pipeline::Result result = pl::pipeline::run_simulated(config);
    study_ms.add(elapsed_ms(start));
    run.ledger.record(fingerprint_of(result) == expected,
                      "study fingerprint stable");
    return;
  }
  Tracer off(false);
  double ms[2] = {0, 0};  // traced, untraced
  const bool traced_first = overhead_ms.count() % 2 == 0;
  for (int i = 0; i < 2; ++i) {
    const bool traced = (i == 0) == traced_first;
    trim_heap();
    const Clock::time_point start = Clock::now();
    const ComposedStudy composed =
        run_composed_study(config, traced ? run.tracer : off);
    ms[traced ? 0 : 1] = elapsed_ms(start);
    run.ledger.record(fingerprint_of(composed.result) == expected,
                      "composed study fingerprint stable");
  }
  study_ms.add(ms[1]);
  overhead_ms.add(ms[0] - ms[1]);
}

void print_environment(const Run& run, const Environment& env) {
  std::cout << "env: nproc=" << env.nproc
            << " worker_threads=" << env.worker_threads
            << " compiler=\"" << env.compiler << "\""
            << " build_type=" << env.build_type << " source=" << env.source_id
            << " scale=" << env.scale
            << " timer_overhead_ns=" << env.timer_overhead_ns
            << " clients=1 (closed loop)\n";
  std::cout << "run: workload=" << workload_name(run.workload)
            << " seed=" << run.seed << " seconds=" << run.seconds
            << " trace=" << (run.traced ? 1 : 0)
            << " tail_rule=highest of p99/p95/p90/p75/p50 with >="
            << kTailMinBeyond << " samples beyond\n";
  const Sizes& s = run.sizes;
  std::cout << "sizes: setups=" << s.setups << " study_reps=" << s.study_reps
            << " days=" << s.days << " burst=" << s.burst
            << " recoveries=" << s.recoveries << " as_of=" << s.as_of
            << " lookup_seconds=" << s.lookup_seconds
            << " point_burst=" << s.point_burst << " batch=" << s.batch
            << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  const std::optional<Workload> workload =
      parse_args(argc, argv, args) ? parse_workload(args.workload)
                                   : std::nullopt;
  if (!workload) {
    std::cerr << "usage: perfbench --workload study|daily --seed N "
                 "--seconds S --trace 0|1 --work-dir DIR [--source-id ID]\n";
    return 2;
  }
  // Serial pool: on a shared host the spare processors come and go for
  // half an hour at a time, and with them the pool's speed-up, which no
  // reference kernel can correct for (NOTES.md, Steadiness).
  pl::exec::set_global_threads(0);
  Run run(*workload, args.seed, args.seconds, args.trace == 1,
          std::filesystem::path(args.work_dir));
  std::filesystem::create_directories(run.work_dir);
  const Environment env = probe_environment(1.0, args.source_id);
  print_environment(run, env);
  const Clock::time_point run_start = Clock::now();

  // Bring the deployment up several times; the last one serves. In a
  // traced run the bring-ups run the composed, traced study.
  Samples setup_ms;
  std::unique_ptr<Deployment> deployment;
  std::uint64_t reference = 0;
  for (int i = 0; i < run.sizes.setups; ++i) {
    deployment.reset();
    trim_heap();
    run.host.sample();
    deployment = bring_up(run, run.sizes.days, setup_ms);
    if (reference == 0) reference = deployment->fingerprint;
    run.ledger.record(deployment->fingerprint == reference,
                      "study fingerprint stable");
  }
  if (world_seed(run.seed) == kReferenceSeed)
    run.ledger.record(reference == kReferenceFingerprint,
                      "study fingerprint at seed 42");

  // The serving schedule: after every fold, recovery and as_of query, one
  // slice of the query mix, and the study repetitions spread evenly over
  // those slots. Host speed drifts over seconds, so every metric samples the
  // whole run rather than one stretch of it.
  const int slots = run.sizes.days + run.sizes.recoveries + run.sizes.as_of;
  std::vector<int> reps_at(static_cast<std::size_t>(slots), 0);
  for (int rep = 0; rep < run.sizes.study_reps; ++rep)
    ++reps_at[static_cast<std::size_t>((2 * rep + 1) * slots /
                                       (2 * run.sizes.study_reps))];
  const double slot_ms = 1000.0 * run.sizes.lookup_seconds / slots;
  Samples study_ms;     // untraced study repetitions
  Samples overhead_ms;  // traced run: traced - untraced composed study
  QueryMix mix(run, *deployment);
  std::size_t slot = 0;
  const auto run_slot = [&] {
    run.host.sample();
    if (slot < reps_at.size())
      for (int rep = 0; rep < reps_at[slot]; ++rep)
        study_rep(run, reference, study_ms, overhead_ms);
    ++slot;
  };
  run_daily(
      run, *deployment,
      [&] {
        mix.run_for(slot_ms);
        run_slot();
      },
      run.workload == Workload::kDaily);
  while (slot < reps_at.size()) run_slot();
  mix.finish(run.workload != Workload::kDaily);
  if (run.traced) {
    trim_heap();
    run.ledger.record(fingerprint_of(pl::pipeline::run_simulated(study_config(
                          world_seed(run.seed)))) == reference,
                      "composed study == run_simulated");
  }

  if (!run.traced) {
    Samples setup_s;
    for (const double ms : setup_ms.values()) setup_s.add(ms / 1000.0);
    Samples study_s;
    for (const double ms : study_ms.values()) study_s.add(ms / 1000.0);
    run.report_median("setup_s", setup_s, "s");
    run.report_median("study_s", study_s, "s");
  } else {
    const Tracer& tracer = run.tracer;
    for (const char* stage :
         {"rirsim.world", "bgpsim.op_world", "rirsim.render_encode",
          "restore.registries", "restore.reconcile", "lifetimes.admin",
          "lifetimes.op", "joint.classify", "serve.build"})
      run.report_median(std::string(stage) + "_ms", tracer.durations_ms(stage),
                        "ms");
    run.report("delegation.archive_bytes",
               static_cast<double>(deployment->archive_bytes), "bytes",
               "all registries");
    run.report("restore.spans", static_cast<double>(deployment->restored_spans),
               "count", "all registries");
    run.report("lifetimes.admin_lives",
               static_cast<double>(deployment->study.admin.lifetimes.size()),
               "count");
    run.report("lifetimes.op_lives",
               static_cast<double>(deployment->study.op.lifetimes.size()),
               "count");
    run.report("exec.threads", std::max(1, env.worker_threads), "count",
               "threads running the pool's stages");
    // Tracing overhead: the composed study traced minus the same study with
    // tracing off, paired within each repetition slot.
    run.report("trace.overhead_ms", overhead_ms.median(), "ms",
               "median of " + std::to_string(overhead_ms.count()) +
                   " paired differences");
    for (const auto& [layer, ms] : run.tracer.self_ms_by_layer())
      run.report("self." + layer + "_ms", ms, "ms", "summed self time");
  }
  deployment.reset();
  if (!run.traced) {
    run.report("peak_rss_mb", peak_rss_mb(), "MiB", "getrusage");
    run.report("ok_frac",
               static_cast<double>(run.ledger.attempted() -
                                   run.ledger.failed()) /
                   static_cast<double>(std::max<std::int64_t>(
                       1, run.ledger.attempted())),
               "ratio", std::to_string(run.ledger.attempted()) + " attempted");
  }

  if (run.traced) {
    const std::filesystem::path trace_path =
        run.work_dir / ("trace-" + std::string(workload_name(run.workload)) +
                        "-" + std::to_string(run.seed) + ".jsonl");
    std::ofstream out(trace_path);
    run.tracer.write_jsonl(out);
    std::cout << "trace: " << run.tracer.spans().size() << " spans written to "
              << trace_path.string() << "\n";
  }

  run.scale_to_reference();
  std::cout << "inputs: hash=" << hex(run.inputs.value())
            << " study_fingerprint=" << hex(reference) << "\n";
  std::cout << "host: reference kernel median "
            << run.host.samples().median() << " ms of "
            << run.host.samples().count() << " passes (checksum "
            << hex(run.host.checksum()) << "), slowdown "
            << run.host.slowdown() << " against " << kReferenceMs
            << " ms; timings below are measured / slowdown\n";
  std::cout << "measured: " << elapsed_ms(run_start) / 1000.0 << " s\n";
  for (const Metric& metric : run.metrics)
    std::cout << "  " << metric.name << " = " << json_number(metric.value)
              << " " << metric.unit
              << (metric.basis.empty() ? "" : "  [" + metric.basis + "]")
              << (metric.value == metric.measured
                      ? ""
                      : "  measured " + json_number(metric.measured))
              << "\n";
  for (const std::string& failure : run.ledger.failures())
    std::cout << "FAILED: " << failure << "\n";

  std::ostringstream json;
  json << "{\"correct\": " << (run.ledger.correct() ? "true" : "false")
       << ", \"attempted\": " << run.ledger.attempted()
       << ", \"failed\": " << run.ledger.failed() << ", \"metrics\": {";
  for (std::size_t i = 0; i < run.metrics.size(); ++i) {
    const Metric& metric = run.metrics[i];
    json << (i == 0 ? "" : ", ") << "\"" << metric.name
         << "\": {\"value\": " << json_number(metric.value)
         << ", \"unit\": \"" << metric.unit << "\"}";
  }
  json << "}}";
  std::cout << json.str() << std::endl;
  return run.ledger.correct() ? 0 : 1;
}
