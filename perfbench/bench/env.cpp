#include "bench/env.hpp"

#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <utility>

#include "bench/stats.hpp"
#include "exec/pool.hpp"

namespace perfbench {

namespace {

/// Median cost of two back-to-back clock reads, over many batches.
double measure_timer_overhead_ns() {
  constexpr int kBatches = 31;
  constexpr int kPairs = 20000;
  Samples per_pair;
  for (int batch = 0; batch < kBatches; ++batch) {
    // Clock::now() is an opaque library call, so the loop cannot be elided.
    const Clock::time_point start = Clock::now();
    for (int i = 0; i < kPairs; ++i) {
      Clock::now();
      Clock::now();
    }
    per_pair.add(elapsed_us(start) * 1000.0 / kPairs);
  }
  return per_pair.median();
}

}  // namespace

Environment probe_environment(double scale, std::string source_id) {
  Environment env;
  env.nproc = static_cast<int>(sysconf(_SC_NPROCESSORS_ONLN));
  env.worker_threads = pl::exec::current_threads();
  env.compiler = PERFBENCH_COMPILER;
  env.build_type = PERFBENCH_BUILD_TYPE;
  env.source_id = std::move(source_id);
  env.scale = scale;
  env.timer_overhead_ns = measure_timer_overhead_ns();
  return env;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void trim_heap() { malloc_trim(0); }

}  // namespace perfbench
