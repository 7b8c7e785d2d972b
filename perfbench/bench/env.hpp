// The environment block every run prints, and process-level helpers.
#pragma once

#include <string>

namespace perfbench {

struct Environment {
  int nproc = 0;               ///< online processors
  int worker_threads = 0;      ///< pool workers; 0 runs stages inline
  std::string compiler;
  std::string build_type;
  std::string source_id;       ///< git sha, or a hash of the source tree
  double scale = 1.0;
  double timer_overhead_ns = 0;  ///< one steady_clock::now() pair
};

Environment probe_environment(double scale, std::string source_id);

/// Peak resident set size of this process so far, in MiB.
double peak_rss_mb();

/// Return freed heap memory to the system, so every timed phase starts
/// from the same heap state whatever ran before it.
void trim_heap();

}  // namespace perfbench
