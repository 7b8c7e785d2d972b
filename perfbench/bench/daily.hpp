// The daily section: fold consecutive pre-sliced days into the durable
// service (each followed by a lookup burst on the cache the fold dropped),
// cold-recover copies of its state directory along the way, and answer
// as_of queries at recorded days. `between` runs after each of these
// operations; the caller uses it to spread the rest of the run's work over
// the same stretch of time.
#pragma once

#include <functional>

#include "bench/deploy.hpp"
#include "bench/run.hpp"

namespace perfbench {

/// Runs the section and reports day_ms_p50, day_ms_tail, recover_s,
/// as_of_ms_p50, wal_bytes_per_day and history_bytes_per_day (traced: the
/// serve.advance/wal/checkpoint/open/replay and history.append/at metrics).
/// When `report_lookups`, the bursts also supply lookup_us_p50/_us_tail
/// (traced: serve.lookup_ns and the cache metrics).
void run_daily(Run& run, Deployment& deployment,
               const std::function<void()>& between, bool report_lookups);

}  // namespace perfbench
