// Host-speed calibration. The benchmark runs on shared hosts whose speed
// drifts by tens of percent over minutes, moving every timing of a run
// together. A fixed reference kernel, owned by the benchmark and independent
// of the library, is timed between the run's operations; every reported
// timing is then scaled by kReferenceMs / (the kernel's median in this run),
// so it reads as the time on a host where the kernel takes kReferenceMs.
// A change to the program moves the scaled timings exactly as it moves the
// measured ones; a change in the host's per-core speed moves the kernel too
// and cancels. Contention only the program's parallel stages feel does not.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "bench/stats.hpp"

namespace perfbench {

/// The kernel's median time on the host the sizes were calibrated on (4-core
/// Intel Xeon VM, GCC 12, RelWithDebInfo), in ms. A fixed unit, not a
/// measurement any run must reproduce.
inline constexpr double kReferenceMs = 25.0;

class HostSpeed {
 public:
  HostSpeed();

  /// Time one pass of the reference kernel.
  void sample();

  const Samples& samples() const noexcept { return samples_; }
  /// Median kernel time over kReferenceMs: above 1 on a slower host.
  double slowdown() const;
  /// The last pass's result, the same on every pass; printed so the pass
  /// cannot be optimised away.
  std::uint64_t checksum() const noexcept { return checksum_; }

 private:
  std::uint64_t pass();

  std::vector<std::uint32_t> ring_;  ///< one random cycle over all slots
  std::vector<std::uint64_t> keys_;  ///< unsorted sort input
  std::vector<std::uint64_t> work_;  ///< sort buffer
  std::uint64_t checksum_ = 0;
  Samples samples_;
};

/// True for the units reported timings use (s, ms, us, ns): these are
/// divided by the slowdown. Rates ("1/s") are multiplied by it.
bool is_time_unit(std::string_view unit);
bool is_rate_unit(std::string_view unit);

}  // namespace perfbench
