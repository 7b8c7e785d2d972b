// Sample sets and the percentile rules every reported timing goes through.
#pragma once

#include <chrono>
#include <cstddef>
#include <optional>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double elapsed_ms(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

inline double elapsed_us(Clock::time_point start) {
  return std::chrono::duration<double, std::micro>(Clock::now() - start)
      .count();
}

/// Point lookups whose latency is timed individually: one in this many.
/// Two clock reads cost about a fifth of a cached lookup, so timing every
/// lookup would inflate both its latency and the burst's throughput; the
/// library samples its own point-latency histogram the same way.
inline constexpr std::size_t kLatencySampleStride = 8;

/// Percentiles a `_tail` metric may stand for, highest first. The tail is
/// the highest of these with at least `kTailMinBeyond` samples above it, so
/// a tail never rests on a handful of outliers: 20 samples give p50, 40
/// give p75, 1000 give p99. p99.9 is left out on purpose: for
/// sub-microsecond operations it measures host interrupts.
inline constexpr double kTailLadder[] = {99.0, 95.0, 90.0, 75.0, 50.0};
inline constexpr std::size_t kTailMinBeyond = 10;

/// Index of the nearest-rank percentile `p` in a sorted set of `n` samples.
std::size_t rank_index(std::size_t n, double p);

/// Samples strictly beyond the nearest-rank percentile `p` of `n` samples.
std::size_t samples_beyond(std::size_t n, double p);

/// The percentile `_tail` reports for `n` samples, or nullopt when even the
/// lowest rung has fewer than `kTailMinBeyond` samples beyond it.
std::optional<double> tail_percentile(std::size_t n);

/// One timing's samples, in the order they were taken.
class Samples {
 public:
  void add(double value) { values_.push_back(value); }
  void reserve(std::size_t n) { values_.reserve(n); }
  std::size_t count() const noexcept { return values_.size(); }
  bool empty() const noexcept { return values_.empty(); }
  const std::vector<double>& values() const noexcept { return values_; }

  double sum() const;
  double mean() const;
  double median() const;
  double percentile(double p) const;  ///< nearest rank, 0 when empty

  struct Tail {
    double percentile = 0;
    double value = 0;
    std::size_t beyond = 0;
  };
  /// The tail under the ladder rule; nullopt when too few samples.
  std::optional<Tail> tail() const;

 private:
  std::vector<double> values_;
};

}  // namespace perfbench
