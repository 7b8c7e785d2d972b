// Deterministic metrics registry for the Fig. 1 pipeline.
//
// Three metric kinds, all integer-valued so that parallel accumulation is
// exact and scheduling-invariant:
//
//   * Counter   — monotonically increasing int64; `add()` is a relaxed
//     atomic increment on a per-thread stripe, cheap enough for hot loops.
//     Integer addition is exact and commutative, so the merged value (the
//     sum over stripes, read in stripe order) is bit-identical no matter
//     how many threads incremented it (concurrent QueryService readers
//     share one registry).
//   * Gauge     — a last-write-wins int64. Set gauges from serial sections
//     only when the determinism contract matters; concurrent `set()` is
//     safe but the surviving value is scheduling-dependent.
//   * Histogram — fixed inclusive upper-bound buckets over int64 samples
//     (counts per bucket, total count, exact integer sum). Bucket counts
//     are Counters, so histograms inherit the determinism contract.
//
// Naming convention: Prometheus-style flat names with optional labels
// embedded in the name, e.g. `pl_restore_days_processed{registry="apnic"}`.
// The registry itself treats names as opaque keys; the exporters split the
// base name from the label block for the text exposition format.
//
// `Registry::snapshot()` freezes every metric into a value-type `Snapshot`
// (sorted by name — the deterministic serial iteration order all exporters
// and equality tests observe).
//
// Compile-time kill switch: building with -DPL_OBS_OFF=1 (CMake option
// PL_OBS_OFF) replaces every type in this header with an empty no-op
// shell, so instrumented hot loops compile to nothing. The
// `obs_off_check` ctest builds a translation unit both ways and
// static_asserts the no-op types are empty.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "obs/latency.hpp"

#ifndef PL_OBS_OFF
#include <algorithm>
#include <atomic>
#include <mutex>
#endif

namespace pl::obs {

/// One frozen histogram: `buckets[i]` counts samples v with
/// `bounds[i-1] < v <= bounds[i]`; the final bucket counts v > bounds.back().
struct HistogramSnapshot {
  std::vector<std::int64_t> bounds;   ///< ascending inclusive upper edges
  std::vector<std::int64_t> buckets;  ///< size bounds.size() + 1 (overflow)
  std::int64_t count = 0;
  std::int64_t sum = 0;

  friend bool operator==(const HistogramSnapshot&,
                         const HistogramSnapshot&) = default;
};

/// Frozen registry contents, sorted by metric name. Copyable and directly
/// comparable — tests assert Snapshot equality between runs.
struct Snapshot {
  std::map<std::string, std::int64_t> counters;
  std::map<std::string, std::int64_t> gauges;
  std::map<std::string, HistogramSnapshot> histograms;
  /// Log2-resolution latency histograms (obs/latency.hpp). Latency *values*
  /// are wall clock — differential tests comparing Snapshots across thread
  /// counts should clear this map first (see `without_latencies()`).
  std::map<std::string, LatencyHistoSnapshot> latencies;

  /// Copy with the wall-clock latency histograms stripped — the view the
  /// cross-config determinism assertions compare.
  Snapshot without_latencies() const {
    Snapshot copy = *this;
    copy.latencies.clear();
    return copy;
  }

  /// Value of one counter (0 when absent).
  std::int64_t counter_value(std::string_view name) const noexcept {
    const auto it = counters.find(std::string(name));
    return it == counters.end() ? 0 : it->second;
  }

  /// Sum of every counter whose name is `base` or `base{...labels...}` —
  /// the cross-label aggregate, e.g. total days processed over registries.
  std::int64_t counter_sum(std::string_view base) const noexcept {
    std::int64_t total = 0;
    for (const auto& [name, value] : counters)
      if (name == base ||
          (name.size() > base.size() &&
           name.compare(0, base.size(), base) == 0 && name[base.size()] == '{'))
        total += value;
    return total;
  }

  friend bool operator==(const Snapshot&, const Snapshot&) = default;
};

#ifndef PL_OBS_OFF

inline constexpr bool kEnabled = true;

/// Stripes per counter. One stripe is assigned per thread (round-robin on
/// first use), so hot-loop increments from different threads land on
/// different cache lines.
inline constexpr std::size_t kStripes = 16;

namespace detail {

inline std::size_t stripe_index() noexcept {
  static std::atomic<std::size_t> next{0};
  thread_local const std::size_t mine =
      next.fetch_add(1, std::memory_order_relaxed) % kStripes;
  return mine;
}

struct alignas(64) Stripe {
  std::atomic<std::int64_t> value{0};
};

}  // namespace detail

class Counter {
 public:
  void add(std::int64_t delta = 1) noexcept {
    stripes_[detail::stripe_index()].value.fetch_add(
        delta, std::memory_order_relaxed);
  }

  /// Sum over stripes in stripe order. Exact regardless of which threads
  /// incremented: int64 addition is commutative and associative.
  std::int64_t value() const noexcept {
    std::int64_t total = 0;
    for (const detail::Stripe& stripe : stripes_)
      total += stripe.value.load(std::memory_order_relaxed);
    return total;
  }

 private:
  detail::Stripe stripes_[kStripes];
};

class Gauge {
 public:
  void set(std::int64_t value) noexcept {
    value_.store(value, std::memory_order_relaxed);
  }

  std::int64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::int64_t> value_{0};
};

class Histogram {
 public:
  explicit Histogram(std::vector<std::int64_t> bounds)
      : bounds_(std::move(bounds)), buckets_(bounds_.size() + 1) {
    std::sort(bounds_.begin(), bounds_.end());
  }

  /// Record one sample: binary search for the first bound >= v, striped
  /// increments on the bucket, the count, and the exact integer sum.
  void observe(std::int64_t v) noexcept {
    const std::size_t index = static_cast<std::size_t>(
        std::lower_bound(bounds_.begin(), bounds_.end(), v) -
        bounds_.begin());
    buckets_[index].add(1);
    count_.add(1);
    sum_.add(v);
  }

  const std::vector<std::int64_t>& bounds() const noexcept { return bounds_; }

  HistogramSnapshot snapshot() const {
    HistogramSnapshot snap;
    snap.bounds = bounds_;
    snap.buckets.reserve(buckets_.size());
    for (const Counter& bucket : buckets_)
      snap.buckets.push_back(bucket.value());
    snap.count = count_.value();
    snap.sum = sum_.value();
    return snap;
  }

 private:
  std::vector<std::int64_t> bounds_;
  std::vector<Counter> buckets_;  // never resized; Counter is immovable
  Counter count_;
  Counter sum_;
};

/// Named metric store. `counter()` / `gauge()` / `histogram()` get-or-create
/// under a mutex and return a stable reference — hot loops hoist the lookup
/// out of the loop and pay only the striped increment per iteration.
class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  Counter& counter(const std::string& name) {
    const std::lock_guard<std::mutex> lock(mutex_);
    auto& slot = counters_[name];
    if (slot == nullptr) slot = std::make_unique<Counter>();
    return *slot;
  }

  Gauge& gauge(const std::string& name) {
    const std::lock_guard<std::mutex> lock(mutex_);
    auto& slot = gauges_[name];
    if (slot == nullptr) slot = std::make_unique<Gauge>();
    return *slot;
  }

  /// First registration fixes the bucket bounds; later calls with the same
  /// name return the existing histogram regardless of `bounds`.
  Histogram& histogram(const std::string& name,
                       std::vector<std::int64_t> bounds) {
    const std::lock_guard<std::mutex> lock(mutex_);
    auto& slot = histograms_[name];
    if (slot == nullptr) slot = std::make_unique<Histogram>(std::move(bounds));
    return *slot;
  }

  /// Log2-resolution latency histogram (obs/latency.hpp) — no bounds to
  /// choose; every non-negative int64 sample has a slot.
  LatencyHisto& latency(const std::string& name) {
    const std::lock_guard<std::mutex> lock(mutex_);
    auto& slot = latencies_[name];
    if (slot == nullptr) slot = std::make_unique<LatencyHisto>();
    return *slot;
  }

  /// Freeze every metric, sorted by name.
  Snapshot snapshot() const {
    Snapshot snap;
    const std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& [name, counter] : counters_)
      snap.counters.emplace(name, counter->value());
    for (const auto& [name, gauge] : gauges_)
      snap.gauges.emplace(name, gauge->value());
    for (const auto& [name, histogram] : histograms_)
      snap.histograms.emplace(name, histogram->snapshot());
    for (const auto& [name, latency] : latencies_)
      snap.latencies.emplace(name, latency->snapshot());
    return snap;
  }

 private:
  mutable std::mutex mutex_;
  // std::map: snapshot() iterates in sorted-name order with no extra sort.
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
  std::map<std::string, std::unique_ptr<LatencyHisto>, std::less<>> latencies_;
};

#else  // PL_OBS_OFF — empty shells, enforced zero-cost by obs_off_check.

inline constexpr bool kEnabled = false;

class Counter {
 public:
  void add(std::int64_t = 1) noexcept {}
  std::int64_t value() const noexcept { return 0; }
};

class Gauge {
 public:
  void set(std::int64_t) noexcept {}
  std::int64_t value() const noexcept { return 0; }
};

class Histogram {
 public:
  void observe(std::int64_t) noexcept {}
  HistogramSnapshot snapshot() const { return {}; }
};

class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  Counter& counter(const std::string&) noexcept {
    static Counter dummy;
    return dummy;
  }
  Gauge& gauge(const std::string&) noexcept {
    static Gauge dummy;
    return dummy;
  }
  Histogram& histogram(const std::string&, std::vector<std::int64_t>) {
    static Histogram dummy;
    return dummy;
  }
  LatencyHisto& latency(const std::string&) noexcept {
    static LatencyHisto dummy;
    return dummy;
  }
  Snapshot snapshot() const { return {}; }
};

#endif  // PL_OBS_OFF

}  // namespace pl::obs
