#include "bench/run.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

namespace perfbench {

std::optional<Workload> parse_workload(std::string_view name) {
  if (name == "study") return Workload::kStudy;
  if (name == "daily") return Workload::kDaily;
  return std::nullopt;
}

std::string_view workload_name(Workload workload) {
  switch (workload) {
    case Workload::kStudy:
      return "study";
    case Workload::kDaily:
      return "daily";
  }
  return "?";
}

Sizes sizes_for(Workload workload, int seconds) {
  // Calibrated so a run measures about `seconds` on a 4-core x86 box at
  // scale 1.0; see NOTES.md for the per-section costs behind these numbers.
  const double f = std::max(1, seconds) / 30.0;
  const auto scaled = [f](double at30, int floor) {
    return std::max(floor, static_cast<int>(std::lround(at30 * f)));
  };
  Sizes sizes;
  sizes.burst = 2000;
  sizes.point_burst = 20000;
  sizes.batch = 4096;
  // Both workloads fold 40 days, the fewest that give day_ms_tail a rung
  // above p50 (p75, ten samples beyond), and ask four as_of queries, one per
  // keyframe-distance stratum. Each carries enough of the other's sections
  // that every metric rests on several samples.
  sizes.days = scaled(40, 40);
  sizes.as_of = 4;
  switch (workload) {
    case Workload::kStudy:
      sizes.study_reps = scaled(7, 3);
      sizes.recoveries = scaled(9, 5);
      sizes.lookup_seconds = 2.5 * f;
      break;
    case Workload::kDaily:
      sizes.study_reps = scaled(5, 3);
      sizes.recoveries = scaled(12, 6);
      sizes.lookup_seconds = 0.6;
      break;
  }
  return sizes;
}

void Ledger::record(bool ok, std::string_view what) {
  ++attempted_;
  if (ok) return;
  ++failed_;
  if (failures_.size() < 16) failures_.emplace_back(what);
}

void Run::report(std::string name, double value, std::string unit,
                 std::string basis) {
  metrics.push_back(
      Metric{std::move(name), value, value, std::move(unit), std::move(basis)});
}

void Run::scale_to_reference() {
  const double slowdown = host.slowdown();
  for (Metric& metric : metrics) {
    if (is_time_unit(metric.unit)) metric.value = metric.measured / slowdown;
    if (is_rate_unit(metric.unit)) metric.value = metric.measured * slowdown;
  }
}

void Run::report_median(std::string name, const Samples& samples,
                        std::string unit) {
  ledger.record(!samples.empty(), "no samples for " + name);
  report(std::move(name), samples.median(), std::move(unit),
         "median of " + std::to_string(samples.count()));
}

void Run::report_tail(std::string name, const Samples& samples,
                      std::string unit) {
  const std::optional<Samples::Tail> tail = samples.tail();
  ledger.record(tail.has_value(), "too few samples for " + name);
  if (!tail) {
    report(std::move(name), samples.median(), std::move(unit), "no tail");
    return;
  }
  std::ostringstream basis;
  basis << "p" << tail->percentile << " of " << samples.count() << " ("
        << tail->beyond << " beyond)";
  report(std::move(name), tail->value, std::move(unit), basis.str());
}

}  // namespace perfbench
