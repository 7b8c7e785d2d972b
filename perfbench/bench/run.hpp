// One benchmark run: its arguments, the sizes of its sections, and what it
// accumulates — the operation ledger, the metrics it reports, the spans of
// the traced run and the hash of every input it generated.
#pragma once

#include <cstdint>
#include <filesystem>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "bench/host.hpp"
#include "bench/inputs.hpp"
#include "bench/stats.hpp"
#include "bench/trace.hpp"

namespace perfbench {

enum class Workload { kStudy, kDaily };

std::optional<Workload> parse_workload(std::string_view name);
std::string_view workload_name(Workload workload);

/// How much of each section a run does. Every workload runs every section,
/// because every run reports every end-to-end metric; the workload decides
/// which section gets the bulk of the run.
struct Sizes {
  int setups = 3;            ///< deployment bring-ups (setup_s samples)
  int study_reps = 0;        ///< run_simulated calls (study_s samples)
  int days = 0;              ///< days folded into the durable service
  std::size_t burst = 0;     ///< point lookups after each fold
  int recoveries = 0;        ///< cold opens of a copy of the state directory
  int as_of = 0;             ///< as_of queries at recorded days
  std::size_t as_of_keys = 64;    ///< ASNs asked per as_of query
  double lookup_seconds = 0;      ///< time spent in the query mix
  std::size_t point_burst = 0;    ///< Zipf point lookups per query round
  std::size_t batch = 0;          ///< ASNs per batch / alive-batch query
};

/// Section sizes for `workload`, scaled from the `--seconds` budget. The
/// sizes depend on the budget alone, never on the clock, so two runs with
/// the same arguments do the same work.
Sizes sizes_for(Workload workload, int seconds);

/// Operations attempted and failed. An operation fails when it returns an
/// error or when its answer disagrees with an oracle; every failure also
/// marks the run incorrect.
class Ledger {
 public:
  void record(bool ok, std::string_view what);
  std::int64_t attempted() const noexcept { return attempted_; }
  std::int64_t failed() const noexcept { return failed_; }
  bool correct() const noexcept { return failed_ == 0; }
  const std::vector<std::string>& failures() const noexcept {
    return failures_;
  }

 private:
  std::int64_t attempted_ = 0;
  std::int64_t failed_ = 0;
  std::vector<std::string> failures_;  ///< first few, for the log
};

/// One reported metric, with the sample count and percentile it rests on.
/// `value` is as measured until `Run::scale_to_reference` scales timings.
struct Metric {
  std::string name;
  double value = 0;
  double measured = 0;  ///< the value before host-speed scaling
  std::string unit;
  std::string basis;  ///< e.g. "median of 40", "p75 of 40 (10 beyond)"
};

struct Run {
  Run(Workload workload, std::uint64_t seed, int seconds, bool traced,
      std::filesystem::path work_dir)
      : workload(workload),
        seed(seed),
        seconds(seconds),
        traced(traced),
        work_dir(std::move(work_dir)),
        sizes(sizes_for(workload, seconds)),
        tracer(traced) {}

  Workload workload;
  std::uint64_t seed;
  int seconds;
  bool traced;
  std::filesystem::path work_dir;
  Sizes sizes;
  Tracer tracer;
  HostSpeed host;
  Ledger ledger;
  InputHash inputs;
  std::vector<Metric> metrics;

  /// A seeded generator for one named input stream of this run.
  pl::util::Rng rng(std::string_view stream) const {
    return pl::util::Rng(derive_seed(seed, stream));
  }

  void report(std::string name, double value, std::string unit,
              std::string basis = {});
  /// Report the median of `samples` as `name`.
  void report_median(std::string name, const Samples& samples,
                     std::string unit);
  /// Report the ladder tail of `samples` as `name`; a set too small for any
  /// rung is a sizing bug and fails the run.
  void report_tail(std::string name, const Samples& samples, std::string unit);
  /// Scale every reported timing and rate by the run's host slowdown; call
  /// once, after the last report.
  void scale_to_reference();
};

}  // namespace perfbench
