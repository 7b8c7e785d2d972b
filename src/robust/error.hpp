// Structured error channel for the ingestion path.
//
// Seventeen years of daily fetches from five FTP sites fail in every way a
// transport can fail; a pipeline that promises daily updates forever (paper
// 9) cannot afford silent drops. Every stage that used to swallow bad input
// now emits a `Diagnostic` into an `ErrorSink` and bumps the shared
// `RobustnessReport` counters, so a run can prove the accounting identity
//   days applied + days quarantined == days delivered
// and an operator can distinguish "archive was clean" from "we dropped half
// of it on the floor".
//
// This header is intentionally header-only: `pl_delegation` and `pl_bgp`
// report into the sink, while the chaos injector (pl_robust) wraps
// delegation streams — a compiled sink would make the libraries mutually
// dependent.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "util/date.hpp"

namespace pl::robust {

/// Where in the ingestion pipeline a fault surfaced.
enum class Stage : std::uint8_t {
  kFetch,       ///< transport: file never arrived (outage, failed retry)
  kParse,       ///< delegation-file text parser
  kDecode,      ///< MRT binary decoder
  kStream,      ///< day-stream discipline (duplicate / out-of-order days)
  kRestore,     ///< restoration-pipeline state machine (incl. API misuse)
  kCheckpoint,  ///< checkpoint serialization / resume
};
inline constexpr std::size_t kStageCount = 6;

constexpr std::string_view stage_name(Stage stage) noexcept {
  constexpr std::string_view names[kStageCount] = {
      "fetch", "parse", "decode", "stream", "restore", "checkpoint"};
  return names[static_cast<std::size_t>(stage)];
}

enum class Severity : std::uint8_t {
  kInfo,     ///< recovered transparently (e.g. retry succeeded)
  kWarning,  ///< data degraded but pipeline continues (lenient mode)
  kError,    ///< data lost; strict mode stops here
  kFatal,    ///< state unusable (checkpoint corrupt, API misuse)
};

/// Strict mode treats record-level damage as fatal to the current unit of
/// work (file / buffer / stream); lenient mode salvages what it can and
/// keeps the books. Lenient is what an unattended daily pipeline runs.
enum class Policy : std::uint8_t { kLenient, kStrict };

/// One structured fault record: machine-readable `code`, human `message`,
/// and optional day/ASN scope so reports can be joined against the archive.
struct Diagnostic {
  Stage stage = Stage::kFetch;
  Severity severity = Severity::kWarning;
  std::string code;     ///< stable slug, e.g. "mrt-truncated-tail"
  std::string message;  ///< free-form detail
  std::optional<util::Day> day;
  std::optional<std::uint32_t> asn;
};

/// Aggregate robustness accounting for one ingestion run, surfaced alongside
/// the per-registry `restore::RestorationReport`. Counter groups:
///   * diagnostics — how many faults of each severity/stage were reported;
///   * injector side — what the transport delivered vs. dropped;
///   * consumer side — what the restorer applied vs. quarantined;
///   * record level — salvage accounting for the tolerant decoders.
struct RobustnessReport {
  std::int64_t infos = 0;
  std::int64_t warnings = 0;
  std::int64_t errors = 0;
  std::int64_t fatals = 0;
  std::int64_t by_stage[kStageCount] = {};

  // Transport accounting (FaultStream).
  std::int64_t days_input = 0;       ///< days pulled from the pristine stream
  std::int64_t days_delivered = 0;   ///< days handed on (incl. dup copies)
  std::int64_t days_dropped = 0;     ///< eaten by outages / failed retries
  std::int64_t days_duplicated = 0;  ///< extra copies injected
  std::int64_t days_reordered = 0;   ///< swapped pairs delivered out of order
  std::int64_t channels_corrupted = 0;
  std::int64_t fetch_retries = 0;
  std::int64_t fetch_failures = 0;

  // Consumer accounting (StreamingRestorer ingestion guard).
  std::int64_t days_applied = 0;
  std::int64_t days_quarantined_duplicate = 0;
  std::int64_t days_quarantined_late = 0;
  std::int64_t days_reorder_recovered = 0;  ///< late days saved by the window
  std::int64_t misuse_calls = 0;            ///< consume() on a spent restorer

  // Record / byte salvage accounting (tolerant decoders, corruptors).
  std::int64_t records_salvaged = 0;
  std::int64_t records_skipped = 0;
  std::int64_t bytes_discarded = 0;
  std::int64_t checkpoint_failures = 0;

  /// The conservation law chaos runs assert: every day the transport
  /// delivered was either applied or quarantined — nothing vanishes.
  bool delivery_accounted() const noexcept {
    return days_applied + days_quarantined_duplicate +
               days_quarantined_late ==
           days_delivered;
  }

  /// Transport-side conservation: input days are delivered or dropped;
  /// duplicates are the only source of extra deliveries.
  bool transport_accounted() const noexcept {
    return days_delivered == days_input - days_dropped + days_duplicated;
  }
};

/// Collector for diagnostics plus the shared counter block. Retains at most
/// `max_retained` diagnostics (bounded memory against pathological inputs)
/// but counts every report. Under `Policy::kStrict` the first kError-or-worse
/// diagnostic trips the sink: `ok()` goes false and well-behaved producers
/// stop feeding the current unit of work.
class ErrorSink {
 public:
  explicit ErrorSink(Policy policy = Policy::kLenient,
                     std::size_t max_retained = 1024)
      : policy_(policy), max_retained_(max_retained) {}

  /// Record one diagnostic. Returns `ok()` so producers can write
  /// `if (!sink->report(...)) return;` in strict-aware loops.
  bool report(Diagnostic diagnostic) {
    switch (diagnostic.severity) {
      case Severity::kInfo: ++counters_.infos; break;
      case Severity::kWarning: ++counters_.warnings; break;
      case Severity::kError: ++counters_.errors; break;
      case Severity::kFatal: ++counters_.fatals; break;
    }
    ++counters_.by_stage[static_cast<std::size_t>(diagnostic.stage)];
    if (policy_ == Policy::kStrict &&
        diagnostic.severity >= Severity::kError)
      tripped_ = true;
    if (diagnostics_.size() < max_retained_)
      diagnostics_.push_back(std::move(diagnostic));
    else
      ++overflowed_;
    return ok();
  }

  /// False once a strict sink has seen an error; lenient sinks never trip.
  bool ok() const noexcept { return !tripped_; }

  Policy policy() const noexcept { return policy_; }

  /// Retained diagnostics (first `max_retained` reports).
  const std::vector<Diagnostic>& diagnostics() const noexcept {
    return diagnostics_;
  }

  /// Diagnostics counted but not retained.
  std::size_t overflowed() const noexcept { return overflowed_; }

  /// Mutable counter block — instrumented stages bump these directly.
  RobustnessReport& counters() noexcept { return counters_; }
  const RobustnessReport& counters() const noexcept { return counters_; }

 private:
  Policy policy_;
  std::size_t max_retained_;
  bool tripped_ = false;
  std::size_t overflowed_ = 0;
  std::vector<Diagnostic> diagnostics_;
  RobustnessReport counters_;
};

/// Publish the robustness counter block: diagnostics by severity and stage,
/// transport vs. consumer day accounting, and record-level salvage.
inline void record_metrics(const RobustnessReport& report,
                           obs::Registry& metrics) {
  const auto severity = [&](std::string_view name, std::int64_t value) {
    metrics
        .counter("pl_fault_diagnostics{severity=\"" + std::string(name) +
                 "\"}")
        .add(value);
  };
  severity("info", report.infos);
  severity("warning", report.warnings);
  severity("error", report.errors);
  severity("fatal", report.fatals);
  for (std::size_t i = 0; i < kStageCount; ++i)
    metrics
        .counter("pl_fault_by_stage{stage=\"" +
                 std::string(stage_name(static_cast<Stage>(i))) + "\"}")
        .add(report.by_stage[i]);

  metrics.counter("pl_fault_days_input").add(report.days_input);
  metrics.counter("pl_fault_days_delivered").add(report.days_delivered);
  metrics.counter("pl_fault_days_dropped").add(report.days_dropped);
  metrics.counter("pl_fault_days_duplicated").add(report.days_duplicated);
  metrics.counter("pl_fault_days_reordered").add(report.days_reordered);
  metrics.counter("pl_fault_channels_corrupted")
      .add(report.channels_corrupted);
  metrics.counter("pl_fault_fetch_retries").add(report.fetch_retries);
  metrics.counter("pl_fault_fetch_failures").add(report.fetch_failures);

  metrics.counter("pl_ingest_days_applied").add(report.days_applied);
  metrics.counter("pl_ingest_days_quarantined{reason=\"duplicate\"}")
      .add(report.days_quarantined_duplicate);
  metrics.counter("pl_ingest_days_quarantined{reason=\"late\"}")
      .add(report.days_quarantined_late);
  metrics.counter("pl_ingest_days_reorder_recovered")
      .add(report.days_reorder_recovered);
  metrics.counter("pl_ingest_misuse_calls").add(report.misuse_calls);

  metrics.counter("pl_salvage_records_salvaged").add(report.records_salvaged);
  metrics.counter("pl_salvage_records_skipped").add(report.records_skipped);
  metrics.counter("pl_salvage_bytes_discarded").add(report.bytes_discarded);
  metrics.counter("pl_checkpoint_failures").add(report.checkpoint_failures);
}

}  // namespace pl::robust
