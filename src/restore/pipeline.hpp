// The restoration pipeline (paper 3.1): six sanitization steps turning 17
// years of imperfect delegation files into consistent per-ASN status
// timelines.
//
//   (i)   missing-file gap filling — state carries across absent/corrupt
//         files when the record reappears unchanged;
//   (ii)  missing-record recovery — records that vanish from the extended
//         file while still present in the regular file are kept;
//   (iii) same-day reconciliation — when both files of a day disagree, the
//         newest wins, except short disappearances recovered from the older;
//   (iv)  invalid-duplicate resolution — conflicting duplicate records
//         (AfriNIC) resolved from history and, optionally, BGP activity;
//   (v)   registration-date repair — future dates clamped to first
//         appearance; placeholder dates (1993-09-01) restored from the ERX
//         reference records;
//   (vi)  inter-RIR reconciliation — stale transfer data trimmed and
//         mistaken foreign-block allocations removed.
#pragma once

#include <functional>
#include <memory>
#include <optional>

#include "bgp/activity.hpp"
#include "delegation/archive.hpp"
#include "delegation/interchange.hpp"
#include "obs/metrics.hpp"
#include "restore/types.hpp"
#include "robust/error.hpp"

namespace pl::restore {

/// Original registration dates for ERX-transferred resources ("erx-asns"
/// style reference data).
using ErxDates = std::map<std::uint32_t, util::Day>;

/// Resolver from ASN to the RIR that holds its IANA block (nullopt when the
/// number was never delegated to a registry).
using BlockOwnerFn =
    std::function<std::optional<asn::Rir>(asn::Asn)>;

struct RestoreConfig {
  /// Days an ASN may be absent from the preferred (extended) channel while
  /// still trusted from the regular channel (steps ii/iii).
  int recovery_grace_days = 7;
  /// The placeholder registration date RIPE NCC records travel back to.
  util::Day placeholder_date = util::make_day(1993, 9, 1);
  /// Spans starting this close to the archive begin are treated as
  /// inherited pre-archive state and exempt from the step-vi
  /// no-predecessor rule.
  int grandfather_margin_days = 3;
  /// Bounded reorder window for out-of-order day observations. 0 (the
  /// default, and the historical behaviour for well-formed streams) applies
  /// each day immediately and quarantines anything at-or-before the last
  /// applied day. W > 0 holds a day back until a day more than W later has
  /// been seen, so swapped deliveries up to W days apart are re-sorted
  /// instead of quarantined. Duplicates are always quarantined.
  int reorder_window_days = 0;

  // Ablation switches — disable individual restoration steps to measure
  // their contribution (bench_ablation_restore).
  bool recover_from_regular = true;  ///< steps ii/iii
  bool resolve_duplicates = true;    ///< step iv
  bool repair_dates = true;          ///< step v
};

/// Restore one registry from its day stream. `erx` and `bgp_hint` are
/// optional reference data (step v and iv respectively); `sink` receives
/// structured diagnostics for stream-discipline violations.
RestoredRegistry restore_registry(dele::ArchiveStream& stream,
                                  const RestoreConfig& config,
                                  const ErxDates* erx = nullptr,
                                  const bgp::ActivityTable* bgp_hint = nullptr,
                                  robust::ErrorSink* sink = nullptr);

/// Zero-copy variant: drive the restorer from a decoded interchange reader
/// via its view API, so no per-day DayObservation is ever materialized on
/// the in-order fast path. A decode failure is a hard error (the archive is
/// produced in-process by the render stage); use the ArchiveStream overload
/// plus dele::FaultStream when the stream is untrusted.
RestoredRegistry restore_registry(dele::DeltaArchiveReader& reader,
                                  const RestoreConfig& config,
                                  const ErxDates* erx = nullptr,
                                  const bgp::ActivityTable* bgp_hint = nullptr,
                                  robust::ErrorSink* sink = nullptr);

/// Incremental restorer: feed day observations as they are published (the
/// paper commits to updating its datasets daily, 9 — this is the API a
/// near-realtime deployment drives). `restore_registry` is a thin loop over
/// this class.
///
/// Robustness contract: out-of-order and duplicate days are re-sorted
/// (within `RestoreConfig::reorder_window_days`) or quarantined with a
/// diagnostic, never undefined behaviour; `consume()` on a finalized or
/// moved-from restorer is a counted no-op; the full streaming state can be
/// checkpointed at any day boundary and resumed bit-identically.
class StreamingRestorer {
 public:
  StreamingRestorer(asn::Rir rir, const RestoreConfig& config,
                    const ErxDates* erx = nullptr,
                    const bgp::ActivityTable* bgp_hint = nullptr,
                    robust::ErrorSink* sink = nullptr);
  ~StreamingRestorer();

  StreamingRestorer(StreamingRestorer&&) noexcept;
  StreamingRestorer& operator=(StreamingRestorer&&) noexcept;

  /// Apply one day. Days are expected in strictly increasing order;
  /// violations are buffered (inside the reorder window) or quarantined.
  void consume(const dele::DayObservation& observation);

  /// Zero-copy overload: applies straight from reader-owned view storage.
  /// The view (and everything its spans reference) only needs to stay valid
  /// for the duration of the call.
  void consume(const dele::DayObservationView& observation);

  /// Close all open spans, run the date-repair post-pass, and return the
  /// restored registry. The restorer is spent afterwards; further calls
  /// are safe no-ops that raise misuse diagnostics.
  RestoredRegistry finalize() &&;

  /// Progress so far (counters update as days are consumed). Safe on a
  /// spent/moved-from restorer (returns the frozen or empty report).
  const RestorationReport& report() const noexcept;

  /// Serialize the complete streaming state (CRC-framed, versioned). Empty
  /// string + misuse diagnostic on a spent restorer.
  std::string checkpoint() const;

  /// Rebuild a restorer from a checkpoint so ingestion resumes at the next
  /// day boundary. `config`/`erx`/`bgp_hint` are the same reference data
  /// the original run used — key config fields are validated against the
  /// blob. Returns nullopt (with a kCheckpoint diagnostic in `sink`) on a
  /// corrupt, truncated, or incompatible blob.
  static std::optional<StreamingRestorer> from_checkpoint(
      std::string_view blob, const RestoreConfig& config,
      const ErxDates* erx = nullptr,
      const bgp::ActivityTable* bgp_hint = nullptr,
      robust::ErrorSink* sink = nullptr);

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
  robust::ErrorSink* sink_ = nullptr;   ///< kept for post-finalize misuse
  /// Frozen counters after finalize; mutable so const entry points can
  /// still count misuse on a spent restorer.
  mutable RestorationReport spent_report_;
};

/// Publish one registry's sanitization-step accounting (§3.1 steps i–v plus
/// the ingestion guard) into the metrics registry, labelled
/// `{registry="<file token>"}`. Counters only; the pipeline calls it once
/// per restored registry.
void record_metrics(const RestorationReport& report, asn::Rir rir,
                    obs::Registry& metrics);

/// As above plus the per-registry span/ASN census from the restored output.
void record_metrics(const RestoredRegistry& registry, obs::Registry& metrics);

/// Publish the step-vi cross-registry reconciliation counters.
void record_metrics(const CrossRirReport& report, obs::Registry& metrics);

/// Step vi across already-restored registries. `owner` supplies IANA block
/// ownership; pass nullptr to skip the foreign-block rule.
CrossRirReport reconcile_registries(
    std::array<RestoredRegistry, asn::kRirCount>& registries,
    const BlockOwnerFn& owner, const RestoreConfig& config,
    util::Day archive_begin);

/// Convenience: run all five registries plus reconciliation.
RestoredArchive restore_archive(
    std::array<std::unique_ptr<dele::ArchiveStream>, asn::kRirCount> streams,
    const RestoreConfig& config, const ErxDates* erx,
    const BlockOwnerFn& owner, util::Day archive_begin,
    const bgp::ActivityTable* bgp_hint = nullptr);

}  // namespace pl::restore
