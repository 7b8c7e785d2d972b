// Delta-compressed daily snapshot history with in-place reconstruction.
//
// The paper's object of study is 17 years of PARALLEL history, but a
// serving Snapshot holds exactly one day and advance_day() discards the
// past. HistoryStore keeps every day queryable without keeping every day
// materialized:
//
//   * a KEYFRAME — a full `serve::encode_snapshot` frame — every N days
//     (`HistoryConfig::keyframe_interval`), starting at the base day;
//   * a compact per-day forward DELTA (history/codec.hpp: varint/zigzag
//     row diffs over an interned country table) for every day after the
//     base.
//
// `at(D)` materializes "the snapshot as of day D" into ONE internal cache
// slot: it decodes the nearest keyframe at or below D — or, cheaper, reuses
// the slot when it already holds a day in [keyframe, D] — and folds the
// intervening deltas forward IN PLACE via `Snapshot::advance_day`, so
// reconstruction never holds two snapshots at once. Because the advance
// path is test-locked bit-identical to a full rebuild (DESIGN.md §11),
// `*at(D)` equals `rebuild_at(world, D)` exactly — the invariant
// history_reconstruct_test fuzzes across seeds × intervals × chaos days.
//
// The store implements `serve::HistoryBackend`, so a QueryService routes
// `QueryOptions::as_of` through it and a DurableService appends every
// folded day (WAL replay included). The whole store persists into one
// file (`save`/`open`): a manifest frame plus every keyframe and delta
// frame, written atomically, rejected wholesale as kDataLoss on any
// corruption. DESIGN.md §16 documents the formats and invariants.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bgp/activity.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "restore/types.hpp"
#include "serve/durable.hpp"
#include "serve/history_backend.hpp"
#include "serve/snapshot.hpp"
#include "util/status.hpp"

namespace pl::history {

/// On-disk history file schema version (manifest frame payload).
inline constexpr std::uint32_t kHistoryFormatVersion = 1;

struct HistoryConfig {
  /// Days between keyframes; 1 = every day is a keyframe (fastest random
  /// access, largest store), larger = smaller store, longer delta chains.
  /// Must be >= 1. EXPERIMENTS.md discusses the trade-off.
  int keyframe_interval = 16;

  friend bool operator==(const HistoryConfig&, const HistoryConfig&) = default;
};

/// Size and activity accounting, also published as `pl_history_*` gauges.
struct HistoryStats {
  util::Day base_day = 0;
  util::Day last_day = 0;
  std::int64_t keyframes = 0;
  std::int64_t deltas = 0;
  std::int64_t keyframe_bytes = 0;
  std::int64_t delta_bytes = 0;
  std::int64_t reconstructs = 0;  ///< at() calls served
  std::int64_t delta_folds = 0;   ///< deltas folded across all at() calls

  double mean_keyframe_bytes() const noexcept {
    return keyframes > 0 ? static_cast<double>(keyframe_bytes) /
                               static_cast<double>(keyframes)
                         : 0.0;
  }
  double mean_delta_bytes() const noexcept {
    return deltas > 0 ? static_cast<double>(delta_bytes) /
                            static_cast<double>(deltas)
                      : 0.0;
  }

  friend bool operator==(const HistoryStats&, const HistoryStats&) = default;
};

class HistoryStore final : public serve::HistoryBackend {
 public:
  explicit HistoryStore(HistoryConfig config = {});

  HistoryStore(HistoryStore&&) = default;
  /// Not defaulted: memberwise assignment would destroy the old trace_
  /// (declared first) while the old root_ span still points into it, then
  /// deadlock finishing that span against the dead trace's mutex. The
  /// custom order detaches root_ before the old trace goes away.
  HistoryStore& operator=(HistoryStore&& other);

  // -- world slicing ---------------------------------------------------------
  // The one home for cutting a day — or a day-D world — out of full
  // pipeline output; tests, tools and benches go through these instead of
  // hand-rolling truncation.

  /// One day of input: every registry's record state in force on `day`
  /// plus the ASNs active on `day`. Facts are emitted registry-major
  /// (kAllRirs order), ascending ASN within; active ASNs ascending —
  /// deterministic input for serve::QueryService::advance_day().
  static serve::DayDelta slice_day(const restore::RestoredArchive& archive,
                                   const bgp::ActivityTable& activity,
                                   util::Day day);

  /// The archive restricted to days <= `last_day` (spans clipped, emptied
  /// ASNs dropped; audit reports are left as-is — they describe the
  /// original run).
  static restore::RestoredArchive truncate_archive(
      const restore::RestoredArchive& archive, util::Day last_day);

  /// The activity table restricted to days <= `last_day`.
  static bgp::ActivityTable truncate_activity(
      const bgp::ActivityTable& activity, util::Day last_day);

  /// Build the snapshot a fresh pipeline run over the world truncated at
  /// `day` would produce — the reconstruction oracle: `*at(day)` must
  /// compare equal to this, bit for bit.
  static serve::Snapshot rebuild_at(const restore::RestoredArchive& archive,
                                    const bgp::ActivityTable& activity,
                                    util::Day day,
                                    const serve::SnapshotConfig& config = {});

  // -- construction --------------------------------------------------------

  /// Build a store covering [first_day, last_day] from full pipeline
  /// output: rebuild the base at `first_day`, then slice + fold + append
  /// each following day with one in-place cursor (no second snapshot).
  static pl::StatusOr<HistoryStore> build(
      const restore::RestoredArchive& archive,
      const bgp::ActivityTable& activity, util::Day first_day,
      util::Day last_day, HistoryConfig config = {},
      serve::SnapshotConfig snapshot_config = {});

  // -- serve::HistoryBackend -----------------------------------------------

  /// Install `base` as the first keyframe; recorded history restarts at
  /// `base.archive_end()`. The base must keep its working set
  /// (kFailedPrecondition otherwise): reconstruction folds deltas with
  /// advance_day, which needs it.
  pl::Status reset(const serve::Snapshot& base) override;

  /// Record one day: encode the compact delta, and every
  /// `keyframe_interval` days also freeze `after` as a keyframe.
  /// `delta.day` must be `latest_day() + 1` and `after.archive_end()`
  /// must equal `delta.day`.
  pl::Status append_day(const serve::DayDelta& delta,
                        const serve::Snapshot& after) override;

  /// Materialize day D (see file comment). The pointer is valid until the
  /// next at()/append_day()/reset() or a move of this store.
  pl::StatusOr<const serve::Snapshot*> at(util::Day day) override;

  bool empty() const noexcept override { return keyframes_.empty(); }
  util::Day earliest_day() const noexcept override { return base_day_; }
  util::Day latest_day() const noexcept override { return last_day_; }

  // -- persistence ---------------------------------------------------------

  /// Write the whole store to `path` atomically (manifest + keyframe +
  /// delta frames; write-to-temp + rename). kUnavailable on filesystem
  /// errors, kFailedPrecondition when empty.
  pl::Status save(const std::string& path) const;

  /// Load a store saved by `save`. kNotFound when absent, kUnavailable
  /// when unreadable, kDataLoss when any frame or the manifest fails
  /// validation — a damaged file is rejected wholesale, never partially.
  static pl::StatusOr<HistoryStore> open(const std::string& path);

  // -- introspection -------------------------------------------------------

  const HistoryConfig& config() const noexcept { return config_; }
  HistoryStats stats() const noexcept;
  /// Trace tree + metrics snapshot (`history.*` spans, `pl_history_*`
  /// metrics incl. the reconstruct-latency histogram), pl-obs/2 exportable.
  obs::Report report() const;

 private:
  /// Roll the cache slot to exactly `day` (nearest keyframe + deltas).
  pl::Status materialize(util::Day day);

  std::size_t delta_index(util::Day day) const noexcept {
    return static_cast<std::size_t>(day - base_day_ - 1);
  }

  HistoryConfig config_;
  util::Day base_day_ = 0;
  util::Day last_day_ = 0;
  std::map<util::Day, std::string> keyframes_;  ///< encoded snapshot frames
  std::vector<std::string> deltas_;  ///< [i] covers day base_day_ + 1 + i

  // The single reconstruction slot: holds the snapshot for cached_day_,
  // advanced forward in place. Invalidated by decode/fold failures.
  serve::Snapshot cached_;
  util::Day cached_day_ = 0;
  bool cached_valid_ = false;

  std::int64_t keyframe_bytes_ = 0;
  std::int64_t delta_bytes_ = 0;
  std::int64_t reconstructs_ = 0;
  std::int64_t delta_folds_ = 0;

  // Behind unique_ptr so the store stays movable (Registry/Trace own
  // mutexes); the Span just points into the heap-pinned trace.
  std::unique_ptr<obs::Registry> metrics_;
  std::unique_ptr<obs::Trace> trace_;
  obs::Span root_;
};

/// Publish the store's census into a metrics registry (gauges
/// `pl_history_base_day` / `_last_day` / `_keyframes` / `_deltas` /
/// `_keyframe_bytes` / `_delta_bytes`).
void record_metrics(const HistoryStore& store, obs::Registry& metrics);

/// Cheap structural inspection of a history file (pl-statusz --history):
/// manifest fields plus per-kind frame byte totals. Validates frame
/// boundaries, manifest consistency, and every frame's CRC, but decodes no
/// snapshot or delta payload.
struct HistoryFileInfo {
  std::uint32_t version = 0;
  util::Day base_day = 0;
  util::Day last_day = 0;
  int keyframe_interval = 0;
  std::int64_t keyframes = 0;
  std::int64_t deltas = 0;
  std::int64_t keyframe_bytes = 0;
  std::int64_t delta_bytes = 0;

  friend bool operator==(const HistoryFileInfo&,
                         const HistoryFileInfo&) = default;
};

pl::StatusOr<HistoryFileInfo> inspect(const std::string& path);

}  // namespace pl::history
