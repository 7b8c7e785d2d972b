// The serving layer's view of a snapshot history store.
//
// `history::HistoryStore` (the delta-compressed daily store) lives ABOVE
// serve in the layer DAG — it persists Snapshots and folds DayDeltas, both
// serve types. DurableService's append-on-fold wiring and QueryService's
// `as_of` gate therefore talk to this abstract backend instead: serve stays
// ignorant of keyframes and delta codecs, and the concrete store is
// injected by the caller (`attach_history`, `DurableConfig`).
//
// The backend does not answer past-day questions: a QueryService answers
// them by cutting its live working set (`Snapshot::at`), and only reads the
// recorded day range from here.
#pragma once

#include "serve/snapshot.hpp"
#include "util/status.hpp"

namespace pl::serve {

/// The recorded day range plus the append hook the durable fold calls.
/// Implemented by `history::HistoryStore`.
class HistoryBackend {
 public:
  virtual ~HistoryBackend() = default;

  /// Record one folded day: `delta` is the day's input, `after` the
  /// snapshot state after folding it (`after.archive_end() == delta.day`).
  virtual pl::Status append_day(const DayDelta& delta,
                                const Snapshot& after) = 0;

  /// Drop any recorded history and restart it from `base` (first keyframe
  /// at `base.archive_end()`). DurableService calls this on open so replay
  /// can append the WAL days on top.
  virtual pl::Status reset(const Snapshot& base) = 0;

  /// True when no keyframe has been installed yet.
  virtual bool empty() const noexcept = 0;

  /// Recorded day range, inclusive on both ends: the days `as_of` may ask.
  virtual util::Day earliest_day() const noexcept = 0;
  virtual util::Day latest_day() const noexcept = 0;
};

}  // namespace pl::serve
