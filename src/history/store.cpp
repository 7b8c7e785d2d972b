#include "history/store.hpp"

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "obs/latency.hpp"

namespace pl::history {

HistoryStore::HistoryStore(HistoryConfig config)
    : config_(config),
      metrics_(std::make_unique<obs::Registry>()),
      trace_(std::make_unique<obs::Trace>()),
      root_(trace_->root("history")) {}

HistoryStore& HistoryStore::operator=(HistoryStore&& other) {
  if (this == &other) return *this;
  // Finish our root span while OUR trace is still alive; only then may the
  // trace be replaced (see the header note on why = default deadlocks).
  root_ = obs::Span();
  config_ = other.config_;
  base_day_ = other.base_day_;
  last_day_ = other.last_day_;
  keyframes_ = std::move(other.keyframes_);
  deltas_ = std::move(other.deltas_);
  cached_ = std::move(other.cached_);
  cached_day_ = other.cached_day_;
  cached_valid_ = other.cached_valid_;
  other.cached_valid_ = false;
  keyframe_bytes_ = other.keyframe_bytes_;
  delta_bytes_ = other.delta_bytes_;
  reconstructs_ = other.reconstructs_;
  delta_folds_ = other.delta_folds_;
  metrics_ = std::move(other.metrics_);
  trace_ = std::move(other.trace_);
  root_ = std::move(other.root_);
  return *this;
}

// -- world slicing ----------------------------------------------------------

serve::DayDelta HistoryStore::slice_day(const restore::RestoredArchive& archive,
                                        const bgp::ActivityTable& activity,
                                        util::Day day) {
  serve::DayDelta delta;
  delta.day = day;
  for (std::size_t r = 0; r < asn::kRirCount; ++r) {
    const restore::RestoredRegistry& registry = archive.registries[r];
    for (const auto& [asn_value, spans] : registry.spans) {
      // Spans are sorted and disjoint: binary search the one covering day.
      const auto it = std::upper_bound(
          spans.begin(), spans.end(), day,
          [](util::Day d, const restore::StateSpan& span) {
            return d < span.days.first;
          });
      if (it == spans.begin()) continue;
      const restore::StateSpan& span = *std::prev(it);
      if (!span.days.contains(day)) continue;
      delta.delegation.push_back(serve::DelegationFact{
          asn::Asn{asn_value}, asn::kAllRirs[r], span.state});
    }
  }
  for (const auto& [asn_key, days] : activity.entries())
    if (days.contains(day)) delta.active.push_back(asn_key);
  return delta;
}

restore::RestoredArchive HistoryStore::truncate_archive(
    const restore::RestoredArchive& archive, util::Day last_day) {
  restore::RestoredArchive out;
  out.cross = archive.cross;
  for (std::size_t r = 0; r < asn::kRirCount; ++r) {
    out.registries[r].rir = archive.registries[r].rir;
    out.registries[r].report = archive.registries[r].report;
    for (const auto& [asn_value, spans] : archive.registries[r].spans) {
      std::vector<restore::StateSpan> clipped =
          restore::clip_spans(spans, last_day);
      if (!clipped.empty())
        out.registries[r].spans.emplace(asn_value, std::move(clipped));
    }
  }
  return out;
}

bgp::ActivityTable HistoryStore::truncate_activity(
    const bgp::ActivityTable& activity, util::Day last_day) {
  return activity.clipped(last_day);
}

serve::Snapshot HistoryStore::rebuild_at(
    const restore::RestoredArchive& archive, const bgp::ActivityTable& activity,
    util::Day day, const serve::SnapshotConfig& config) {
  return serve::Snapshot::build(truncate_archive(archive, day),
                                truncate_activity(activity, day), day, config);
}

// -- construction -----------------------------------------------------------

pl::StatusOr<HistoryStore> HistoryStore::build(
    const restore::RestoredArchive& archive, const bgp::ActivityTable& activity,
    util::Day first_day, util::Day last_day, HistoryConfig config,
    const serve::SnapshotConfig& snapshot_config) {
  if (first_day > last_day)
    return pl::invalid_argument_error("history build range is empty");

  HistoryStore store(config);
  obs::Span span = store.root_.child("history.build");
  span.note("first_day", first_day);
  span.note("last_day", last_day);

  pl::Status seeded =
      store.reset(rebuild_at(archive, activity, first_day, snapshot_config));
  if (!seeded.ok()) return seeded;
  for (util::Day day = first_day + 1; day <= last_day; ++day) {
    // Advance the store's own cache slot in place — it is both the
    // construction cursor and the first reconstruction to be served.
    const serve::DayDelta delta = slice_day(archive, activity, day);
    pl::Status advanced = store.cached_.advance_day(delta);
    if (!advanced.ok()) return advanced;
    store.cached_day_ = day;
    pl::Status appended = store.append_day(delta, store.cached_);
    if (!appended.ok()) return appended;
  }
  span.note("keyframes", static_cast<std::int64_t>(store.keyframes_.size()));
  span.note("deltas", static_cast<std::int64_t>(store.deltas_.size()));
  return store;
}

// -- serve::HistoryBackend --------------------------------------------------

pl::Status HistoryStore::reset(const serve::Snapshot& base) {
  if (config_.keyframe_interval < 1)
    return pl::invalid_argument_error("keyframe interval must be >= 1");
  if (!base.can_advance())
    return pl::failed_precondition_error(
        "history base snapshot lost its working set; reconstruction folds "
        "deltas with advance_day and needs it");
  keyframes_.clear();
  deltas_.clear();
  keyframe_bytes_ = 0;
  delta_bytes_ = 0;
  base_day_ = base.archive_end();
  last_day_ = base_day_;
  std::string frame = serve::encode_snapshot(base);
  keyframe_bytes_ += static_cast<std::int64_t>(frame.size());
  keyframes_.emplace(base_day_, std::move(frame));
  cached_ = base;
  cached_day_ = base_day_;
  cached_valid_ = true;
  metrics_->counter("pl_history_resets").add(1);
  record_metrics(*this, *metrics_);
  return {};
}

pl::Status HistoryStore::append_day(const serve::DayDelta& delta,
                                    const serve::Snapshot& after) {
  if (empty())
    return pl::failed_precondition_error(
        "history store is empty; reset() or build() first");
  if (delta.day != last_day_ + 1)
    return pl::invalid_argument_error(
        "history append expects day " + std::to_string(last_day_ + 1) +
        ", got " + std::to_string(delta.day));
  if (after.archive_end() != delta.day)
    return pl::invalid_argument_error(
        "history append: snapshot is for day " +
        std::to_string(after.archive_end()) + ", delta is for day " +
        std::to_string(delta.day));

  std::string frame = serve::encode_day_delta(delta);
  delta_bytes_ += static_cast<std::int64_t>(frame.size());
  deltas_.push_back(std::move(frame));
  last_day_ = delta.day;
  metrics_->counter("pl_history_deltas").add(1);

  // A keyframe lands on every interval-th day past the base — but only if
  // the snapshot can still advance; a frozen snapshot that cannot fold the
  // NEXT delta would poison every reconstruction past it.
  if ((delta.day - base_day_) % config_.keyframe_interval == 0 &&
      after.can_advance()) {
    std::string keyframe = serve::encode_snapshot(after);
    keyframe_bytes_ += static_cast<std::int64_t>(keyframe.size());
    keyframes_.emplace(delta.day, std::move(keyframe));
    metrics_->counter("pl_history_keyframes").add(1);
  }
  record_metrics(*this, *metrics_);
  return {};
}

// -- reconstruction ---------------------------------------------------------

pl::StatusOr<const serve::Snapshot*> HistoryStore::at(util::Day day) {
  if (empty())
    return pl::failed_precondition_error(
        "history store is empty; reset() or build() first");
  if (day < base_day_ || day > last_day_)
    return pl::not_found_error(
        "day " + std::to_string(day) + " outside recorded history [" +
        std::to_string(base_day_) + ", " + std::to_string(last_day_) + "]");
  obs::Span span = root_.child("history.reconstruct");
  span.note("day", day);
  const obs::ScopedLatency timer(
      metrics_->latency("pl_history_reconstruct_ns"));
  metrics_->counter("pl_history_reconstructs").add(1);
  ++reconstructs_;
  pl::Status status = materialize(day);
  if (!status.ok()) return status;
  return static_cast<const serve::Snapshot*>(&cached_);
}

pl::Status HistoryStore::materialize(util::Day day) {
  // Greatest keyframe at or below the target. The base keyframe always
  // exists, so the decrement is safe.
  auto it = keyframes_.upper_bound(day);
  --it;
  const util::Day keyframe_day = it->first;

  // Reuse the cache slot when it already sits in [keyframe, day]: rolling
  // forward from it folds fewer deltas than restarting at the keyframe,
  // and decoding a keyframe into the slot is itself the expensive step.
  const bool roll_forward =
      cached_valid_ && cached_day_ >= keyframe_day && cached_day_ <= day;
  if (!roll_forward) {
    pl::StatusOr<serve::Snapshot> decoded = serve::decode_snapshot(it->second);
    if (!decoded.ok()) {
      cached_valid_ = false;
      return decoded.status();
    }
    cached_ = std::move(*decoded);
    cached_day_ = keyframe_day;
    cached_valid_ = true;
    metrics_->counter("pl_history_keyframe_decodes").add(1);
  }
  while (cached_day_ < day) {
    pl::StatusOr<serve::DayDelta> delta =
        serve::decode_day_delta(deltas_[delta_index(cached_day_ + 1)]);
    if (!delta.ok()) {
      cached_valid_ = false;
      return delta.status();
    }
    pl::Status folded = cached_.advance_day(*delta);
    if (!folded.ok()) {
      cached_valid_ = false;
      return folded;
    }
    ++cached_day_;
    ++delta_folds_;
    metrics_->counter("pl_history_delta_folds").add(1);
  }
  return {};
}

// -- introspection ----------------------------------------------------------

HistoryStats HistoryStore::stats() const noexcept {
  HistoryStats s;
  s.base_day = base_day_;
  s.last_day = last_day_;
  s.keyframes = static_cast<std::int64_t>(keyframes_.size());
  s.deltas = static_cast<std::int64_t>(deltas_.size());
  s.keyframe_bytes = keyframe_bytes_;
  s.delta_bytes = delta_bytes_;
  s.reconstructs = reconstructs_;
  s.delta_folds = delta_folds_;
  return s;
}

obs::Report HistoryStore::report() const {
  return obs::Report{trace_->tree(), metrics_->snapshot()};
}

void record_metrics(const HistoryStore& store, obs::Registry& metrics) {
  const HistoryStats stats = store.stats();
  metrics.gauge("pl_history_base_day").set(stats.base_day);
  metrics.gauge("pl_history_last_day").set(stats.last_day);
  metrics.gauge("pl_history_keyframes").set(stats.keyframes);
  metrics.gauge("pl_history_deltas").set(stats.deltas);
  metrics.gauge("pl_history_keyframe_bytes").set(stats.keyframe_bytes);
  metrics.gauge("pl_history_delta_bytes").set(stats.delta_bytes);
}

}  // namespace pl::history
