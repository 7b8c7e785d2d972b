#include "history/store.hpp"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/latency.hpp"
#include "robust/checkpoint.hpp"

namespace pl::history {
namespace {

pl::Status write_file_atomic(const std::string& path, std::string_view bytes) {
  const std::string tmp = path + ".tmp";
  std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
  if (!out.is_open())
    return pl::unavailable_error("cannot open " + tmp + " for writing");
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  out.flush();
  if (!out.good()) return pl::unavailable_error("write failed: " + tmp);
  out.close();
  if (std::rename(tmp.c_str(), path.c_str()) != 0)
    return pl::unavailable_error("rename failed: " + tmp + " -> " + path);
  return {};
}

/// Manifest fields shared by open() and inspect().
struct Manifest {
  util::Day base_day = 0;
  util::Day last_day = 0;
  int keyframe_interval = 0;
  std::vector<util::Day> keyframe_days;
  std::uint64_t delta_count = 0;
};

pl::StatusOr<Manifest> decode_manifest(std::string_view frame) {
  robust::CheckpointReader r(frame);
  if (!r.ok())
    return pl::data_loss_error("history manifest rejected: " +
                               std::string(r.error()));
  const std::uint32_t version = r.u32();
  if (r.ok() && version != kHistoryFormatVersion)
    return pl::data_loss_error("history file format version skew");
  Manifest m;
  m.base_day = r.i32();
  m.last_day = r.i32();
  m.keyframe_interval = r.i32();
  const std::uint64_t keyframes = r.container_size(4);
  m.keyframe_days.reserve(keyframes);
  for (std::uint64_t i = 0; r.ok() && i < keyframes; ++i)
    m.keyframe_days.push_back(r.i32());
  m.delta_count = r.varint();
  if (!r.ok() || !r.at_end())
    return pl::data_loss_error("history manifest failed to decode: " +
                               std::string(r.error()));
  if (m.keyframe_interval < 1)
    return pl::data_loss_error("history manifest keyframe interval < 1");
  if (m.keyframe_days.empty() || m.keyframe_days.front() != m.base_day ||
      m.last_day < m.base_day)
    return pl::data_loss_error("history manifest day range inconsistent");
  for (std::size_t i = 0; i < m.keyframe_days.size(); ++i) {
    const util::Day day = m.keyframe_days[i];
    if (day < m.base_day || day > m.last_day ||
        (i > 0 && day <= m.keyframe_days[i - 1]))
      return pl::data_loss_error("history manifest keyframe days unsorted");
  }
  if (m.delta_count !=
      static_cast<std::uint64_t>(m.last_day - m.base_day))
    return pl::data_loss_error("history manifest delta count mismatch");
  return m;
}

/// A history file read and validated whole: manifest consistency, exact
/// frame count, and every frame's CRC. Unlike WAL replay there is no
/// torn-tail tolerance — a history file is written atomically, so anything
/// that is not exactly the promised whole frames is corruption, and a
/// damaged day fails the whole load instead of surfacing later as a
/// mid-query kDataLoss.
struct HistoryFile {
  Manifest manifest;
  std::vector<std::string> keyframes;  ///< in manifest.keyframe_days order
  std::vector<std::string> deltas;     ///< base_day + 1 .. last_day
};

pl::StatusOr<HistoryFile> load_history_file(const std::string& path) {
  pl::StatusOr<std::string> bytes = robust::read_file(path);
  if (!bytes.ok()) return bytes.status();
  std::vector<std::string_view> frames;
  for (std::string_view rest = *bytes; !rest.empty();) {
    const std::optional<std::size_t> length = robust::frame_length(rest);
    if (!length.has_value())
      return pl::data_loss_error("history file torn mid-frame");
    frames.push_back(rest.substr(0, *length));
    rest.remove_prefix(*length);
  }
  if (frames.empty())
    return pl::data_loss_error("history file has no manifest frame");
  pl::StatusOr<Manifest> manifest = decode_manifest(frames.front());
  if (!manifest.ok()) return manifest.status();
  const std::size_t expected =
      1 + manifest->keyframe_days.size() + manifest->delta_count;
  if (frames.size() != expected)
    return pl::data_loss_error(
        "history file frame count mismatch: manifest promises " +
        std::to_string(expected - 1) + " frames, file holds " +
        std::to_string(frames.size() - 1));
  for (std::size_t i = 1; i < frames.size(); ++i) {
    const robust::CheckpointReader probe(frames[i]);
    if (!probe.ok())
      return pl::data_loss_error("history file frame " + std::to_string(i) +
                                 " rejected: " + std::string(probe.error()));
  }

  HistoryFile file;
  file.manifest = std::move(*manifest);
  const auto first_delta =
      frames.begin() + 1 +
      static_cast<std::ptrdiff_t>(file.manifest.keyframe_days.size());
  file.keyframes.assign(frames.begin() + 1, first_delta);
  file.deltas.assign(first_delta, frames.end());
  return file;
}

std::string encode_manifest(util::Day base_day, util::Day last_day,
                            int keyframe_interval,
                            const std::map<util::Day, std::string>& keyframes,
                            std::size_t delta_count) {
  robust::CheckpointWriter w;
  w.u32(kHistoryFormatVersion);
  w.i32(base_day);
  w.i32(last_day);
  w.i32(keyframe_interval);
  w.varint(keyframes.size());
  for (const auto& [day, frame] : keyframes) w.i32(day);
  w.varint(delta_count);
  return std::move(w).finish();
}

}  // namespace

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
      std::vector<restore::StateSpan> clipped;
      for (const restore::StateSpan& span : spans) {
        if (span.days.first > last_day) break;
        restore::StateSpan copy = span;
        copy.days.last = std::min(copy.days.last, last_day);
        clipped.push_back(copy);
      }
      if (!clipped.empty())
        out.registries[r].spans.emplace(asn_value, std::move(clipped));
    }
  }
  return out;
}

bgp::ActivityTable HistoryStore::truncate_activity(
    const bgp::ActivityTable& activity, util::Day last_day) {
  bgp::ActivityTable out;
  for (const auto& [asn_key, days] : activity.entries())
    for (const util::DayInterval& run : days.runs()) {
      if (run.first > last_day) break;
      out.mark_active(asn_key,
                      util::DayInterval{run.first,
                                        std::min(run.last, last_day)});
    }
  return out;
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
    serve::SnapshotConfig snapshot_config) {
  if (first_day > last_day)
    return pl::invalid_argument_error("history build range is empty");
  // The cursor folds every day forward, so the working set is not optional.
  snapshot_config.keep_working_set = true;

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

// -- persistence ------------------------------------------------------------

pl::Status HistoryStore::save(const std::string& path) const {
  if (empty())
    return pl::failed_precondition_error("cannot save an empty history store");
  std::string blob = encode_manifest(base_day_, last_day_,
                                     config_.keyframe_interval, keyframes_,
                                     deltas_.size());
  for (const auto& [day, frame] : keyframes_) blob += frame;
  for (const std::string& frame : deltas_) blob += frame;
  return write_file_atomic(path, blob);
}

pl::StatusOr<HistoryStore> HistoryStore::open(const std::string& path) {
  pl::StatusOr<HistoryFile> file = load_history_file(path);
  if (!file.ok()) return file.status();
  const Manifest& manifest = file->manifest;

  HistoryStore store(HistoryConfig{manifest.keyframe_interval});
  store.base_day_ = manifest.base_day;
  store.last_day_ = manifest.last_day;
  for (std::size_t i = 0; i < manifest.keyframe_days.size(); ++i) {
    std::string& frame = file->keyframes[i];
    store.keyframe_bytes_ += static_cast<std::int64_t>(frame.size());
    store.keyframes_.emplace(manifest.keyframe_days[i], std::move(frame));
  }
  for (const std::string& frame : file->deltas)
    store.delta_bytes_ += static_cast<std::int64_t>(frame.size());
  store.deltas_ = std::move(file->deltas);
  store.metrics_->counter("pl_history_opens").add(1);
  record_metrics(store, *store.metrics_);
  return store;
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

pl::StatusOr<HistoryFileInfo> inspect(const std::string& path) {
  pl::StatusOr<HistoryFile> file = load_history_file(path);
  if (!file.ok()) return file.status();
  const Manifest& manifest = file->manifest;
  HistoryFileInfo info;
  info.version = kHistoryFormatVersion;
  info.base_day = manifest.base_day;
  info.last_day = manifest.last_day;
  info.keyframe_interval = manifest.keyframe_interval;
  info.keyframes = static_cast<std::int64_t>(file->keyframes.size());
  info.deltas = static_cast<std::int64_t>(file->deltas.size());
  for (const std::string& frame : file->keyframes)
    info.keyframe_bytes += static_cast<std::int64_t>(frame.size());
  for (const std::string& frame : file->deltas)
    info.delta_bytes += static_cast<std::int64_t>(frame.size());
  return info;
}

}  // namespace pl::history
