// Crash-safe serving: durable snapshots + a day-delta write-ahead log.
//
// A long-lived serving process (paper 9's daily-update deployment) must
// survive a crash at any point inside `advance_day()` without losing folded
// days or silently serving corrupted state. This module layers durability
// over `serve::QueryService`:
//
//   * `save_snapshot` / `open_snapshot` — the full Snapshot (rows, config,
//     working set) serialized into one CRC frame (`robust/checkpoint.hpp`),
//     written atomically via write-to-temp + rename. Truncated, bit-flipped
//     or version-skewed files are rejected with `kDataLoss`, never loaded.
//   * `append_wal` / `replay_wal` — a write-ahead log of `DayDelta` records,
//     one `encode_day_delta` frame per day, appended BEFORE the in-memory
//     fold. Replay on open reconstructs the exact pre-crash state
//     (bit-identical snapshot fingerprint, locked by the crash-injection
//     test); a torn trailing record — the signature of a crash mid-append —
//     is dropped, because a day whose append never completed was never
//     acknowledged.
//   * `DurableService` — owns the QueryService plus the on-disk directory:
//     WAL-append-then-fold on advance, periodic checkpoint (snapshot save +
//     WAL truncate), replay on open, quarantine of days that fail to fold,
//     and a structured `HealthReport` so operators see degradation instead
//     of guessing. Snapshot loads retry transient `kUnavailable` errors
//     up to `RetryPolicy::max_attempts` times.
//
// Crash discipline: every mutation of durable state passes named
// `robust::CrashPoints` sites (`kAdvanceCrashSites`); the crash test kills
// the operation at each one and proves recovery. DESIGN.md §12 documents
// the file formats, the WAL invariants, and the degradation policy.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "obs/export.hpp"
#include "obs/flight.hpp"
#include "robust/crashpoint.hpp"
#include "serve/history_backend.hpp"
#include "serve/query.hpp"
#include "serve/snapshot.hpp"
#include "util/status.hpp"

namespace pl::serve {

// -- snapshot persistence --------------------------------------------------

/// Payload schema version inside the checkpoint frame. Bumped whenever the
/// serialized Snapshot layout changes; a mismatch is rejected as kDataLoss
/// ("snapshot format version skew"), never interpreted. Version 1 also
/// carried a keep-working-set bit and the open-ended ASN set.
inline constexpr std::uint32_t kSnapshotFormatVersion = 2;

/// Payload schema version inside each day-delta frame (same skew policy).
/// Version 1 was the WAL's old fixed-width record, whose payload opened
/// with `u32 1`; that reads back as varint 1, so old records are refused.
inline constexpr std::uint32_t kDayDeltaFormatVersion = 2;

/// Serialize `snapshot` into one self-contained CRC frame (the exact bytes
/// `save_snapshot` writes). The history store embeds these frames as its
/// keyframes, so a keyframe and a snapshot file are the same format.
std::string encode_snapshot(const Snapshot& snapshot);

/// Parse a frame produced by `encode_snapshot`. kDataLoss when the frame or
/// payload fails validation (truncation, flipped bit, version skew, index
/// out of bounds); a rejected frame is NEVER partially applied.
pl::StatusOr<Snapshot> decode_snapshot(std::string_view frame);

/// Encode one day as a compact CRC frame: the WAL record `append_wal`
/// writes, byte for byte the history store's delta frame.
///
///   varint(version) zigzag(day)
///   country table: varint(n), n length-prefixed tokens (first-seen order)
///   facts:  varint(count), per fact
///           head u8 = status(2b) | registry(3b) | has-reg-date(1b)
///           zigzag varint ASN delta vs the previous fact
///           [zigzag varint registration-date delta vs the frame's day]
///           varint country id (0 = unknown, else table index + 1)
///           varint opaque org id
///   active: varint(count), zigzag varint ASN deltas
///
/// slice_day emits facts registry-major with ascending ASNs, so the ASN
/// deltas are small and positive; the codec still round-trips ANY DayDelta
/// exactly (order preserved, zigzag handles regressions).
std::string encode_day_delta(const DayDelta& delta);

/// Exact inverse of `encode_day_delta`: the decoded delta compares equal to
/// the encoded one, field for field and in order. Truncation, bit flips and
/// version skew all decode to kDataLoss — never a crash, never a partial
/// delta.
pl::StatusOr<DayDelta> decode_day_delta(std::string_view frame);

/// Serialize `snapshot` into one CRC frame and write it to `path`
/// atomically: the bytes land in `path + ".tmp"` first and are renamed over
/// `path` only after a successful flush, so a crash mid-save leaves the
/// previous snapshot intact. kUnavailable on filesystem errors.
/// `crash` (nullable) threads the checkpoint crash sites through.
pl::Status save_snapshot(const Snapshot& snapshot, const std::string& path,
                         robust::CrashPoints* crash = nullptr);

/// Load a snapshot saved by `save_snapshot`. kNotFound when `path` does not
/// exist, kUnavailable when it cannot be read, kDataLoss when the frame or
/// payload fails validation (torn write, flipped bit, version skew, index
/// out of bounds). A kDataLoss file is NEVER partially applied.
pl::StatusOr<Snapshot> open_snapshot(const std::string& path);

// -- write-ahead log -------------------------------------------------------

/// Append one day as a self-contained CRC frame at the end of the WAL.
/// Called before the in-memory fold: a day is durable once this returns.
pl::Status append_wal(const std::string& path, const DayDelta& delta,
                      robust::CrashPoints* crash = nullptr);

/// Everything `replay_wal` recovered, plus its damage accounting. Records
/// that fail CRC or decode are skipped (frame length still advances the
/// cursor); an undecodable tail — torn final append or mid-file structure
/// damage — drops the remaining bytes.
struct WalReplay {
  std::vector<DayDelta> deltas;          ///< valid records, file order
  std::int64_t valid_records = 0;
  std::int64_t corrupt_records = 0;      ///< whole frames failing CRC/decode
  std::int64_t dropped_bytes = 0;        ///< undecodable tail dropped
  bool torn_tail = false;                ///< the file did not end cleanly
};

/// Scan the WAL at `path`. kNotFound when absent, kUnavailable when
/// unreadable; corruption is NOT an error — it is reported in the replay
/// accounting so the caller can degrade instead of dying.
pl::StatusOr<WalReplay> replay_wal(const std::string& path);

// -- retry -----------------------------------------------------------------

/// Retry bound for transient (kUnavailable) load errors.
struct RetryPolicy {
  int max_attempts = 4;  ///< total attempts, first one included

  friend bool operator==(const RetryPolicy&, const RetryPolicy&) = default;
};

/// Loader signature for `load_with_retry` (and the DurableConfig test hook).
using SnapshotLoader = std::function<pl::StatusOr<Snapshot>()>;

/// Run `loader` until it succeeds, fails with anything other than
/// kUnavailable, or has run `policy.max_attempts` times; attempts run back
/// to back. The attempt count (>= 1) lands in `*attempts` when non-null.
pl::StatusOr<Snapshot> load_with_retry(const SnapshotLoader& loader,
                                       const RetryPolicy& policy,
                                       int* attempts = nullptr);

// -- the durable service ---------------------------------------------------

struct DurableConfig {
  /// Directory holding `snapshot.plsnap` and `days.plwal`. Must exist.
  std::string dir;
  /// Fold this many days between checkpoints (snapshot save + WAL truncate).
  /// 0 = never checkpoint automatically; the WAL just grows.
  int checkpoint_every_days = 16;
  RetryPolicy retry;
  /// Crash-injection hook for the durability tests; null in production.
  robust::CrashPoints* crash = nullptr;
  /// Test hook: overrides `open_snapshot(snapshot_path)` during open() so
  /// transient-failure retry paths can be exercised. Null = read the file.
  SnapshotLoader loader;
  /// Flight-recorder ring capacity (events retained per ring; see
  /// obs/flight.hpp). The recorder is shared with the wrapped QueryService
  /// so query and durability events land in one timeline.
  std::size_t flight_capacity = obs::kFlightDefaultCapacity;
  /// Optional snapshot history (not owned; must outlive the service). When
  /// set, open() seeds it from the recovered base state, every folded day —
  /// replayed or advanced — is appended, and it is attached to the wrapped
  /// QueryService, whose `as_of` may then ask any recorded day (answered by
  /// cutting the live working set). History is derived state: an append
  /// failure degrades health() but never fails the fold.
  HistoryBackend* history = nullptr;
};

/// Structured degradation report. `degraded` means the service is running
/// but NOT serving everything it was given: a snapshot was rejected, WAL
/// records were corrupt, or days were quarantined. A torn WAL tail alone is
/// not degradation — that day's append never completed, so it was never
/// acknowledged as durable.
struct HealthReport {
  bool degraded = false;
  bool snapshot_rejected = false;  ///< on-disk snapshot failed validation
  bool wal_torn_tail = false;      ///< trailing partial record dropped
  util::Day last_durable_day = 0;  ///< archive end of the served state
  util::Day snapshot_day = 0;      ///< archive end of the on-disk snapshot
  std::vector<util::Day> quarantined_days;  ///< failed to fold; not served
  std::int64_t wal_records = 0;          ///< live records past the snapshot
  std::int64_t wal_corrupt_records = 0;  ///< frames dropped on replay
  std::int64_t wal_dropped_bytes = 0;    ///< undecodable tail bytes
  std::int64_t replayed_days = 0;        ///< deltas folded from WAL on open
  std::int64_t load_attempts = 0;        ///< snapshot-load attempts (retries)
  std::string last_error;                ///< reason for the degradation

  friend bool operator==(const HealthReport&, const HealthReport&) = default;
};

/// Execution-order list of the crash sites `advance_day()` (and the
/// checkpoint it may trigger) passes through. The crash test iterates this
/// and asserts `CrashPoints::visited()` covers it, so a new site cannot be
/// added without being tested.
extern const std::vector<std::string_view> kAdvanceCrashSites;

/// A QueryService wrapped in durability: WAL-append-then-fold advances,
/// periodic checkpoints, replay on open, quarantine + HealthReport on bad
/// input. Same threading contract as QueryService (reads are concurrent,
/// advances are externally serialized).
class DurableService {
 public:
  /// Open the durable directory. If a snapshot file exists it is loaded
  /// (with retry; a corrupt one is rejected and `bootstrap` used instead —
  /// degraded, surfaced in health()); otherwise `bootstrap` is persisted as
  /// the base state. Any WAL is then replayed on top. Fails only on hard
  /// filesystem errors or an empty `config.dir`.
  static pl::StatusOr<DurableService> open(Snapshot bootstrap,
                                           DurableConfig config);

  DurableService(DurableService&&) = default;
  DurableService& operator=(DurableService&&) = default;

  /// Durably fold one day: validate, append to the WAL, fold in memory,
  /// maybe checkpoint. A delta that fails to fold is quarantined — the
  /// service keeps answering from the last good state and health() turns
  /// degraded. After an injected crash the instance is dead
  /// (kFailedPrecondition); reopen from disk.
  pl::Status advance_day(const DayDelta& delta);

  /// Force a checkpoint now (snapshot save + WAL truncate).
  pl::Status checkpoint();

  QueryService& queries() noexcept { return *service_; }
  const Snapshot& snapshot() const noexcept { return service_->snapshot(); }
  util::Day archive_end() const noexcept { return snapshot().archive_end(); }

  HealthReport health() const;
  /// Durability-layer trace + metrics (`serve.durable.*` spans,
  /// `pl_serve_wal_*` / `pl_serve_snapshot_*` metrics). The wrapped
  /// QueryService keeps its own report.
  obs::Report report() const;

  const DurableConfig& config() const noexcept { return config_; }
  std::string snapshot_path() const { return config_.dir + "/snapshot.plsnap"; }
  std::string wal_path() const { return config_.dir + "/days.plwal"; }
  /// Where the flight recorder is dumped (pl-flight/1) on crash,
  /// quarantine, or degradation.
  std::string flight_path() const { return config_.dir + "/flight.plflight"; }

  /// The shared flight recorder (also fed by `queries()`).
  const obs::FlightRecorder& flight() const noexcept { return *flight_; }

 private:
  explicit DurableService(DurableConfig config);

  pl::Status open_impl(Snapshot bootstrap);
  pl::Status checkpoint_impl(obs::Span& parent);
  /// Append one folded day to the attached history (no-op when none).
  /// Best-effort: failures are counted and surfaced in health(), never
  /// propagated — the history is rebuildable from snapshot + WAL.
  void append_history(const DayDelta& delta);
  void quarantine(util::Day day, const pl::Status& why);
  bool crash_here(std::string_view site);
  void refresh_gauges();

  void record_flight(obs::EventKind kind, std::uint32_t detail,
                     std::int64_t a) noexcept;
  /// Persist the recorder to flight_path(). Best-effort by design: dump
  /// sites are already on failure paths, so a dump that cannot be written
  /// must not mask the original error.
  void dump_flight() noexcept;
  /// Record the kCrash event (detail = crc32 of the fired site) and dump.
  void note_crash();
  /// Record kDegraded and dump — called wherever health_.degraded turns on.
  void note_degraded();

  DurableConfig config_;

  // Behind unique_ptr: Registry/Trace own mutexes and QueryService holds
  // references into its registry, so none of them are movable in place.
  std::unique_ptr<obs::Registry> metrics_;
  std::unique_ptr<obs::Trace> trace_;
  obs::Span root_;
  std::unique_ptr<obs::FlightRecorder> flight_;  ///< shared with service_
  std::unique_ptr<QueryService> service_;

  HealthReport health_;
  int days_since_checkpoint_ = 0;
  bool crashed_ = false;  ///< injected crash latched; instance is dead
};

}  // namespace pl::serve
