// The serving snapshot: the study's end product frozen into a compact,
// immutable, query-optimized store.
//
// A Snapshot joins everything the paper derives per ASN — administrative
// lives (4.1), operational lives (4.2), the joint taxonomy class (6), and
// the squat-detector verdicts (6.1.2 / 6.4) — into one sorted per-ASN index
// with three query paths:
//
//   * point lookup by ASN           O(log n) binary search over AsnRow;
//   * range scan by ASN / RIR / country   over per-dimension row indexes;
//   * "alive on day D" census       O(log n) over sorted start/end arrays.
//
// Construction happens once from pipeline output (`Snapshot::build`) or
// from published Listing-1 datasets (`Snapshot::from_datasets`, query-only).
// After that the snapshot only changes through `advance_day()`, which folds
// ONE new delegation day plus ONE BGP activity day in place: it extends the
// working set's restored spans and activity runs, then re-derives every row
// from the working set. build(), advance_day() and the full at() share that
// one derivation (the pipeline's lifetime builders, then classification
// and detector flags), so an advanced snapshot is bit-identical to a build
// over the extended world — DESIGN.md §11 catalogues why.
//
// The working set only grows (advance_day extends the last span or appends
// one, and activity only gains the new day), so it already holds every
// earlier day: `at(D)` answers "the snapshot as of day D" by cutting it at
// D, in full or narrowed to the asked ASNs (DESIGN.md §16).
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <vector>

#include "bgp/activity.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "joint/squat.hpp"
#include "joint/taxonomy.hpp"
#include "lifetimes/admin.hpp"
#include "lifetimes/op.hpp"
#include "restore/types.hpp"
#include "util/status.hpp"

namespace pl::serve {

/// Per-ASN detector/status flag bits stamped on AsnRow. Only facts stable
/// under a moving archive end live here ("currently allocated/active" are
/// computed at query time against `archive_end()` instead, so the rows of
/// an ASN the day did not change stay byte-identical across advances).
enum AsnFlag : std::uint16_t {
  kFlagEverAllocated = 1u << 0,     ///< has at least one admin life
  kFlagEverActive = 1u << 1,        ///< has at least one op life
  kFlagTransferred = 1u << 2,       ///< any admin life crossed registries
  kFlagUnusedLife = 1u << 3,        ///< any admin life classified unused
  kFlagPartialOverlap = 1u << 4,    ///< any admin life partially overlapped
  kFlagCompleteOverlap = 1u << 5,   ///< any admin life completely overlapped
  kFlagDormantSquat = 1u << 6,      ///< any op life flagged dormant-awakening
  kFlagOutsideActivity = 1u << 7,   ///< any outside-delegation op life
                                    ///< (ever-allocated ASN)
};

/// One admin life plus its taxonomy class.
struct AdminLifeRow {
  lifetimes::AdminLifetime life;
  joint::Category category = joint::Category::kUnused;

  friend bool operator==(const AdminLifeRow&, const AdminLifeRow&) = default;
};

/// One op life plus its taxonomy class, best-overlap admin life (local
/// index within the ASN's admin rows) and detector verdicts.
struct OpLifeRow {
  lifetimes::OpLifetime life;
  joint::Category category = joint::Category::kOutsideDelegation;
  std::int32_t admin_index = -1;  ///< local index, -1 when none overlaps
  bool dormant_squat = false;
  bool outside_activity = false;

  friend bool operator==(const OpLifeRow&, const OpLifeRow&) = default;
};

/// Index entry for one ASN: slices into the admin/op row arrays plus the
/// stable flag bits. Rows are sorted by ASN — the point-lookup key.
struct AsnRow {
  asn::Asn asn;
  std::uint32_t admin_begin = 0;
  std::uint32_t admin_count = 0;
  std::uint32_t op_begin = 0;
  std::uint32_t op_count = 0;
  std::uint16_t flags = 0;

  friend bool operator==(const AsnRow&, const AsnRow&) = default;
};

struct SnapshotConfig {
  int op_timeout_days = lifetimes::kPaperTimeoutDays;
  lifetimes::AdminBuildConfig admin;
  joint::SquatDetectorConfig squat;

  friend bool operator==(const SnapshotConfig&, const SnapshotConfig&) =
      default;
};

/// What one registry said about one ASN on the new day.
struct DelegationFact {
  asn::Asn asn;
  asn::Rir registry = asn::Rir::kArin;
  dele::RecordState state;

  friend bool operator==(const DelegationFact&,
                         const DelegationFact&) = default;
};

/// One day of new input: the delegation facts of every registry plus the
/// ASNs the BGP visibility rule marked active.
/// `history::HistoryStore::slice_day` cuts one out of a full archive; a
/// deployment would assemble it from the day's delegation files and
/// collector dump instead.
struct DayDelta {
  util::Day day = 0;
  std::vector<DelegationFact> delegation;
  std::vector<asn::Asn> active;

  friend bool operator==(const DayDelta&, const DayDelta&) = default;
};

/// advance_day() accounting, surfaced as span notes by the QueryService.
struct AdvanceStats {
  std::int64_t facts = 0;           ///< delegation facts applied
  std::int64_t active = 0;          ///< ASNs marked active
  std::int64_t inserted_spans = 0;  ///< facts that opened a new span
  std::int64_t inserted_runs = 0;   ///< active ASNs that opened a new run
  std::int64_t touched_admin = 0;   ///< ASNs derived with admin lives
  std::int64_t touched_op = 0;      ///< ASNs derived with op lives
};

/// at() accounting, surfaced as `serve.as_of` span notes by the QueryService.
struct CutStats {
  std::int64_t asns = 0;   ///< ASN rows built at the cut day
  std::int64_t spans = 0;  ///< restored spans the cut kept
};

struct AliveCensus {
  std::int64_t admin_alive = 0;  ///< admin lives covering the day
  std::int64_t op_alive = 0;     ///< op lives covering the day

  friend bool operator==(const AliveCensus&, const AliveCensus&) = default;
};

class Snapshot {
 public:
  /// An empty snapshot (no rows, archive end 0); useful as a slot to move
  /// a built snapshot into.
  Snapshot() = default;

  /// Build from restored pipeline output. Runs the same lifetime builders
  /// and classifier the pipeline stages run, so a snapshot built from a
  /// pipeline's restored archive agrees exactly with its Result datasets.
  static Snapshot build(const restore::RestoredArchive& archive,
                        const bgp::ActivityTable& activity,
                        util::Day archive_end, const SnapshotConfig& config = {});

  /// Build a query-only snapshot from already-built datasets (e.g. loaded
  /// from Listing-1 JSON). Precondition: both datasets are sorted by
  /// (asn, start) — the builders and the JSON loaders guarantee it; the
  /// order is checked, not restored. No working set: advance_day() on the
  /// result fails with kFailedPrecondition.
  static Snapshot from_datasets(lifetimes::AdminDataset admin,
                                lifetimes::OpDataset op,
                                const SnapshotConfig& config = {});

  // -- point / range / interval queries ----------------------------------

  /// Row for an ASN; nullptr when the study never saw it. O(log n).
  const AsnRow* find(asn::Asn asn) const noexcept;

  std::span<const AdminLifeRow> admin_lives(const AsnRow& row) const noexcept {
    return {admin_rows_.data() + row.admin_begin, row.admin_count};
  }
  std::span<const OpLifeRow> op_lives(const AsnRow& row) const noexcept {
    return {op_rows_.data() + row.op_begin, row.op_count};
  }

  bool admin_alive_on(const AsnRow& row, util::Day day) const noexcept;
  bool op_alive_on(const AsnRow& row, util::Day day) const noexcept;

  /// How many admin/op lives cover `day`, over the whole snapshot.
  /// O(log lives) via the sorted start/end arrays.
  AliveCensus alive_census(util::Day day) const noexcept;

  /// Row indices of ASNs that ever had an admin life under `rir`, ascending.
  const std::vector<std::uint32_t>& rows_in_registry(asn::Rir rir) const {
    return by_registry_[asn::index_of(rir)];
  }
  /// Row indices per country (admin lives' country), ascending.
  const std::map<asn::CountryCode, std::vector<std::uint32_t>>&
  rows_by_country() const noexcept {
    return by_country_;
  }

  const std::vector<AsnRow>& rows() const noexcept { return rows_; }
  util::Day archive_end() const noexcept { return archive_end_; }
  const SnapshotConfig& config() const noexcept { return config_; }
  std::size_t asn_count() const noexcept { return rows_.size(); }
  std::size_t admin_life_count() const noexcept { return admin_rows_.size(); }
  std::size_t op_life_count() const noexcept { return op_rows_.size(); }

  // -- incremental update ------------------------------------------------

  /// True when the snapshot kept its working set and can advance.
  bool can_advance() const noexcept { return working_.has_value(); }

  /// Fold one new day in. `delta.day` must be `archive_end() + 1`; at most
  /// one fact per (registry, ASN). On success the snapshot is bit-identical
  /// to `build()` over the extended inputs; on failure it is unchanged.
  /// A fact or active ASN that continues the trailing span or run extends
  /// it in place; the rest are merged into each touched table in one
  /// linear pass. With `span`, each phase (`apply`, `lifetimes`,
  /// `assemble`, `index`) opens a child of it noting what it touched.
  pl::Status advance_day(const DayDelta& delta, AdvanceStats* stats = nullptr,
                         obs::Span* span = nullptr);

  // -- the past ----------------------------------------------------------

  /// The snapshot as of an earlier day: the working set cut at `day`
  /// (every span and active day after it dropped), then the derivation
  /// build() runs. That cut is the working set build() gets from the world
  /// truncated at `day`, so the result compares equal to that build.
  /// kFailedPrecondition without a working set, kInvalidArgument for a day
  /// after archive_end().
  pl::StatusOr<Snapshot> at(util::Day day, CutStats* stats = nullptr) const;

  /// The cut narrowed to `asns` (repeats and unknown ASNs allowed): each
  /// asked ASN's spans and activity cut at `day`, run through the per-ASN
  /// builders. Every row equals that ASN's row in `at(day)`; the result
  /// has no working set. Same errors as the full cut.
  pl::StatusOr<Snapshot> at(util::Day day, std::span<const asn::Asn> asns,
                            CutStats* stats = nullptr) const;

  /// Deep equality over everything — serving rows, derived indexes, and
  /// the working set. The advance-vs-rebuild tests assert with this.
  friend bool operator==(const Snapshot& a, const Snapshot& b);

  /// Binary persistence (durable.cpp): serializes the full private state —
  /// rows, config, and working set — and rebuilds the derived indexes on
  /// decode so a reopened snapshot compares equal to the one saved.
  friend class SnapshotCodec;

 private:
  /// Mutable build inputs advance_day() extends, as flat tables: per
  /// registry, ASN keys, offsets and one span array; for activity, ASN keys,
  /// offsets and one run array. Spans are canonical (adjacent same-state
  /// spans merged, `lifetimes::flatten_spans`) so that daily extension and a
  /// fresh restoration of the extended world produce identical tables.
  struct WorkingSet {
    lifetimes::SpanTables spans;
    lifetimes::FirstObserved first_observed;
    lifetimes::RunTable activity;

    friend bool operator==(const WorkingSet&, const WorkingSet&) = default;
  };

  /// Why a cut at `day` is impossible, or OK.
  pl::Status check_cut(util::Day day) const;

  /// The one derivation: every serving row and index from `*working_` at
  /// `archive_end_`, through the pipeline's lifetime builders. Fills
  /// `stats->touched_admin`/`touched_op` when given, and opens one child
  /// span per phase under `span` when given.
  void derive(AdvanceStats* stats = nullptr, obs::Span* span = nullptr);

  /// Rows from life lists sorted by (asn, start).
  void assemble(std::span<const lifetimes::AdminLifetime> admin,
                std::span<const lifetimes::OpLifetime> op);
  /// Classify + flag one ASN's lives and append its serving rows (nothing
  /// when it has no lives). `cls` and `squats` are scratch the caller
  /// reuses from ASN to ASN.
  void append_asn_rows(asn::Asn asn,
                       std::span<const lifetimes::AdminLifetime> admin,
                       std::span<const lifetimes::OpLifetime> op,
                       joint::AsnClassification& cls,
                       joint::AsnSquatFlags& squats);
  void rebuild_indexes();

  std::vector<AsnRow> rows_;
  std::vector<AdminLifeRow> admin_rows_;
  std::vector<OpLifeRow> op_rows_;
  util::Day archive_end_ = 0;
  SnapshotConfig config_;

  // Derived serving indexes, deterministic functions of the rows above.
  std::array<std::vector<std::uint32_t>, asn::kRirCount> by_registry_;
  std::map<asn::CountryCode, std::vector<std::uint32_t>> by_country_;
  std::vector<util::Day> admin_starts_;  ///< sorted admin life start days
  std::vector<util::Day> admin_ends_;    ///< sorted admin life end days
  std::vector<util::Day> op_starts_;
  std::vector<util::Day> op_ends_;

  std::optional<WorkingSet> working_;
};

/// Publish the snapshot census into a metrics registry (gauges
/// `pl_serve_snapshot_asns` / `_admin_lives` / `_op_lives` and
/// `pl_serve_archive_end`).
void record_metrics(const Snapshot& snapshot, obs::Registry& metrics);

}  // namespace pl::serve
