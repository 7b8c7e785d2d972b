// The query front-end over a serving Snapshot.
//
// QueryService answers the questions the paper's analyses keep asking —
// "what do we know about AS X?", "was it alive on day D?", "which ASNs in
// registry R / country C match?" — with flat value-type answers read
// straight off the Snapshot (one binary search per ASN) and full obs
// instrumentation (`serve.*` spans, `pl_serve_*` metrics).
//
// The request shape is one struct: `Query{subject, options}`. The subject
// says WHAT is asked (point lookup, batch, alive, census, scan); the
// options say WHEN — `QueryOptions::as_of` answers from a cut of the live
// working set at a past day (`Snapshot::at`, DESIGN.md §16), within the
// day range of an attached `HistoryBackend`. `query()` is the only
// question-answering entry point.
//
// Batch subjects are the primary API: vector-in/vector-out, computed in
// parallel over the exec pool. Answers are deterministic — bit-identical
// across PL_THREADS settings (the serve oracle test locks this) — because
// every batch slot is computed on its own into its own index, and the
// flight events are then recorded serially in index order.
//
// Temporal queries ride the same cuts: `drift(from, to)` tallies the
// Table-3 taxonomy at two as-of days, `first_flip(asn, category)` finds the
// first recorded day an ASN's admin classification became `category`.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "obs/export.hpp"
#include "obs/flight.hpp"
#include "obs/latency.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "serve/history_backend.hpp"
#include "serve/snapshot.hpp"

namespace pl::serve {

/// Everything the snapshot knows about one ASN, flattened for consumers
/// that don't want to walk life rows. `latest_*` describe the most recent
/// admin life; `currently_*` are evaluated against the snapshot's archive
/// end, so they stay correct as the service advances.
struct AsnAnswer {
  asn::Asn asn;
  bool known = false;  ///< false: the study never saw this ASN

  std::uint32_t admin_life_count = 0;
  std::uint32_t op_life_count = 0;
  util::DayInterval admin_span;  ///< hull of all admin lives (empty if none)
  util::DayInterval op_span;     ///< hull of all op lives (empty if none)

  asn::Rir latest_registry = asn::Rir::kArin;
  asn::CountryCode latest_country;
  util::Day latest_registration = 0;
  joint::Category latest_admin_category = joint::Category::kUnused;

  bool currently_allocated = false;
  bool currently_active = false;
  bool transferred = false;
  bool dormant_squat = false;
  bool outside_activity = false;

  friend bool operator==(const AsnAnswer&, const AsnAnswer&) = default;
};

/// "Was this ASN administratively / operationally alive on day D?"
struct AliveAnswer {
  asn::Asn asn;
  bool admin_alive = false;
  bool op_alive = false;

  friend bool operator==(const AliveAnswer&, const AliveAnswer&) = default;
};

/// Range scan over the per-ASN index. All filters are conjunctive; unset
/// optionals don't filter. Results come back in ascending ASN order.
struct ScanQuery {
  asn::Asn first{0};
  asn::Asn last{0xFFFFFFFFu};
  std::optional<asn::Rir> registry;         ///< any admin life under this RIR
  std::optional<asn::CountryCode> country;  ///< any admin life in this country
  std::optional<util::Day> admin_alive_on;
  std::optional<util::Day> op_alive_on;
  std::size_t limit = static_cast<std::size_t>(-1);
};

struct CensusAnswer {
  util::Day day = 0;
  std::int64_t admin_alive = 0;
  std::int64_t op_alive = 0;

  friend bool operator==(const CensusAnswer&, const CensusAnswer&) = default;
};

// -- the unified request shape ---------------------------------------------

/// What kind of question a Query asks. Point and batch kinds stay distinct
/// because their flight-event and metric shapes differ (a point lookup
/// records one event, a batch one per item).
enum class QueryKind : std::uint8_t {
  kLookup,       ///< one ASN          → QueryResult::lookups[0]
  kLookupBatch,  ///< many ASNs        → QueryResult::lookups
  kAlive,        ///< one ASN + day    → QueryResult::alive[0]
  kAliveBatch,   ///< many ASNs + day  → QueryResult::alive
  kCensus,       ///< one day          → QueryResult::census
  kScan,         ///< ScanQuery filter → QueryResult::lookups
};

/// Which day's snapshot answers. Defaults answer from the live snapshot.
struct QueryOptions {
  /// 0 (or the live archive end) = answer from the current snapshot. Any
  /// earlier day answers from a cut of the live working set at that day:
  /// what the service would have said on that day. Lookup and alive kinds
  /// cut only the asked ASNs; census and scan cut everything. Requires
  /// `attach_history()` (the day must lie in its recorded range) and a
  /// snapshot that kept its working set; fails kFailedPrecondition
  /// otherwise.
  util::Day as_of = 0;

  friend bool operator==(const QueryOptions&, const QueryOptions&) = default;
};

/// The subject of a query; which fields matter depends on `kind`.
struct QuerySubject {
  QueryKind kind = QueryKind::kLookup;
  std::vector<asn::Asn> asns;  ///< kLookup*/kAlive*: the ASN(s) asked about
  util::Day day = 0;           ///< kAlive*/kCensus: the day asked about
  ScanQuery scan;              ///< kScan: the filter
};

/// One request: subject + options. Build directly or via the factories.
struct Query {
  QuerySubject subject;
  QueryOptions options;

  static Query lookup(asn::Asn asn, QueryOptions options = {});
  static Query lookup_batch(std::vector<asn::Asn> asns,
                            QueryOptions options = {});
  static Query alive(asn::Asn asn, util::Day day, QueryOptions options = {});
  static Query alive_batch(std::vector<asn::Asn> asns, util::Day day,
                           QueryOptions options = {});
  static Query census(util::Day day, QueryOptions options = {});
  static Query scan(ScanQuery scan, QueryOptions options = {});
};

/// The answer slot matching the subject kind (see QueryKind). Unused slots
/// stay empty, so one result type covers every kind without a variant.
struct QueryResult {
  std::vector<AsnAnswer> lookups;
  std::vector<AliveAnswer> alive;
  std::optional<CensusAnswer> census;

  friend bool operator==(const QueryResult&, const QueryResult&) = default;
};

// -- temporal answers ------------------------------------------------------

/// Number of joint taxonomy classes (array index space for drift tallies).
inline constexpr std::size_t kTaxonomyCategories =
    static_cast<std::size_t>(joint::Category::kOutsideDelegation) + 1;

/// Table-3 taxonomy tallies at two as-of days: how many admin lives of each
/// class the study knew about then vs now. Indexed by joint::Category.
struct DriftAnswer {
  util::Day from = 0;
  util::Day to = 0;
  std::array<std::int64_t, kTaxonomyCategories> from_counts{};
  std::array<std::int64_t, kTaxonomyCategories> to_counts{};

  friend bool operator==(const DriftAnswer&, const DriftAnswer&) = default;
};

/// Query front-end owning a Snapshot and its obs state.
/// Thread-compatible: concurrent reads are safe against each other but not
/// against advance_day(); callers serialize advances externally.
class QueryService {
 public:
  /// `flight` (nullable) shares an external recorder — DurableService passes
  /// its own so query and durability events interleave in one timeline. A
  /// stand-alone service owns a recorder of the default capacity instead,
  /// so every query is attributable either way.
  explicit QueryService(Snapshot snapshot,
                        obs::FlightRecorder* flight = nullptr);

  QueryService(const QueryService&) = delete;
  QueryService& operator=(const QueryService&) = delete;

  // -- the unified entry point ---------------------------------------------

  /// Answer one Query. kInvalidArgument when the subject is malformed
  /// (point kinds need exactly one ASN) or `as_of` is in the future;
  /// kFailedPrecondition when `as_of` needs a history store and none is
  /// attached, or the snapshot has no working set to cut; kNotFound when
  /// `as_of` lies outside the recorded history.
  pl::StatusOr<QueryResult> query(const Query& q);

  /// Attach the snapshot history whose recorded day range gates `as_of`
  /// and the temporal queries. The answers are cuts of the live working
  /// set, not reads from the store. Not owned; must outlive the service (or
  /// be detached with nullptr). A DurableService wires its configured
  /// backend in here.
  void attach_history(HistoryBackend* history) noexcept {
    history_ = history;
  }
  HistoryBackend* history() const noexcept { return history_; }

  // -- temporal queries ----------------------------------------------------

  /// Taxonomy tallies as of `from` vs as of `to` (0 = today). Each past
  /// day is a full cut, gated like any as_of query.
  pl::StatusOr<DriftAnswer> drift(util::Day from, util::Day to);

  /// First recorded day `asn`'s admin classification flipped TO `category`
  /// — the earliest day D in the stored history where the life covering D
  /// is classified `category` and the day before was not (a classification
  /// already in force at the start of the recorded range counts as day
  /// one). Each day cuts only `asn`'s rows. kNotFound when it never
  /// happened within the recorded range.
  pl::StatusOr<util::Day> first_flip(asn::Asn asn, joint::Category category);

  // -- incremental update ------------------------------------------------

  /// Fold one day into the snapshot. On success version() increments; the
  /// next query reads the folded snapshot.
  pl::Status advance_day(const DayDelta& delta);

  // -- introspection -----------------------------------------------------

  const Snapshot& snapshot() const noexcept { return snapshot_; }
  std::uint64_t version() const noexcept { return version_; }

  /// Trace tree + metrics snapshot for this service (pl-obs/2 exportable).
  obs::Report report() const;

  /// The flight recorder receiving this service's per-query events (owned
  /// or shared, see the constructor).
  const obs::FlightRecorder& flight() const noexcept { return *flight_; }

 private:
  // Every serving path is parameterized on the snapshot it answers from:
  // the live one or a cut of it at a past day.
  AsnAnswer answer_for(const Snapshot& snap, asn::Asn asn) const;
  AliveAnswer alive_for(const Snapshot& snap, asn::Asn asn,
                        util::Day day) const;

  AsnAnswer lookup_impl(const Snapshot& snap, asn::Asn asn);
  std::vector<AsnAnswer> lookup_batch_impl(const Snapshot& snap,
                                           const std::vector<asn::Asn>& asns);
  AliveAnswer alive_impl(const Snapshot& snap, asn::Asn asn, util::Day day);
  std::vector<AliveAnswer> alive_batch_impl(const Snapshot& snap,
                                            const std::vector<asn::Asn>& asns,
                                            util::Day day);
  CensusAnswer census_impl(const Snapshot& snap, util::Day day);
  std::vector<AsnAnswer> scan_impl(const Snapshot& snap,
                                   const ScanQuery& query);

  /// True when `as_of` asks the live day: 0 or the current archive end.
  bool live_day(util::Day day) const noexcept {
    return day == 0 || day == snapshot_.archive_end();
  }

  /// Resolve an as_of day to the snapshot to answer from: the live one for
  /// 0 / the current archive end, otherwise a cut of the live working set
  /// built into `past` — narrowed to `asns` when given, full otherwise.
  /// The pointer lives as long as `past`. Records a `serve.as_of` span.
  pl::StatusOr<const Snapshot*> snapshot_as_of(
      util::Day day, const std::vector<asn::Asn>* asns,
      std::optional<Snapshot>& past);

  /// Per-API-call sequence number feeding RequestId derivation. Gated on
  /// obs::kEnabled so the PL_OBS_OFF build pays nothing.
  std::uint64_t next_sequence() noexcept {
    if constexpr (obs::kEnabled)
      return sequence_.fetch_add(1, std::memory_order_relaxed);
    else
      return 0;
  }

  void record_event(obs::RequestId id, obs::EventKind kind,
                    std::uint32_t detail, std::int64_t a) noexcept {
    flight_->record(obs::FlightEvent{
        id.value, static_cast<std::uint32_t>(kind), detail, a, 0});
  }

  Snapshot snapshot_;
  HistoryBackend* history_ = nullptr;  ///< as_of day range; not owned

  obs::Registry metrics_;
  obs::Trace trace_;
  obs::Span root_;

  // Flight recorder: owned unless an external one was passed in. Behind
  // unique_ptr so the atomics never move.
  std::unique_ptr<obs::FlightRecorder> owned_flight_;
  obs::FlightRecorder* flight_;

  // Per-kind `pl_serve_queries{kind=...}` counters and the batch-size
  // histogram, hoisted once: get-or-create builds the name and takes the
  // registry mutex, which the point path must not pay per query.
  obs::Counter& point_counter_;
  obs::Counter& batch_counter_;
  obs::Counter& alive_counter_;
  obs::Counter& census_counter_;
  obs::Counter& scan_counter_;
  obs::Counter& as_of_counter_;
  obs::Counter& drift_counter_;
  obs::Counter& first_flip_counter_;
  obs::Histogram& batch_items_;

  // Latency histograms hoisted the same way. Point-path samples are
  // decimated 1-in-8 (DESIGN.md §14.4) to keep the clock reads off the
  // common path; batch/scan/advance scopes time every call.
  obs::LatencyHisto& point_latency_;
  obs::LatencyHisto& alive_latency_;
  obs::LatencyHisto& batch_latency_;
  obs::LatencyHisto& scan_latency_;
  obs::LatencyHisto& census_latency_;
  obs::LatencyHisto& advance_latency_;

  std::atomic<std::uint64_t> sequence_{0};
  std::uint64_t version_ = 0;
};

}  // namespace pl::serve
