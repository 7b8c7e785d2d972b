#include "serve/query.hpp"

#include <algorithm>
#include <utility>


namespace pl::serve {

namespace {

/// Batch-size histogram edges: singles, small scripts, analysis sweeps.
std::vector<std::int64_t> batch_bounds() { return {1, 8, 64, 512, 4096}; }

/// Flight detail for one answered query. Nothing is cached, so the cache
/// and shard fields of the pl-flight/1 layout are always zero.
constexpr std::uint32_t answered(bool found) noexcept {
  return obs::query_detail(obs::kCacheNone, 0, 0, found);
}

/// The admin classification of `asn` in force on `day` (the category of
/// the admin life covering it), nullopt when no life covers the day.
std::optional<joint::Category> class_on(const Snapshot& snap, asn::Asn asn,
                                        util::Day day) {
  const AsnRow* row = snap.find(asn);
  if (row == nullptr) return std::nullopt;
  for (const AdminLifeRow& life : snap.admin_lives(*row))
    if (life.life.days.first <= day && day <= life.life.days.last)
      return life.category;
  return std::nullopt;
}

/// Table-3 tally over every admin life the snapshot knows.
std::array<std::int64_t, kTaxonomyCategories> tally_categories(
    const Snapshot& snap) {
  std::array<std::int64_t, kTaxonomyCategories> counts{};
  for (const AsnRow& row : snap.rows())
    for (const AdminLifeRow& life : snap.admin_lives(row))
      ++counts[static_cast<std::size_t>(life.category)];
  return counts;
}

}  // namespace

// -- Query factories -------------------------------------------------------

Query Query::lookup(asn::Asn asn, QueryOptions options) {
  Query q;
  q.subject.kind = QueryKind::kLookup;
  q.subject.asns = {asn};
  q.options = options;
  return q;
}

Query Query::lookup_batch(std::vector<asn::Asn> asns, QueryOptions options) {
  Query q;
  q.subject.kind = QueryKind::kLookupBatch;
  q.subject.asns = std::move(asns);
  q.options = options;
  return q;
}

Query Query::alive(asn::Asn asn, util::Day day, QueryOptions options) {
  Query q;
  q.subject.kind = QueryKind::kAlive;
  q.subject.asns = {asn};
  q.subject.day = day;
  q.options = options;
  return q;
}

Query Query::alive_batch(std::vector<asn::Asn> asns, util::Day day,
                         QueryOptions options) {
  Query q;
  q.subject.kind = QueryKind::kAliveBatch;
  q.subject.asns = std::move(asns);
  q.subject.day = day;
  q.options = options;
  return q;
}

Query Query::census(util::Day day, QueryOptions options) {
  Query q;
  q.subject.kind = QueryKind::kCensus;
  q.subject.day = day;
  q.options = options;
  return q;
}

Query Query::scan(ScanQuery scan, QueryOptions options) {
  Query q;
  q.subject.kind = QueryKind::kScan;
  q.subject.scan = std::move(scan);
  q.options = options;
  return q;
}

// -- QueryService ----------------------------------------------------------

QueryService::QueryService(Snapshot snapshot, obs::FlightRecorder* flight)
    : snapshot_(std::move(snapshot)),
      root_(trace_.root("serve")),
      owned_flight_(flight == nullptr
                        ? std::make_unique<obs::FlightRecorder>()
                        : nullptr),
      flight_(flight == nullptr ? owned_flight_.get() : flight),
      point_counter_(metrics_.counter("pl_serve_queries{kind=\"point\"}")),
      batch_counter_(metrics_.counter("pl_serve_queries{kind=\"batch\"}")),
      alive_counter_(metrics_.counter("pl_serve_queries{kind=\"alive\"}")),
      census_counter_(
          metrics_.counter("pl_serve_queries{kind=\"census\"}")),
      scan_counter_(metrics_.counter("pl_serve_queries{kind=\"scan\"}")),
      as_of_counter_(metrics_.counter("pl_serve_queries{kind=\"as_of\"}")),
      drift_counter_(metrics_.counter("pl_serve_queries{kind=\"drift\"}")),
      first_flip_counter_(
          metrics_.counter("pl_serve_queries{kind=\"first_flip\"}")),
      batch_items_(metrics_.histogram("pl_serve_batch_items", batch_bounds())),
      point_latency_(metrics_.latency("pl_serve_latency_ns{kind=\"point\"}")),
      alive_latency_(metrics_.latency("pl_serve_latency_ns{kind=\"alive\"}")),
      batch_latency_(metrics_.latency("pl_serve_latency_ns{kind=\"batch\"}")),
      scan_latency_(metrics_.latency("pl_serve_latency_ns{kind=\"scan\"}")),
      census_latency_(
          metrics_.latency("pl_serve_latency_ns{kind=\"census\"}")),
      advance_latency_(
          metrics_.latency("pl_serve_latency_ns{kind=\"advance\"}")) {
  record_metrics(snapshot_, metrics_);
}

AsnAnswer QueryService::answer_for(const Snapshot& snap, asn::Asn asn) const {
  AsnAnswer answer;
  answer.asn = asn;
  const AsnRow* row = snap.find(asn);
  if (row == nullptr) return answer;
  answer.known = true;
  answer.admin_life_count = row->admin_count;
  answer.op_life_count = row->op_count;
  answer.transferred = (row->flags & kFlagTransferred) != 0;
  answer.dormant_squat = (row->flags & kFlagDormantSquat) != 0;
  answer.outside_activity = (row->flags & kFlagOutsideActivity) != 0;

  const util::Day end = snap.archive_end();
  const auto admin = snap.admin_lives(*row);
  if (!admin.empty()) {
    answer.admin_span =
        util::DayInterval{admin.front().life.days.first,
                          admin.back().life.days.last};
    const AdminLifeRow& latest = admin.back();
    answer.latest_registry = latest.life.registry;
    answer.latest_country = latest.life.country;
    answer.latest_registration = latest.life.registration_date;
    answer.latest_admin_category = latest.category;
    answer.currently_allocated = snap.admin_alive_on(*row, end);
  }
  const auto op = snap.op_lives(*row);
  if (!op.empty()) {
    answer.op_span = util::DayInterval{op.front().life.days.first,
                                       op.back().life.days.last};
    answer.currently_active = snap.op_alive_on(*row, end);
  }
  return answer;
}

AliveAnswer QueryService::alive_for(const Snapshot& snap, asn::Asn asn,
                                    util::Day day) const {
  AliveAnswer answer;
  answer.asn = asn;
  const AsnRow* row = snap.find(asn);
  if (row == nullptr) return answer;
  answer.admin_alive = snap.admin_alive_on(*row, day);
  answer.op_alive = snap.op_alive_on(*row, day);
  return answer;
}

// -- the unified entry point -----------------------------------------------

// pl-lint: allow(query-path-untraced) dispatcher: every kind's impl below
// records its own span / flight event / metrics, and snapshot_as_of traces
// the past-day cut — query() itself adds no unattributed work.
pl::StatusOr<QueryResult> QueryService::query(const Query& q) {
  const QuerySubject& subject = q.subject;
  const auto answer = [&](const Snapshot& snap) -> pl::StatusOr<QueryResult> {
    const bool point = subject.kind == QueryKind::kLookup ||
                       subject.kind == QueryKind::kAlive;
    if (point && subject.asns.size() != 1)
      return pl::invalid_argument_error(
          "point query subjects carry exactly one ASN; use the batch kind");

    QueryResult result;
    switch (subject.kind) {
      case QueryKind::kLookup:
        result.lookups.push_back(lookup_impl(snap, subject.asns.front()));
        break;
      case QueryKind::kLookupBatch:
        result.lookups = lookup_batch_impl(snap, subject.asns);
        break;
      case QueryKind::kAlive:
        result.alive.push_back(
            alive_impl(snap, subject.asns.front(), subject.day));
        break;
      case QueryKind::kAliveBatch:
        result.alive = alive_batch_impl(snap, subject.asns, subject.day);
        break;
      case QueryKind::kCensus:
        result.census = census_impl(snap, subject.day);
        break;
      case QueryKind::kScan:
        result.lookups = scan_impl(snap, subject.scan);
        break;
    }
    return result;
  };
  if (live_day(q.options.as_of)) return answer(snapshot_);

  // A past day answers from a cut of the live working set. The cut's slot
  // is declared only here: g++ zero-fills an empty std::optional<Snapshot>
  // (about 800 bytes), which the live path must not pay.
  const bool per_asn = subject.kind != QueryKind::kCensus &&
                       subject.kind != QueryKind::kScan;
  std::optional<Snapshot> past;
  auto cut = snapshot_as_of(q.options.as_of,
                            per_asn ? &subject.asns : nullptr, past);
  if (!cut.ok()) return cut.status();
  return answer(**cut);
}

pl::StatusOr<const Snapshot*> QueryService::snapshot_as_of(
    util::Day day, const std::vector<asn::Asn>* asns,
    std::optional<Snapshot>& past) {
  if (live_day(day)) return &snapshot_;
  if (day > snapshot_.archive_end())
    return pl::invalid_argument_error(
        "as_of day " + std::to_string(day) +
        " is beyond the served archive end " +
        std::to_string(snapshot_.archive_end()));
  if (history_ == nullptr)
    return pl::failed_precondition_error(
        "as_of queries need a history store; call attach_history() first");
  if (history_->empty())
    return pl::failed_precondition_error(
        "history store is empty; reset() or build() first");
  if (day < history_->earliest_day() || day > history_->latest_day())
    return pl::not_found_error(
        "day " + std::to_string(day) + " outside recorded history [" +
        std::to_string(history_->earliest_day()) + ", " +
        std::to_string(history_->latest_day()) + "]");

  obs::Span span = root_.child("serve.as_of");
  span.note("day", day);
  span.note("narrowed", asns != nullptr ? 1 : 0);
  as_of_counter_.add(1);
  CutStats stats;
  auto cut = asns != nullptr ? snapshot_.at(day, *asns, &stats)
                             : snapshot_.at(day, &stats);
  if (!cut.ok()) return cut.status();
  span.note("asns", stats.asns);
  span.note("spans", stats.spans);
  past = *std::move(cut);
  return &*past;
}

// -- temporal queries ------------------------------------------------------

pl::StatusOr<DriftAnswer> QueryService::drift(util::Day from, util::Day to) {
  obs::Span span = root_.child("serve.drift");
  span.note("from", from);
  span.note("to", to);
  drift_counter_.add(1);
  DriftAnswer answer;
  answer.from = from;
  answer.to = to;
  std::optional<Snapshot> then_past;
  auto then = snapshot_as_of(from, nullptr, then_past);
  if (!then.ok()) return then.status();
  answer.from_counts = tally_categories(**then);
  std::optional<Snapshot> now_past;
  auto now = snapshot_as_of(to, nullptr, now_past);
  if (!now.ok()) return now.status();
  answer.to_counts = tally_categories(**now);
  return answer;
}

pl::StatusOr<util::Day> QueryService::first_flip(asn::Asn asn,
                                                 joint::Category category) {
  obs::Span span = root_.child("serve.first_flip");
  span.note("asn", asn.value);
  first_flip_counter_.add(1);
  if (history_ == nullptr)
    return pl::failed_precondition_error(
        "first_flip needs a history store; call attach_history() first");
  const util::Day lo = history_->earliest_day();
  const util::Day hi = std::min(history_->latest_day(),
                                snapshot_.archive_end());
  // Walk forward, cutting only the asked ASN's rows at each day: a few
  // microseconds a day instead of a full build.
  const asn::Asn asked[] = {asn};
  bool prev = false;
  for (util::Day day = lo; day <= hi; ++day) {
    auto past = snapshot_.at(day, asked);
    if (!past.ok()) return past.status();
    const bool now = class_on(*past, asn, day) == category;
    if (now && !prev) {
      span.note("day", day);
      return day;
    }
    prev = now;
  }
  return pl::not_found_error("ASN " + std::to_string(asn.value) +
                             " never flipped to that class in the recorded "
                             "history");
}

// -- serving paths (one per query kind, dispatched from query()) -----------

AsnAnswer QueryService::lookup_impl(const Snapshot& snap, asn::Asn asn) {
  const std::uint64_t seq = next_sequence();
  std::optional<obs::ScopedLatency> timer;
  if constexpr (obs::kEnabled)
    if ((seq & 7) == 0) timer.emplace(point_latency_);  // 1-in-8 sampling
  point_counter_.add(1);
  AsnAnswer answer = answer_for(snap, asn);
  record_event(obs::derive_request_id(obs::kQueryStream, seq, 0),
               obs::EventKind::kLookup, answered(answer.known),
               snap.archive_end());
  return answer;
}

// Both batch paths answer every slot on its own (a repeated ASN is simply
// answered again) and record one event per slot, in index order.

std::vector<AsnAnswer> QueryService::lookup_batch_impl(
    const Snapshot& snap, const std::vector<asn::Asn>& asns) {
  obs::Span span = root_.child("serve.lookup_batch");
  span.note("items", static_cast<std::int64_t>(asns.size()));
  const std::uint64_t seq = next_sequence();
  const obs::ScopedLatency timer(batch_latency_);
  batch_counter_.add(1);
  batch_items_.observe(static_cast<std::int64_t>(asns.size()));

  std::vector<AsnAnswer> answers;
  answers.reserve(asns.size());
  for (std::size_t i = 0; i < asns.size(); ++i) {
    answers.push_back(answer_for(snap, asns[i]));
    record_event(obs::derive_request_id(obs::kQueryStream, seq, i),
                 obs::EventKind::kLookup, answered(answers[i].known),
                 snap.archive_end());
  }
  return answers;
}

AliveAnswer QueryService::alive_impl(const Snapshot& snap, asn::Asn asn,
                                     util::Day day) {
  const std::uint64_t seq = next_sequence();
  std::optional<obs::ScopedLatency> timer;
  if constexpr (obs::kEnabled)
    if ((seq & 7) == 0) timer.emplace(alive_latency_);  // 1-in-8 sampling
  alive_counter_.add(1);
  AliveAnswer answer = alive_for(snap, asn, day);
  record_event(obs::derive_request_id(obs::kQueryStream, seq, 0),
               obs::EventKind::kAlive,
               answered(answer.admin_alive || answer.op_alive), day);
  return answer;
}

std::vector<AliveAnswer> QueryService::alive_batch_impl(
    const Snapshot& snap, const std::vector<asn::Asn>& asns, util::Day day) {
  obs::Span span = root_.child("serve.alive_on_batch");
  span.note("items", static_cast<std::int64_t>(asns.size()));
  const std::uint64_t seq = next_sequence();
  const obs::ScopedLatency timer(alive_latency_);
  alive_counter_.add(1);
  batch_items_.observe(static_cast<std::int64_t>(asns.size()));

  std::vector<AliveAnswer> answers;
  answers.reserve(asns.size());
  for (std::size_t i = 0; i < asns.size(); ++i) {
    answers.push_back(alive_for(snap, asns[i], day));
    record_event(obs::derive_request_id(obs::kQueryStream, seq, i),
                 obs::EventKind::kAlive,
                 answered(answers[i].admin_alive || answers[i].op_alive), day);
  }
  return answers;
}

CensusAnswer QueryService::census_impl(const Snapshot& snap, util::Day day) {
  const std::uint64_t seq = next_sequence();
  const obs::ScopedLatency timer(census_latency_);
  census_counter_.add(1);
  const AliveCensus counts = snap.alive_census(day);
  record_event(obs::derive_request_id(obs::kQueryStream, seq, 0),
               obs::EventKind::kCensus,
               answered(counts.admin_alive + counts.op_alive > 0), day);
  return CensusAnswer{day, counts.admin_alive, counts.op_alive};
}

std::vector<AsnAnswer> QueryService::scan_impl(const Snapshot& snap,
                                               const ScanQuery& query) {
  obs::Span span = root_.child("serve.scan");
  const std::uint64_t seq = next_sequence();
  const obs::ScopedLatency timer(scan_latency_);
  const obs::RequestId rid =
      obs::derive_request_id(obs::kQueryStream, seq, 0);
  scan_counter_.add(1);

  std::vector<AsnAnswer> answers;
  const auto& rows = snap.rows();

  // When a registry or country filter is set, walk that dimension's (much
  // smaller) row-index list instead of the whole table; both lists are
  // ascending so the output order is the same either way.
  const std::vector<std::uint32_t>* candidates = nullptr;
  if (query.registry) candidates = &snap.rows_in_registry(*query.registry);
  if (query.country) {
    const auto& by_country = snap.rows_by_country();
    const auto it = by_country.find(*query.country);
    if (it == by_country.end()) {
      span.note("results", 0);
      record_event(rid, obs::EventKind::kScan, answered(false), 0);
      return answers;
    }
    // Prefer the country list when both filters are set and it is shorter.
    if (candidates == nullptr || it->second.size() < candidates->size())
      candidates = &it->second;
  }

  const auto matches = [&](const AsnRow& row) {
    if (row.asn < query.first || query.last < row.asn) return false;
    if (query.registry) {
      bool in_registry = false;
      for (const AdminLifeRow& life : snap.admin_lives(row))
        if (life.life.registry == *query.registry) {
          in_registry = true;
          break;
        }
      if (!in_registry) return false;
    }
    if (query.country) {
      bool in_country = false;
      for (const AdminLifeRow& life : snap.admin_lives(row))
        if (life.life.country == *query.country) {
          in_country = true;
          break;
        }
      if (!in_country) return false;
    }
    if (query.admin_alive_on &&
        !snap.admin_alive_on(row, *query.admin_alive_on))
      return false;
    if (query.op_alive_on && !snap.op_alive_on(row, *query.op_alive_on))
      return false;
    return true;
  };

  if (candidates != nullptr) {
    for (const std::uint32_t r : *candidates) {
      if (answers.size() >= query.limit) break;
      if (matches(rows[r])) answers.push_back(answer_for(snap, rows[r].asn));
    }
  } else {
    // ASN range prune via binary search over the sorted rows.
    const auto begin = std::lower_bound(
        rows.begin(), rows.end(), query.first,
        [](const AsnRow& row, asn::Asn key) { return row.asn < key; });
    for (auto it = begin; it != rows.end() && !(query.last < it->asn); ++it) {
      if (answers.size() >= query.limit) break;
      if (matches(*it)) answers.push_back(answer_for(snap, it->asn));
    }
  }
  span.note("results", static_cast<std::int64_t>(answers.size()));
  record_event(rid, obs::EventKind::kScan, answered(!answers.empty()),
               static_cast<std::int64_t>(answers.size()));
  return answers;
}

pl::Status QueryService::advance_day(const DayDelta& delta) {
  obs::Span span = root_.child("serve.advance_day");
  span.note("day", delta.day);
  const std::uint64_t seq = next_sequence();
  const obs::ScopedLatency timer(advance_latency_);
  const obs::RequestId rid =
      obs::derive_request_id(obs::kQueryStream, seq, 0);
  AdvanceStats stats;
  const pl::Status status = snapshot_.advance_day(delta, &stats);
  record_event(rid, obs::EventKind::kAdvanceDay,
               obs::query_detail(obs::kCacheNone, 0,
                                 static_cast<std::uint32_t>(status.code()),
                                 status.ok()),
               delta.day);
  if (!status.ok()) {
    metrics_.counter("pl_serve_advance_failures").add(1);
    return status;
  }
  span.note("facts", stats.facts);
  span.note("active", stats.active);
  span.note("touched_admin", stats.touched_admin);
  span.note("touched_op", stats.touched_op);
  metrics_.counter("pl_serve_advance_days").add(1);
  ++version_;
  record_metrics(snapshot_, metrics_);
  return status;
}

obs::Report QueryService::report() const {
  return obs::Report{trace_.tree(), metrics_.snapshot()};
}

}  // namespace pl::serve
