#include "serve/query.hpp"

#include <algorithm>
#include <utility>

#include "exec/pool.hpp"

namespace pl::serve {

namespace {

/// Batch-size histogram edges: singles, small scripts, analysis sweeps.
std::vector<std::int64_t> batch_bounds() { return {1, 8, 64, 512, 4096}; }

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

QueryService::QueryService(Snapshot snapshot, QueryConfig config,
                           obs::FlightRecorder* flight)
    : snapshot_(std::move(snapshot)),
      config_(config),
      root_(trace_.root("serve")),
      owned_flight_(flight == nullptr
                        ? std::make_unique<obs::FlightRecorder>()
                        : nullptr),
      flight_(flight == nullptr ? owned_flight_.get() : flight),
      lookup_cache_(config.enable_cache ? config.cache_capacity : 0),
      alive_cache_(config.enable_cache ? config.cache_capacity : 0),
      hits_(metrics_.counter("pl_serve_cache_hits")),
      misses_(metrics_.counter("pl_serve_cache_misses")),
      evictions_(metrics_.counter("pl_serve_cache_evictions")),
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
// records its own span / flight event / metrics, and snapshot_as_of counts
// the history routing — query() itself adds no unattributed work.
pl::StatusOr<QueryResult> QueryService::query(const Query& q) {
  auto snap = snapshot_as_of(q.options.as_of);
  if (!snap.ok()) return snap.status();
  // The answer caches are keyed by ASN against the LIVE snapshot; a past
  // reconstruction must never probe or fill them.
  const bool live = *snap == &snapshot_;
  const bool use_cache = config_.enable_cache && q.options.use_cache && live;

  const QuerySubject& subject = q.subject;
  const bool point =
      subject.kind == QueryKind::kLookup || subject.kind == QueryKind::kAlive;
  if (point && subject.asns.size() != 1)
    return pl::invalid_argument_error(
        "point query subjects carry exactly one ASN; use the batch kind");

  QueryResult result;
  switch (subject.kind) {
    case QueryKind::kLookup:
      result.lookups.push_back(
          lookup_impl(**snap, subject.asns.front(), use_cache));
      break;
    case QueryKind::kLookupBatch:
      result.lookups = lookup_batch_impl(**snap, subject.asns, use_cache);
      break;
    case QueryKind::kAlive:
      result.alive.push_back(
          alive_impl(**snap, subject.asns.front(), subject.day, use_cache));
      break;
    case QueryKind::kAliveBatch:
      result.alive =
          alive_batch_impl(**snap, subject.asns, subject.day, use_cache);
      break;
    case QueryKind::kCensus:
      result.census = census_impl(**snap, subject.day);
      break;
    case QueryKind::kScan:
      result.lookups = scan_impl(**snap, subject.scan);
      break;
  }
  return result;
}

pl::StatusOr<const Snapshot*> QueryService::snapshot_as_of(util::Day day) {
  if (day == 0 || day == snapshot_.archive_end()) return &snapshot_;
  if (day > snapshot_.archive_end())
    return pl::invalid_argument_error(
        "as_of day " + std::to_string(day) +
        " is beyond the served archive end " +
        std::to_string(snapshot_.archive_end()));
  if (history_ == nullptr)
    return pl::failed_precondition_error(
        "as_of queries need a history store; call attach_history() first");
  metrics_.counter("pl_serve_queries{kind=\"as_of\"}").add(1);
  return history_->at(day);
}

// -- temporal queries ------------------------------------------------------

pl::StatusOr<DriftAnswer> QueryService::drift(util::Day from, util::Day to) {
  obs::Span span = root_.child("serve.drift");
  span.note("from", from);
  span.note("to", to);
  metrics_.counter("pl_serve_queries{kind=\"drift\"}").add(1);
  DriftAnswer answer;
  answer.from = from;
  answer.to = to;
  // Tally `from` before resolving `to`: both may share the history store's
  // single reconstruction slot, so the first pointer dies at the second at().
  auto then = snapshot_as_of(from);
  if (!then.ok()) return then.status();
  answer.from_counts = tally_categories(**then);
  auto now = snapshot_as_of(to);
  if (!now.ok()) return now.status();
  answer.to_counts = tally_categories(**now);
  return answer;
}

pl::StatusOr<util::Day> QueryService::first_flip(asn::Asn asn,
                                                 joint::Category category) {
  obs::Span span = root_.child("serve.first_flip");
  span.note("asn", asn.value);
  metrics_.counter("pl_serve_queries{kind=\"first_flip\"}").add(1);
  if (history_ == nullptr)
    return pl::failed_precondition_error(
        "first_flip needs a history store; call attach_history() first");
  const util::Day lo = history_->earliest_day();
  const util::Day hi = std::min(history_->latest_day(),
                                snapshot_.archive_end());
  // Walk forward: consecutive at() calls are cheap (each rolls the store's
  // cached snapshot one delta forward in place).
  bool prev = false;
  for (util::Day day = lo; day <= hi; ++day) {
    auto past = snapshot_as_of(day);
    if (!past.ok()) return past.status();
    const bool now = class_on(**past, asn, day) == category;
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

AsnAnswer QueryService::lookup_impl(const Snapshot& snap, asn::Asn asn,
                                    bool use_cache) {
  const std::uint64_t seq = next_sequence();
  std::optional<obs::ScopedLatency> timer;
  if constexpr (obs::kEnabled)
    if ((seq & 7) == 0) timer.emplace(point_latency_);  // 1-in-8 sampling
  metrics_.counter("pl_serve_queries{kind=\"point\"}").add(1);
  const obs::RequestId rid =
      obs::derive_request_id(obs::kQueryStream, seq, 0);
  const auto shard =
      static_cast<std::uint32_t>(lookup_cache_.shard_index(asn.value));
  if (use_cache) {
    if (std::optional<AsnAnswer> cached = lookup_cache_.get(asn.value)) {
      hits_.add(1);
      record_event(rid, obs::EventKind::kLookup,
                   obs::query_detail(obs::kCacheHit, shard, 0, cached->known),
                   snap.archive_end());
      return *cached;
    }
    misses_.add(1);
  }
  AsnAnswer answer = answer_for(snap, asn);
  if (use_cache)
    evictions_.add(static_cast<std::int64_t>(
        lookup_cache_.put(asn.value, answer)));
  record_event(rid, obs::EventKind::kLookup,
               obs::query_detail(
                   use_cache ? obs::kCacheMiss : obs::kCacheNone,
                   shard, 0, answer.known),
               snap.archive_end());
  return answer;
}

std::vector<AsnAnswer> QueryService::lookup_batch_impl(
    const Snapshot& snap, const std::vector<asn::Asn>& asns, bool use_cache) {
  obs::Span span = root_.child("serve.lookup_batch");
  span.note("items", static_cast<std::int64_t>(asns.size()));
  const std::uint64_t seq = next_sequence();
  const obs::ScopedLatency timer(batch_latency_);
  metrics_.counter("pl_serve_queries{kind=\"batch\"}").add(1);
  metrics_.histogram("pl_serve_batch_items", batch_bounds())
      .observe(static_cast<std::int64_t>(asns.size()));

  std::vector<AsnAnswer> answers(asns.size());

  // Probe phase (serial): cache hits fill immediately; misses are grouped
  // by ASN so duplicate keys in one batch compute once. Hit events are
  // recorded here; miss events in the (also serial) merge phase below.
  std::map<std::uint32_t, std::vector<std::size_t>> pending;
  for (std::size_t i = 0; i < asns.size(); ++i) {
    if (use_cache) {
      if (std::optional<AsnAnswer> cached = lookup_cache_.get(asns[i].value)) {
        hits_.add(1);
        answers[i] = *cached;
        record_event(
            obs::derive_request_id(obs::kQueryStream, seq, i),
            obs::EventKind::kLookup,
            obs::query_detail(
                obs::kCacheHit,
                static_cast<std::uint32_t>(
                    lookup_cache_.shard_index(asns[i].value)),
                0, cached->known),
            snap.archive_end());
        continue;
      }
      misses_.add(1);
    }
    pending[asns[i].value].push_back(i);
  }
  span.note("misses", static_cast<std::int64_t>(pending.size()));

  // Miss phase: compute per-key answers into slots in parallel, then merge
  // serially in ascending key order — deterministic across thread counts.
  std::vector<std::pair<std::uint32_t, const std::vector<std::size_t>*>> keys;
  keys.reserve(pending.size());
  for (const auto& [key, indices] : pending) keys.emplace_back(key, &indices);
  std::vector<AsnAnswer> computed(keys.size());
  exec::parallel_for(
      keys.size(),
      [&](std::size_t begin, std::size_t end) {
        for (std::size_t k = begin; k < end; ++k)
          computed[k] = answer_for(snap, asn::Asn{keys[k].first});
      },
      /*grain=*/32);
  const std::uint32_t miss_bits =
      use_cache ? obs::kCacheMiss : obs::kCacheNone;
  for (std::size_t k = 0; k < keys.size(); ++k) {
    const auto shard = static_cast<std::uint32_t>(
        lookup_cache_.shard_index(keys[k].first));
    for (const std::size_t i : *keys[k].second) {
      answers[i] = computed[k];
      record_event(obs::derive_request_id(obs::kQueryStream, seq, i),
                   obs::EventKind::kLookup,
                   obs::query_detail(miss_bits, shard, 0, computed[k].known),
                   snap.archive_end());
    }
    if (use_cache)
      evictions_.add(static_cast<std::int64_t>(
          lookup_cache_.put(keys[k].first, computed[k])));
  }
  return answers;
}

AliveAnswer QueryService::alive_impl(const Snapshot& snap, asn::Asn asn,
                                     util::Day day, bool use_cache) {
  const std::uint64_t seq = next_sequence();
  std::optional<obs::ScopedLatency> timer;
  if constexpr (obs::kEnabled)
    if ((seq & 7) == 0) timer.emplace(alive_latency_);  // 1-in-8 sampling
  metrics_.counter("pl_serve_queries{kind=\"alive\"}").add(1);
  const std::uint64_t key = alive_key(asn, day);
  const obs::RequestId rid =
      obs::derive_request_id(obs::kQueryStream, seq, 0);
  const auto shard =
      static_cast<std::uint32_t>(alive_cache_.shard_index(key));
  if (use_cache) {
    if (std::optional<AliveAnswer> cached = alive_cache_.get(key)) {
      hits_.add(1);
      record_event(rid, obs::EventKind::kAlive,
                   obs::query_detail(obs::kCacheHit, shard, 0,
                                     cached->admin_alive || cached->op_alive),
                   day);
      return *cached;
    }
    misses_.add(1);
  }
  AliveAnswer answer = alive_for(snap, asn, day);
  if (use_cache)
    evictions_.add(static_cast<std::int64_t>(alive_cache_.put(key, answer)));
  record_event(rid, obs::EventKind::kAlive,
               obs::query_detail(
                   use_cache ? obs::kCacheMiss : obs::kCacheNone,
                   shard, 0, answer.admin_alive || answer.op_alive),
               day);
  return answer;
}

std::vector<AliveAnswer> QueryService::alive_batch_impl(
    const Snapshot& snap, const std::vector<asn::Asn>& asns, util::Day day,
    bool use_cache) {
  obs::Span span = root_.child("serve.alive_on_batch");
  span.note("items", static_cast<std::int64_t>(asns.size()));
  const std::uint64_t seq = next_sequence();
  const obs::ScopedLatency timer(batch_latency_);
  metrics_.counter("pl_serve_queries{kind=\"alive\"}").add(1);
  metrics_.histogram("pl_serve_batch_items", batch_bounds())
      .observe(static_cast<std::int64_t>(asns.size()));

  std::vector<AliveAnswer> answers(asns.size());
  std::map<std::uint32_t, std::vector<std::size_t>> pending;
  for (std::size_t i = 0; i < asns.size(); ++i) {
    const std::uint64_t key = alive_key(asns[i], day);
    if (use_cache) {
      if (std::optional<AliveAnswer> cached = alive_cache_.get(key)) {
        hits_.add(1);
        answers[i] = *cached;
        record_event(
            obs::derive_request_id(obs::kQueryStream, seq, i),
            obs::EventKind::kAlive,
            obs::query_detail(
                obs::kCacheHit,
                static_cast<std::uint32_t>(alive_cache_.shard_index(key)),
                0, cached->admin_alive || cached->op_alive),
            day);
        continue;
      }
      misses_.add(1);
    }
    pending[asns[i].value].push_back(i);
  }
  span.note("misses", static_cast<std::int64_t>(pending.size()));

  std::vector<std::pair<std::uint32_t, const std::vector<std::size_t>*>> keys;
  keys.reserve(pending.size());
  for (const auto& [key, indices] : pending) keys.emplace_back(key, &indices);
  std::vector<AliveAnswer> computed(keys.size());
  exec::parallel_for(
      keys.size(),
      [&](std::size_t begin, std::size_t end) {
        for (std::size_t k = begin; k < end; ++k)
          computed[k] = alive_for(snap, asn::Asn{keys[k].first}, day);
      },
      /*grain=*/32);
  const std::uint32_t miss_bits =
      use_cache ? obs::kCacheMiss : obs::kCacheNone;
  for (std::size_t k = 0; k < keys.size(); ++k) {
    const std::uint64_t key = alive_key(asn::Asn{keys[k].first}, day);
    const auto shard =
        static_cast<std::uint32_t>(alive_cache_.shard_index(key));
    for (const std::size_t i : *keys[k].second) {
      answers[i] = computed[k];
      record_event(obs::derive_request_id(obs::kQueryStream, seq, i),
                   obs::EventKind::kAlive,
                   obs::query_detail(
                       miss_bits, shard, 0,
                       computed[k].admin_alive || computed[k].op_alive),
                   day);
    }
    if (use_cache)
      evictions_.add(
          static_cast<std::int64_t>(alive_cache_.put(key, computed[k])));
  }
  return answers;
}

CensusAnswer QueryService::census_impl(const Snapshot& snap, util::Day day) {
  const std::uint64_t seq = next_sequence();
  const obs::ScopedLatency timer(census_latency_);
  metrics_.counter("pl_serve_queries{kind=\"census\"}").add(1);
  const AliveCensus counts = snap.alive_census(day);
  record_event(obs::derive_request_id(obs::kQueryStream, seq, 0),
               obs::EventKind::kCensus,
               obs::query_detail(obs::kCacheNone, 0, 0,
                                 counts.admin_alive + counts.op_alive > 0),
               day);
  return CensusAnswer{day, counts.admin_alive, counts.op_alive};
}

std::vector<AsnAnswer> QueryService::scan_impl(const Snapshot& snap,
                                               const ScanQuery& query) {
  obs::Span span = root_.child("serve.scan");
  const std::uint64_t seq = next_sequence();
  const obs::ScopedLatency timer(scan_latency_);
  const obs::RequestId rid =
      obs::derive_request_id(obs::kQueryStream, seq, 0);
  metrics_.counter("pl_serve_queries{kind=\"scan\"}").add(1);

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
      record_event(rid, obs::EventKind::kScan,
                   obs::query_detail(obs::kCacheNone, 0, 0, false), 0);
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
  record_event(rid, obs::EventKind::kScan,
               obs::query_detail(obs::kCacheNone, 0, 0, !answers.empty()),
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
  span.note("reclassified", stats.reclassified);
  metrics_.counter("pl_serve_advance_days").add(1);
  lookup_cache_.clear();
  alive_cache_.clear();
  ++version_;
  record_metrics(snapshot_, metrics_);
  return status;
}

obs::Report QueryService::report() const {
  return obs::Report{trace_.tree(), metrics_.snapshot()};
}

}  // namespace pl::serve
