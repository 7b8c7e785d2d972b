// The time-travel query surface: `Query{subject, options}` with
// `QueryOptions::as_of` must answer exactly what a fresh QueryService over
// the rebuilt day-D world would answer, point and batch kinds must agree
// with each other, the temporal queries (drift, first_flip) must match
// brute force over reconstructions, and a DurableService must keep its
// attached history in lockstep — including across a close/reopen with WAL
// replay.
#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "history/store.hpp"
#include "pipeline/pipeline.hpp"
#include "serve/durable.hpp"
#include "serve/query.hpp"
#include "serve/snapshot.hpp"

namespace pl::history {
namespace {

constexpr int kDaysBack = 25;

struct World {
  pipeline::Result result;
  HistoryStore store;
  util::Day base = 0;
  util::Day end = 0;
};

World* world_ = nullptr;

World& world() {
  if (world_ == nullptr) {
    pipeline::Config config;
    config.seed = 99;
    config.scale = 0.01;
    world_ = new World{pipeline::run_simulated(config), HistoryStore{}, 0, 0};
    world_->end = world_->result.truth.archive_end;
    world_->base = world_->end - kDaysBack;
    auto store = HistoryStore::build(world_->result.restored,
                                     world_->result.op_world.activity,
                                     world_->base, world_->end);
    EXPECT_TRUE(store.ok()) << store.status().to_string();
    world_->store = std::move(*store);
  }
  return *world_;
}

/// The end-day snapshot a live service serves from. QueryService is
/// pinned (non-movable), so each test constructs its own in place and
/// attaches the shared store — the shape a deployment gets from
/// DurableService.
serve::Snapshot live_snapshot() {
  World& w = world();
  return serve::Snapshot::build(w.result.restored, w.result.op_world.activity,
                                w.end);
}

/// A spread of interesting ASNs: known ones from across the row table plus
/// one the study never saw.
std::vector<asn::Asn> sample_asns(const serve::Snapshot& snap) {
  std::vector<asn::Asn> asns;
  const auto& rows = snap.rows();
  for (std::size_t i = 0; i < rows.size(); i += rows.size() / 9 + 1)
    asns.push_back(rows[i].asn);
  asns.push_back(asn::Asn{4294900000u});  // unknown
  return asns;
}

serve::QueryOptions as_of(util::Day day) {
  serve::QueryOptions options;
  options.as_of = day;
  return options;
}

/// `q` answered with its own options; the query must succeed.
serve::QueryResult answer(serve::QueryService& service, const serve::Query& q) {
  auto result = service.query(q);
  EXPECT_TRUE(result.ok()) << result.status().to_string();
  return result.ok() ? *std::move(result) : serve::QueryResult{};
}

/// Replicates query.cpp's class_on: the admin category in force on `day`.
std::optional<joint::Category> class_on(const serve::Snapshot& snap,
                                        asn::Asn asn, util::Day day) {
  const serve::AsnRow* row = snap.find(asn);
  if (row == nullptr) return std::nullopt;
  for (const serve::AdminLifeRow& life : snap.admin_lives(*row))
    if (life.life.days.first <= day && day <= life.life.days.last)
      return life.category;
  return std::nullopt;
}

std::array<std::int64_t, serve::kTaxonomyCategories> tally(
    const serve::Snapshot& snap) {
  std::array<std::int64_t, serve::kTaxonomyCategories> counts{};
  for (const serve::AsnRow& row : snap.rows())
    for (const serve::AdminLifeRow& life : snap.admin_lives(row))
      ++counts[static_cast<std::size_t>(life.category)];
  return counts;
}

TEST(HistoryQuery, AsOfMatchesFreshServiceOverRebuild) {
  World& w = world();
  serve::QueryService live(live_snapshot());
  live.attach_history(&w.store);
  const std::vector<asn::Asn> asns = sample_asns(live.snapshot());

  for (const util::Day day : {w.base, static_cast<util::Day>(w.base + 11),
                              static_cast<util::Day>(w.end - 1)}) {
    SCOPED_TRACE("as_of day " + std::to_string(day));
    // The oracle: a service whose LIVE world is the rebuilt day-D world.
    serve::QueryService fresh(HistoryStore::rebuild_at(
        w.result.restored, w.result.op_world.activity, day));

    for (const asn::Asn asn : asns) {
      auto lookup = live.query(serve::Query::lookup(asn, as_of(day)));
      ASSERT_TRUE(lookup.ok()) << lookup.status().to_string();
      ASSERT_EQ(lookup->lookups.size(), 1u);
      EXPECT_EQ(*lookup, answer(fresh, serve::Query::lookup(asn)));

      auto alive = live.query(
          serve::Query::alive(asn, day - 3, as_of(day)));
      ASSERT_TRUE(alive.ok()) << alive.status().to_string();
      ASSERT_EQ(alive->alive.size(), 1u);
      EXPECT_EQ(*alive, answer(fresh, serve::Query::alive(asn, day - 3)));
    }

    auto batch = live.query(serve::Query::lookup_batch(asns, as_of(day)));
    ASSERT_TRUE(batch.ok()) << batch.status().to_string();
    EXPECT_EQ(*batch, answer(fresh, serve::Query::lookup_batch(asns)));

    auto census = live.query(serve::Query::census(day, as_of(day)));
    ASSERT_TRUE(census.ok()) << census.status().to_string();
    ASSERT_TRUE(census->census.has_value());
    EXPECT_EQ(*census, answer(fresh, serve::Query::census(day)));

    serve::ScanQuery filter;
    filter.admin_alive_on = day;
    filter.limit = 64;
    auto scan = live.query(serve::Query::scan(filter, as_of(day)));
    ASSERT_TRUE(scan.ok()) << scan.status().to_string();
    EXPECT_EQ(*scan, answer(fresh, serve::Query::scan(filter)));
  }
}

TEST(HistoryQuery, PointAndBatchKindsAgree) {
  serve::QueryService service(live_snapshot());
  service.attach_history(&world().store);
  const std::vector<asn::Asn> asns = sample_asns(service.snapshot());
  const util::Day end = service.snapshot().archive_end();

  const serve::QueryResult batch =
      answer(service, serve::Query::lookup_batch(asns));
  const serve::QueryResult alive_batch =
      answer(service, serve::Query::alive_batch(asns, end - 7));
  ASSERT_EQ(batch.lookups.size(), asns.size());
  ASSERT_EQ(alive_batch.alive.size(), asns.size());
  for (std::size_t i = 0; i < asns.size(); ++i) {
    const serve::QueryResult point =
        answer(service, serve::Query::lookup(asns[i]));
    ASSERT_EQ(point.lookups.size(), 1u);
    EXPECT_EQ(point.lookups[0], batch.lookups[i]);
    const serve::QueryResult alive =
        answer(service, serve::Query::alive(asns[i], end - 7));
    ASSERT_EQ(alive.alive.size(), 1u);
    EXPECT_EQ(alive.alive[0], alive_batch.alive[i]);
  }

  // A scan restricted to one ASN answers exactly the point lookup.
  for (const asn::Asn asn : asns) {
    serve::ScanQuery filter;
    filter.first = asn;
    filter.last = asn;
    const serve::QueryResult scan = answer(service, serve::Query::scan(filter));
    const serve::QueryResult point = answer(service, serve::Query::lookup(asn));
    ASSERT_EQ(point.lookups.size(), 1u);
    if (point.lookups[0].known) {
      EXPECT_EQ(scan.lookups, point.lookups);
    } else {
      EXPECT_TRUE(scan.lookups.empty());
    }
  }
}

TEST(HistoryQuery, CacheOptInvariance) {
  serve::QueryService service(live_snapshot());
  service.attach_history(&world().store);
  const std::vector<asn::Asn> asns = sample_asns(service.snapshot());
  serve::QueryOptions no_cache;
  no_cache.use_cache = false;
  for (const asn::Asn asn : asns) {
    auto cached = service.query(serve::Query::lookup(asn));
    auto fresh = service.query(serve::Query::lookup(asn, no_cache));
    ASSERT_TRUE(cached.ok());
    ASSERT_TRUE(fresh.ok());
    EXPECT_EQ(*cached, *fresh);
  }
}

TEST(HistoryQuery, AsOfArchiveEndServesLive) {
  World& w = world();
  serve::QueryService service(live_snapshot());
  service.attach_history(&world().store);
  const asn::Asn asn = sample_asns(service.snapshot()).front();
  auto live = service.query(serve::Query::lookup(asn));
  auto pinned = service.query(serve::Query::lookup(asn, as_of(w.end)));
  ASSERT_TRUE(live.ok());
  ASSERT_TRUE(pinned.ok());
  EXPECT_EQ(*live, *pinned);
}

TEST(HistoryQuery, ErrorsArePreciseAndTyped) {
  World& w = world();
  const asn::Asn asn = asn::Asn{64512};

  // No history attached: any genuine as_of is a precondition failure.
  serve::QueryService bare(serve::Snapshot::build(
      w.result.restored, w.result.op_world.activity, w.end));
  EXPECT_EQ(bare.query(serve::Query::lookup(asn, as_of(w.end - 3)))
                .status()
                .code(),
            pl::StatusCode::kFailedPrecondition);
  EXPECT_EQ(bare.first_flip(asn, joint::Category::kCompleteOverlap)
                .status()
                .code(),
            pl::StatusCode::kFailedPrecondition);

  serve::QueryService service(live_snapshot());
  service.attach_history(&world().store);
  // The future is not queryable.
  EXPECT_EQ(service.query(serve::Query::lookup(asn, as_of(w.end + 1)))
                .status()
                .code(),
            pl::StatusCode::kInvalidArgument);
  // Before the recorded range: the history store reports not-found.
  EXPECT_EQ(service.query(serve::Query::lookup(asn, as_of(w.base - 1)))
                .status()
                .code(),
            pl::StatusCode::kNotFound);
  // Malformed subject: point kinds take exactly one ASN.
  serve::Query two_asns;
  two_asns.subject.kind = serve::QueryKind::kLookup;
  two_asns.subject.asns = {asn, asn::Asn{42}};
  EXPECT_EQ(service.query(two_asns).status().code(),
            pl::StatusCode::kInvalidArgument);
}

TEST(HistoryQuery, DriftMatchesBruteForce) {
  World& w = world();
  serve::QueryService service(live_snapshot());
  service.attach_history(&world().store);
  const util::Day from = w.base + 2;
  const util::Day to = w.end - 1;

  auto drift = service.drift(from, to);
  ASSERT_TRUE(drift.ok()) << drift.status().to_string();
  EXPECT_EQ(drift->from, from);
  EXPECT_EQ(drift->to, to);
  EXPECT_EQ(drift->from_counts,
            tally(HistoryStore::rebuild_at(w.result.restored,
                                           w.result.op_world.activity, from)));
  EXPECT_EQ(drift->to_counts,
            tally(HistoryStore::rebuild_at(w.result.restored,
                                           w.result.op_world.activity, to)));
  // The world only grows: total lives never shrink day over day.
  std::int64_t from_total = 0, to_total = 0;
  for (std::size_t c = 0; c < serve::kTaxonomyCategories; ++c) {
    from_total += drift->from_counts[c];
    to_total += drift->to_counts[c];
  }
  EXPECT_LE(from_total, to_total);
}

TEST(HistoryQuery, FirstFlipMatchesBruteForce) {
  World& w = world();
  serve::QueryService service(live_snapshot());
  service.attach_history(&world().store);

  // Brute force once over every day: for each sampled ASN and category,
  // the first day the classification becomes that category with the prior
  // day (within the range) not.
  const std::vector<asn::Asn> asns = sample_asns(service.snapshot());
  struct Key {
    asn::Asn asn;
    joint::Category category;
  };
  std::vector<Key> keys;
  for (const asn::Asn asn : asns)
    for (std::size_t c = 0; c < serve::kTaxonomyCategories; ++c)
      keys.push_back({asn, static_cast<joint::Category>(c)});

  std::vector<util::Day> expected(keys.size(), 0);
  std::vector<bool> prev(keys.size(), false);
  for (util::Day day = w.base; day <= w.end; ++day) {
    auto snap = w.store.at(day);
    ASSERT_TRUE(snap.ok()) << snap.status().to_string();
    for (std::size_t k = 0; k < keys.size(); ++k) {
      const bool now =
          class_on(**snap, keys[k].asn, day) == keys[k].category;
      if (now && !prev[k] && expected[k] == 0) expected[k] = day;
      prev[k] = now;
    }
  }

  int found = 0;
  for (std::size_t k = 0; k < keys.size(); ++k) {
    auto got = service.first_flip(keys[k].asn, keys[k].category);
    if (expected[k] == 0) {
      EXPECT_EQ(got.status().code(), pl::StatusCode::kNotFound);
    } else {
      ASSERT_TRUE(got.ok()) << got.status().to_string();
      EXPECT_EQ(*got, expected[k]);
      ++found;
    }
  }
  // The sample must actually exercise the found path.
  EXPECT_GT(found, 0);
}

TEST(HistoryQuery, DurableServiceKeepsHistoryInLockstep) {
  World& w = world();
  const std::string dir = testing::TempDir() + "history_durable";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const util::Day start = w.end - 12;

  HistoryStore store;
  serve::DurableConfig config;
  config.dir = dir;
  config.history = &store;
  {
    auto service = serve::DurableService::open(
        HistoryStore::rebuild_at(w.result.restored,
                                 w.result.op_world.activity, start),
        config);
    ASSERT_TRUE(service.ok()) << service.status().to_string();
    EXPECT_EQ(store.earliest_day(), start);
    EXPECT_EQ(store.latest_day(), start);
    EXPECT_EQ(service->queries().history(), &store);

    for (util::Day day = start + 1; day <= w.end - 6; ++day) {
      const serve::DayDelta delta = HistoryStore::slice_day(
          w.result.restored, w.result.op_world.activity, day);
      ASSERT_TRUE(service->advance_day(delta).ok());
      EXPECT_EQ(store.latest_day(), day);
    }
    EXPECT_FALSE(service->health().degraded);

    // as_of routed straight through the durable wrapper's query service.
    const util::Day past = start + 3;
    auto census =
        service->queries().query(serve::Query::census(past, as_of(past)));
    ASSERT_TRUE(census.ok()) << census.status().to_string();
    serve::QueryService oracle(HistoryStore::rebuild_at(
        w.result.restored, w.result.op_world.activity, past));
    EXPECT_EQ(*census, answer(oracle, serve::Query::census(past)));
  }

  // Reopen with a FRESH store: open() must reseed it from the recovered
  // state (snapshot + WAL replay), and further advances keep appending.
  HistoryStore fresh;
  config.history = &fresh;
  auto reopened = serve::DurableService::open(
      HistoryStore::rebuild_at(w.result.restored, w.result.op_world.activity,
                               start),
      config);
  ASSERT_TRUE(reopened.ok()) << reopened.status().to_string();
  EXPECT_EQ(reopened->archive_end(), w.end - 6);
  EXPECT_FALSE(fresh.empty());
  EXPECT_EQ(fresh.latest_day(), w.end - 6);

  for (util::Day day = w.end - 5; day <= w.end; ++day) {
    const serve::DayDelta delta = HistoryStore::slice_day(
        w.result.restored, w.result.op_world.activity, day);
    ASSERT_TRUE(reopened->advance_day(delta).ok());
  }
  EXPECT_EQ(fresh.latest_day(), w.end);

  // The reseeded store reconstructs exactly like a from-scratch rebuild.
  auto got = fresh.at(w.end - 3);
  ASSERT_TRUE(got.ok()) << got.status().to_string();
  EXPECT_TRUE(**got == HistoryStore::rebuild_at(w.result.restored,
                                                w.result.op_world.activity,
                                                w.end - 3));
}

}  // namespace
}  // namespace pl::history
