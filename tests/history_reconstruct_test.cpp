// Seeing the past: `HistoryStore::at(D)` and the live working set cut at D
// (`Snapshot::at`) must both be bit-identical to a full rebuild over the
// world truncated at D — rows, derived indexes, AND working set — for
// EVERY day in the recorded range, across seeds, keyframe intervals, and
// transport chaos; the narrowed per-ASN cut must answer exactly as a fresh
// QueryService over that rebuild. Also locks the store's size contract
// (mean compact delta <= 10% of a mean keyframe at the default interval)
// and its random-access cache behavior.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "history/store.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "pipeline/pipeline.hpp"
#include "serve/query.hpp"
#include "serve/snapshot.hpp"

namespace pl::history {
namespace {

pipeline::Config world_config(std::uint64_t seed, double scale,
                              bool chaos = false) {
  pipeline::Config config;
  config.seed = seed;
  config.scale = scale;
  config.inject_chaos = chaos;
  return config;
}

/// Build a store over the trailing `days_back` days of the world.
pl::StatusOr<HistoryStore> trailing_store(const pipeline::Result& world,
                                          int days_back,
                                          HistoryConfig config = {}) {
  const util::Day end = world.truth.archive_end;
  return HistoryStore::build(world.restored, world.op_world.activity,
                             end - days_back, end, config);
}

/// Known ASNs from across the row table plus one the study never saw.
std::vector<asn::Asn> sample_asns(const serve::Snapshot& snap) {
  std::vector<asn::Asn> asns;
  const auto& rows = snap.rows();
  for (std::size_t i = 0; i < rows.size(); i += rows.size() / 9 + 1)
    asns.push_back(rows[i].asn);
  asns.push_back(asn::Asn{4294900000u});  // unknown
  return asns;
}

/// `q` answered by `service`; the query must succeed.
serve::QueryResult answer(serve::QueryService& service, const serve::Query& q) {
  auto result = service.query(q);
  EXPECT_TRUE(result.ok()) << result.status().to_string();
  return result.ok() ? *std::move(result) : serve::QueryResult{};
}

/// Live-cut oracle, run after a sweep has walked `live` to the store's
/// latest day: for every recorded day D, the full cut `live.at(D)` equals
/// rebuild_at(D) deep (working set included), and the narrowed cut behind
/// an as_of lookup/alive batch answers sampled ASNs exactly as a fresh
/// QueryService over rebuild_at(D).
void expect_every_cut_matches_rebuild(const serve::Snapshot& live,
                                      HistoryStore& store,
                                      const pipeline::Result& world) {
  ASSERT_EQ(live.archive_end(), store.latest_day());
  serve::QueryService service(live);
  service.attach_history(&store);
  const std::vector<asn::Asn> asns = sample_asns(live);
  for (util::Day day = store.earliest_day(); day <= store.latest_day();
       ++day) {
    const serve::Snapshot rebuilt = HistoryStore::rebuild_at(
        world.restored, world.op_world.activity, day);
    auto cut = live.at(day);
    ASSERT_TRUE(cut.ok()) << cut.status().to_string();
    ASSERT_TRUE(*cut == rebuilt) << "live cut diverged on day " << day;

    serve::QueryService fresh(rebuilt);
    serve::QueryOptions options;
    options.as_of = day;
    EXPECT_EQ(answer(service, serve::Query::lookup_batch(asns, options)),
              answer(fresh, serve::Query::lookup_batch(asns)))
        << "narrowed lookups diverged on day " << day;
    EXPECT_EQ(
        answer(service, serve::Query::alive_batch(asns, day - 3, options)),
        answer(fresh, serve::Query::alive_batch(asns, day - 3)))
        << "narrowed alive answers diverged on day " << day;
  }
  // The cut explains itself: the first as_of (the earliest day's lookup
  // batch) left a serve.as_of span naming its day, form and size.
  if constexpr (obs::kEnabled) {
    const obs::Report report = service.report();
    const obs::TraceNode* first = report.trace.child("serve.as_of");
    ASSERT_NE(first, nullptr);
    EXPECT_EQ(first->note_value("day"), store.earliest_day());
    EXPECT_EQ(first->note_value("narrowed"), 1);
    EXPECT_GT(first->note_value("asns"), 0);
    EXPECT_LT(first->note_value("asns"),
              static_cast<std::int64_t>(asns.size()));  // one is unknown
    EXPECT_GT(first->note_value("spans"), 0);
  }
}

/// Full-oracle sweep: every recorded day compared against a fresh rebuild
/// of the truncated world. O(days × rebuild) — reserve for the flagship
/// configs; the interval matrix uses the cheaper cursor oracle below.
void expect_every_day_matches_rebuild(HistoryStore& store,
                                      const pipeline::Result& world) {
  for (util::Day day = store.earliest_day(); day <= store.latest_day();
       ++day) {
    auto got = store.at(day);
    ASSERT_TRUE(got.ok()) << got.status().to_string();
    const serve::Snapshot rebuilt = HistoryStore::rebuild_at(
        world.restored, world.op_world.activity, day);
    ASSERT_TRUE(**got == rebuilt) << "reconstruction diverged on day " << day;
  }
}

/// Cursor oracle: one snapshot advanced day by day (itself rebuild-equal,
/// locked by serve_advance_test) compared against every at(); the walked
/// cursor is then cut back at every recorded day. Cheap enough for the
/// seeds × intervals × chaos matrix.
void expect_every_day_matches_cursor(HistoryStore& store,
                                     const pipeline::Result& world) {
  serve::Snapshot cursor = HistoryStore::rebuild_at(
      world.restored, world.op_world.activity, store.earliest_day());
  for (util::Day day = store.earliest_day(); day <= store.latest_day();
       ++day) {
    if (day > store.earliest_day()) {
      const serve::DayDelta delta = HistoryStore::slice_day(
          world.restored, world.op_world.activity, day);
      ASSERT_TRUE(cursor.advance_day(delta).ok());
    }
    auto got = store.at(day);
    ASSERT_TRUE(got.ok()) << got.status().to_string();
    ASSERT_TRUE(**got == cursor) << "reconstruction diverged on day " << day;
  }
  expect_every_cut_matches_rebuild(cursor, store, world);
}

TEST(HistoryReconstruct, EveryDayBitIdenticalToRebuild) {
  const pipeline::Result world =
      pipeline::run_simulated(world_config(99, 0.02));
  auto store = trailing_store(world, 35);
  ASSERT_TRUE(store.ok()) << store.status().to_string();
  expect_every_day_matches_rebuild(*store, world);

  // The size contract: a compact delta must average <= 10% of a keyframe
  // at the default interval — otherwise delta compression isn't buying
  // anything over storing every day whole.
  const HistoryStats stats = store->stats();
  EXPECT_EQ(stats.deltas, 35);
  EXPECT_GT(stats.keyframes, 1);  // base + every 16th day
  EXPECT_GT(stats.delta_bytes, 0);
  EXPECT_LE(stats.mean_delta_bytes(), 0.10 * stats.mean_keyframe_bytes())
      << "mean delta " << stats.mean_delta_bytes() << "B vs mean keyframe "
      << stats.mean_keyframe_bytes() << "B";
}

TEST(HistoryReconstruct, EveryDayBitIdenticalUnderChaos) {
  // Transport chaos perturbs the restored archive (quarantined days, gap
  // fills); whatever the restorer produced is still history, recorded and
  // reconstructed exactly.
  const pipeline::Result world =
      pipeline::run_simulated(world_config(99, 0.02, /*chaos=*/true));
  auto store = trailing_store(world, 35);
  ASSERT_TRUE(store.ok()) << store.status().to_string();
  expect_every_day_matches_rebuild(*store, world);
}

TEST(HistoryReconstruct, SeedAndIntervalMatrix) {
  for (const std::uint64_t seed : {99ull, 7ull})
    for (const bool chaos : {false, true}) {
      const pipeline::Result world =
          pipeline::run_simulated(world_config(seed, 0.01, chaos));
      for (const int interval : {1, 5, 16}) {
        SCOPED_TRACE("seed " + std::to_string(seed) + " chaos " +
                     std::to_string(chaos) + " interval " +
                     std::to_string(interval));
        auto store = trailing_store(world, 20, HistoryConfig{interval});
        ASSERT_TRUE(store.ok()) << store.status().to_string();
        expect_every_day_matches_cursor(*store, world);
        if (interval == 1) {
          EXPECT_EQ(store->stats().keyframes, 21);  // every day, base included
        }
      }
    }
}

TEST(HistoryReconstruct, RandomAccessOrderIsIrrelevant) {
  // The store has ONE cache slot; jumping backwards forces a keyframe
  // re-decode, jumping forwards rolls in place. Every order must produce
  // the same bits.
  const pipeline::Result world =
      pipeline::run_simulated(world_config(99, 0.01));
  auto store = trailing_store(world, 20);
  ASSERT_TRUE(store.ok()) << store.status().to_string();
  const util::Day base = store->earliest_day();
  const util::Day end = store->latest_day();

  for (const util::Day day : {end, base, base + 10, end - 1, base + 3}) {
    auto got = store->at(day);
    ASSERT_TRUE(got.ok()) << got.status().to_string();
    const serve::Snapshot rebuilt = HistoryStore::rebuild_at(
        world.restored, world.op_world.activity, day);
    EXPECT_TRUE(**got == rebuilt) << "diverged at random-access day " << day;
  }
  const HistoryStats stats = store->stats();
  EXPECT_EQ(stats.reconstructs, 5);
  EXPECT_GT(stats.delta_folds, 0);
}

TEST(HistoryReconstruct, ErrorsArePreciseAndTyped) {
  HistoryStore empty_store;
  EXPECT_EQ(empty_store.at(100).status().code(),
            pl::StatusCode::kFailedPrecondition);
  EXPECT_TRUE(empty_store.empty());

  const pipeline::Result world =
      pipeline::run_simulated(world_config(99, 0.01));
  auto store = trailing_store(world, 10);
  ASSERT_TRUE(store.ok()) << store.status().to_string();
  EXPECT_EQ(store->at(store->earliest_day() - 1).status().code(),
            pl::StatusCode::kNotFound);
  EXPECT_EQ(store->at(store->latest_day() + 1).status().code(),
            pl::StatusCode::kNotFound);

  // Out-of-sequence appends are refused before any state changes.
  const serve::DayDelta wrong_day = HistoryStore::slice_day(
      world.restored, world.op_world.activity, store->latest_day() + 5);
  auto current = store->at(store->latest_day());
  ASSERT_TRUE(current.ok());
  EXPECT_EQ(store->append_day(wrong_day, **current).code(),
            pl::StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace pl::history
