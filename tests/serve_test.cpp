// The serving layer: Status plumbing, dataset round-trips, snapshot
// queries, the QueryService cache ledger, and the pipeline post_stage hook.
#include <gtest/gtest.h>

#include <sstream>

#include "history/store.hpp"
#include "lifetimes/dataset_io.hpp"
#include "obs/export.hpp"
#include "pipeline/pipeline.hpp"
#include "serve/io.hpp"
#include "serve/query.hpp"
#include "serve/serving.hpp"
#include "serve/snapshot.hpp"
#include "util/status.hpp"

namespace pl::serve {
namespace {

pipeline::Result small_pipeline() {
  pipeline::Config config;
  config.seed = 99;
  config.scale = 0.02;
  return pipeline::run_simulated(config);
}

Snapshot small_snapshot(const pipeline::Result& result) {
  return Snapshot::build(result.restored, result.op_world.activity,
                         result.truth.archive_end);
}

/// `q` answered by `service`; the query must succeed.
QueryResult answer(QueryService& service, const Query& q) {
  auto result = service.query(q);
  EXPECT_TRUE(result.ok()) << result.status().to_string();
  return result.ok() ? *std::move(result) : QueryResult{};
}

TEST(Status, DefaultIsOkAndFactoriesCarryCodes) {
  pl::Status ok;
  EXPECT_TRUE(ok.ok());
  EXPECT_EQ(ok.to_string(), "ok");

  const pl::Status bad = pl::invalid_argument_error("day out of order");
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.code(), pl::StatusCode::kInvalidArgument);
  EXPECT_EQ(bad.to_string(), "invalid-argument: day out of order");
  EXPECT_NE(ok, bad);
}

TEST(Status, StatusOrHoldsValueOrError) {
  pl::StatusOr<int> value = 42;
  ASSERT_TRUE(value.ok());
  EXPECT_EQ(*value, 42);

  pl::StatusOr<int> error = pl::not_found_error("no such asn");
  EXPECT_FALSE(error.ok());
  EXPECT_EQ(error.status().code(), pl::StatusCode::kNotFound);
}

TEST(DatasetIo, AdminJsonRoundTripsListingFields) {
  const pipeline::Result result = small_pipeline();
  std::stringstream stream;
  ASSERT_TRUE(lifetimes::save_admin_json(stream, result.admin).ok());

  pl::StatusOr<lifetimes::AdminDataset> loaded =
      lifetimes::load_admin_json(stream);
  ASSERT_TRUE(loaded.ok());
  ASSERT_EQ(loaded->lifetimes.size(), result.admin.lifetimes.size());
  for (std::size_t i = 0; i < loaded->lifetimes.size(); ++i) {
    const lifetimes::AdminLifetime& in = result.admin.lifetimes[i];
    const lifetimes::AdminLifetime& out = loaded->lifetimes[i];
    EXPECT_EQ(out.asn, in.asn);
    EXPECT_EQ(out.registration_date, in.registration_date);
    EXPECT_EQ(out.days, in.days);
    EXPECT_EQ(out.registry, in.registry);
  }
  EXPECT_EQ(loaded->by_asn.size(), result.admin.by_asn.size());
}

TEST(DatasetIo, OpJsonRoundTripsExactly) {
  const pipeline::Result result = small_pipeline();
  std::stringstream stream;
  ASSERT_TRUE(lifetimes::save_op_json(stream, result.op).ok());

  pl::StatusOr<lifetimes::OpDataset> loaded = lifetimes::load_op_json(stream);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->lifetimes, result.op.lifetimes);
  EXPECT_EQ(loaded->by_asn, result.op.by_asn);
}

TEST(DatasetIo, MalformedLineFailsWithDataLossNamingTheLine) {
  std::stringstream stream;
  stream << R"({"ASN":65000,"startdate":"2010-01-01","enddate":"2010-02-01"})"
         << '\n'
         << "this is not a record\n";
  const pl::StatusOr<lifetimes::OpDataset> loaded =
      lifetimes::load_op_json(stream);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), pl::StatusCode::kDataLoss);
  EXPECT_NE(loaded.status().message().find("line 2"), std::string::npos);
}

TEST(DatasetIo, RejectsReversedInterval) {
  std::stringstream stream;
  stream << R"({"ASN":65000,"startdate":"2010-02-01","enddate":"2010-01-01"})"
         << '\n';
  EXPECT_EQ(lifetimes::load_op_json(stream).status().code(),
            pl::StatusCode::kDataLoss);
}

TEST(DatasetIo, StatusSaversProduceRecords) {
  const pipeline::Result result = small_pipeline();
  std::stringstream json;
  ASSERT_TRUE(lifetimes::save_op_json(json, result.op).ok());
  EXPECT_NE(json.str().find("\"ASN\":"), std::string::npos);
  std::stringstream csv;
  ASSERT_TRUE(lifetimes::save_admin_csv(csv, result.admin).ok());
  EXPECT_NE(csv.str().find("asn,reg_date"), std::string::npos);
}

TEST(Snapshot, AgreesWithPipelineDatasets) {
  const pipeline::Result result = small_pipeline();
  const Snapshot snapshot = small_snapshot(result);

  EXPECT_EQ(snapshot.archive_end(), result.truth.archive_end);
  EXPECT_EQ(snapshot.admin_life_count(), result.admin.lifetimes.size());
  EXPECT_EQ(snapshot.op_life_count(), result.op.lifetimes.size());
  EXPECT_TRUE(snapshot.can_advance());

  // Every admin life of every ASN appears on its row in dataset order, and
  // the row's taxonomy classes match the global classification.
  for (const auto& [asn_value, indices] : result.admin.by_asn) {
    const AsnRow* row = snapshot.find(asn::Asn{asn_value});
    ASSERT_NE(row, nullptr);
    const auto lives = snapshot.admin_lives(*row);
    ASSERT_EQ(lives.size(), indices.size());
    for (std::size_t i = 0; i < indices.size(); ++i) {
      EXPECT_EQ(lives[i].life, result.admin.lifetimes[indices[i]]);
      EXPECT_EQ(lives[i].category,
                result.taxonomy.admin_category[indices[i]]);
    }
  }
  for (const auto& [asn_value, indices] : result.op.by_asn) {
    const AsnRow* row = snapshot.find(asn::Asn{asn_value});
    ASSERT_NE(row, nullptr);
    const auto lives = snapshot.op_lives(*row);
    ASSERT_EQ(lives.size(), indices.size());
    for (std::size_t i = 0; i < indices.size(); ++i) {
      EXPECT_EQ(lives[i].life, result.op.lifetimes[indices[i]]);
      EXPECT_EQ(lives[i].category, result.taxonomy.op_category[indices[i]]);
    }
  }
}

TEST(Snapshot, CensusMatchesLinearCount) {
  const pipeline::Result result = small_pipeline();
  const Snapshot snapshot = small_snapshot(result);

  const util::Day mid =
      (result.truth.archive_begin + result.truth.archive_end) / 2;
  for (const util::Day day :
       {result.truth.archive_begin, mid, result.truth.archive_end}) {
    std::int64_t admin_alive = 0;
    for (const lifetimes::AdminLifetime& life : result.admin.lifetimes)
      if (life.days.contains(day)) ++admin_alive;
    std::int64_t op_alive = 0;
    for (const lifetimes::OpLifetime& life : result.op.lifetimes)
      if (life.days.contains(day)) ++op_alive;
    const AliveCensus census = snapshot.alive_census(day);
    EXPECT_EQ(census.admin_alive, admin_alive) << "day " << day;
    EXPECT_EQ(census.op_alive, op_alive) << "day " << day;
  }
}

TEST(Snapshot, FindMissesUnknownAsn) {
  const pipeline::Result result = small_pipeline();
  const Snapshot snapshot = small_snapshot(result);
  EXPECT_EQ(snapshot.find(asn::Asn{4294967295u}), nullptr);
}

TEST(QueryService, SecondIdenticalBatchIsAllHits) {
  const pipeline::Result result = small_pipeline();
  QueryService service(small_snapshot(result));

  std::vector<asn::Asn> batch;
  for (const auto& [asn_value, indices] : result.admin.by_asn) {
    batch.push_back(asn::Asn{asn_value});
    if (batch.size() == 64) break;
  }
  const QueryResult first = answer(service, Query::lookup_batch(batch));
  const QueryResult second = answer(service, Query::lookup_batch(batch));
  EXPECT_EQ(first, second);

  if (obs::kEnabled) {
    const obs::Snapshot metrics = service.report().metrics;
    EXPECT_EQ(metrics.counter_value("pl_serve_cache_misses"),
              static_cast<std::int64_t>(batch.size()));
    EXPECT_EQ(metrics.counter_value("pl_serve_cache_hits"),
              static_cast<std::int64_t>(batch.size()));
  }
}

TEST(QueryService, TinyCacheEvicts) {
  const pipeline::Result result = small_pipeline();
  QueryConfig config;
  config.cache_capacity = 8;
  QueryService service(small_snapshot(result), config);

  std::vector<asn::Asn> batch;
  for (const auto& [asn_value, indices] : result.admin.by_asn)
    batch.push_back(asn::Asn{asn_value});
  ASSERT_TRUE(service.query(Query::lookup_batch(batch)).ok());
  if (obs::kEnabled) {
    EXPECT_GT(
        service.report().metrics.counter_value("pl_serve_cache_evictions"),
        0);
  }
}

TEST(QueryService, ReportCarriesServeSpansAndExports) {
  const pipeline::Result result = small_pipeline();
  QueryService service(small_snapshot(result));
  ASSERT_TRUE(
      service.query(Query::lookup_batch({asn::Asn{1}, asn::Asn{2}})).ok());
  ASSERT_TRUE(service.query(Query::scan(ScanQuery{})).ok());
  if (!obs::kEnabled) return;  // obs-off: report is empty by design

  const obs::Report report = service.report();
  EXPECT_EQ(report.trace.name, "serve");
  EXPECT_NE(report.trace.child("serve.lookup_batch"), nullptr);
  EXPECT_NE(report.trace.child("serve.scan"), nullptr);

  const std::string json = obs::to_json(report);
  EXPECT_NE(json.find("pl-obs/2"), std::string::npos);
  EXPECT_NE(json.find("pl_serve_cache_hits"), std::string::npos);
  const std::string prom = obs::to_prometheus(report.metrics);
  EXPECT_NE(prom.find("pl_serve_cache_hits"), std::string::npos);
  EXPECT_NE(prom.find("pl_serve_snapshot_asns"), std::string::npos);
}

TEST(QueryService, ScanFiltersCompose) {
  const pipeline::Result result = small_pipeline();
  QueryService service(small_snapshot(result));

  ScanQuery by_registry;
  by_registry.registry = asn::Rir::kRipeNcc;
  const std::vector<AsnAnswer> ripe =
      answer(service, Query::scan(by_registry)).lookups;
  EXPECT_GT(ripe.size(), 0u);
  for (std::size_t i = 1; i < ripe.size(); ++i)
    EXPECT_LT(ripe[i - 1].asn, ripe[i].asn);

  ScanQuery limited = by_registry;
  limited.limit = 5;
  EXPECT_EQ(answer(service, Query::scan(limited)).lookups.size(), 5u);

  ScanQuery alive = by_registry;
  alive.admin_alive_on = result.truth.archive_end;
  for (const AsnAnswer& row : answer(service, Query::scan(alive)).lookups)
    EXPECT_TRUE(row.currently_allocated);
}

TEST(QueryService, QueryOnlySnapshotRefusesAdvance) {
  const pipeline::Result result = small_pipeline();
  Snapshot snapshot = Snapshot::from_datasets(result.admin, result.op);
  EXPECT_FALSE(snapshot.can_advance());
  QueryService service(std::move(snapshot));
  const pl::Status status = service.advance_day(DayDelta{});
  EXPECT_EQ(status.code(), pl::StatusCode::kFailedPrecondition);
}

TEST(QueryService, WrongDayAdvanceIsInvalidArgument) {
  const pipeline::Result result = small_pipeline();
  QueryService service(small_snapshot(result));
  DayDelta delta;
  delta.day = result.truth.archive_end + 7;  // not the next day
  EXPECT_EQ(service.advance_day(delta).code(),
            pl::StatusCode::kInvalidArgument);
  EXPECT_EQ(service.version(), 0u);
}

TEST(QueryService, AdvanceClearsCachesAndBumpsVersion) {
  const pipeline::Result result = small_pipeline();
  QueryService service(small_snapshot(result));

  const asn::Asn probe{result.admin.lifetimes.front().asn.value};
  ASSERT_TRUE(service.query(Query::lookup(probe)).ok());
  DayDelta delta = history::HistoryStore::slice_day(
      result.restored, result.op_world.activity, result.truth.archive_end);
  delta.day = result.truth.archive_end + 1;
  ASSERT_TRUE(service.advance_day(delta).ok());
  EXPECT_EQ(service.version(), 1u);
  EXPECT_EQ(service.snapshot().archive_end(), result.truth.archive_end + 1);
  if (obs::kEnabled) {
    EXPECT_GT(
        service.report().metrics.counter_value("pl_serve_advance_days"), 0);
  }
}

TEST(ServeIo, LoadSnapshotRoundTripsThroughListingJson) {
  const pipeline::Result result = small_pipeline();
  const std::string admin_path =
      testing::TempDir() + "/serve_admin.jsonl";
  const std::string op_path = testing::TempDir() + "/serve_op.jsonl";
  ASSERT_TRUE(lifetimes::save_admin_json(admin_path, result.admin).ok());
  ASSERT_TRUE(lifetimes::save_op_json(op_path, result.op).ok());

  pl::StatusOr<Snapshot> loaded = load_snapshot(admin_path, op_path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->asn_count(),
            small_snapshot(result).asn_count());
  EXPECT_EQ(loaded->op_life_count(), result.op.lifetimes.size());
  EXPECT_FALSE(loaded->can_advance());

  EXPECT_EQ(load_snapshot("/nonexistent/admin.jsonl", op_path).status().code(),
            pl::StatusCode::kUnavailable);
}

TEST(Serving, PostStageHookTracesSnapshotBuild) {
  pipeline::Config config;
  config.seed = 99;
  config.scale = 0.02;
  const ServingWorld world = run_simulated_serving(config);

  if (obs::kEnabled) {
    // The eighth stage shows up in the trace and the flat timings...
    const obs::TraceNode* stage =
        world.result.report.trace.child("serve.build_snapshot");
    ASSERT_NE(stage, nullptr);
    EXPECT_EQ(stage->note_value("asns"),
              static_cast<std::int64_t>(world.snapshot.asn_count()));
    EXPECT_GT(world.result.timings.build_snapshot_ms, 0.0);
    // ...and the snapshot census landed in the run's own metrics.
    EXPECT_EQ(world.result.report.metrics.gauges.at("pl_serve_snapshot_asns"),
              static_cast<std::int64_t>(world.snapshot.asn_count()));
  }

  // The hook-built snapshot equals one built from the result directly.
  const Snapshot rebuilt = small_snapshot(world.result);
  EXPECT_TRUE(world.snapshot == rebuilt);
}

TEST(Serving, DefaultRunsKeepSevenStageChildren) {
  pipeline::Config config;
  config.seed = 7;
  config.scale = 0.01;
  const pipeline::Result result = pipeline::run_simulated(config);
  if (obs::kEnabled) {
    EXPECT_EQ(result.report.trace.children.size(), 7u);
  }
  EXPECT_EQ(result.timings.build_snapshot_ms, 0.0);
}

}  // namespace
}  // namespace pl::serve
