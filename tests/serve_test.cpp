// The serving layer: Status plumbing, dataset round-trips, snapshot
// queries, the QueryService metrics, and the pipeline post_stage hook.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "history/store.hpp"
#include "lifetimes/dataset_io.hpp"
#include "obs/export.hpp"
#include "pipeline/pipeline.hpp"
#include "serve/io.hpp"
#include "serve/query.hpp"
#include "serve/serving.hpp"
#include "serve/snapshot.hpp"
#include "util/rng.hpp"
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

/// The lines of `records` in a seeded random order, so a loader cannot
/// lean on the order a dataset was saved in.
std::stringstream shuffled_lines(const std::string& records) {
  std::vector<std::string> lines;
  std::istringstream in(records);
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  util::Rng rng(20);
  for (std::size_t i = lines.size(); i > 1; --i)
    std::swap(lines[i - 1],
              lines[static_cast<std::size_t>(
                  rng.uniform(0, static_cast<std::int64_t>(i) - 1))]);
  std::stringstream out;
  for (const std::string& line : lines) out << line << '\n';
  return out;
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
  EXPECT_EQ(loaded->asn_count(), result.admin.asn_count());

  // The same records in shuffled order come back in (asn, start) order.
  std::stringstream shuffled = shuffled_lines(stream.str());
  pl::StatusOr<lifetimes::AdminDataset> reloaded =
      lifetimes::load_admin_json(shuffled);
  ASSERT_TRUE(reloaded.ok());
  EXPECT_EQ(reloaded->lifetimes, loaded->lifetimes);
  EXPECT_EQ(reloaded->archive_end, loaded->archive_end);
}

TEST(DatasetIo, OpJsonRoundTripsExactly) {
  const pipeline::Result result = small_pipeline();
  std::stringstream stream;
  ASSERT_TRUE(lifetimes::save_op_json(stream, result.op).ok());

  pl::StatusOr<lifetimes::OpDataset> loaded = lifetimes::load_op_json(stream);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->lifetimes, result.op.lifetimes);
  EXPECT_EQ(loaded->asn_count(), result.op.asn_count());

  // The same records in shuffled order come back in (asn, start) order.
  std::stringstream shuffled = shuffled_lines(stream.str());
  pl::StatusOr<lifetimes::OpDataset> reloaded =
      lifetimes::load_op_json(shuffled);
  ASSERT_TRUE(reloaded.ok());
  EXPECT_EQ(reloaded->lifetimes, result.op.lifetimes);
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
  const auto& admin = result.admin.lifetimes;
  for (std::size_t i = 0; i < admin.size();) {
    const auto run = lifetimes::asn_run(admin, admin[i].asn);
    const AsnRow* row = snapshot.find(admin[i].asn);
    ASSERT_NE(row, nullptr);
    const auto lives = snapshot.admin_lives(*row);
    ASSERT_EQ(lives.size(), run.size());
    for (std::size_t k = 0; k < run.size(); ++k, ++i) {
      EXPECT_EQ(lives[k].life, admin[i]);
      EXPECT_EQ(lives[k].category, result.taxonomy.admin_category[i]);
    }
  }
  const auto& op = result.op.lifetimes;
  for (std::size_t i = 0; i < op.size();) {
    const auto run = lifetimes::asn_run(op, op[i].asn);
    const AsnRow* row = snapshot.find(op[i].asn);
    ASSERT_NE(row, nullptr);
    const auto lives = snapshot.op_lives(*row);
    ASSERT_EQ(lives.size(), run.size());
    for (std::size_t k = 0; k < run.size(); ++k, ++i) {
      EXPECT_EQ(lives[k].life, op[i]);
      EXPECT_EQ(lives[k].category, result.taxonomy.op_category[i]);
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

TEST(Snapshot, CensusMatchesBruteForceOverExtremeDays) {
  // Negative and very far-apart days vary every byte of the sorted census
  // arrays' keys, sign bit included.
  const std::vector<util::DayInterval> admin_days = {
      {-1'000'000'000, -999'999'000}, {-70'000, -1}, {-1, 0},
      {0, 255},                       {256, 65'536}, {-5, 1'000'000'000},
      {123'456'789, 123'456'789}};
  lifetimes::AdminDataset admin;
  lifetimes::OpDataset op;
  std::uint32_t asn_value = 1;
  for (const util::DayInterval& days : admin_days) {
    lifetimes::AdminLifetime life;
    life.asn = asn::Asn{asn_value};
    life.registration_date = days.first;
    life.days = days;
    admin.lifetimes.push_back(life);
    // Op lives take the admin intervals in the opposite order.
    op.lifetimes.push_back(lifetimes::OpLifetime{
        asn::Asn{asn_value}, admin_days[admin_days.size() - asn_value]});
    ++asn_value;
  }
  const Snapshot snapshot = Snapshot::from_datasets(admin, op);

  std::vector<util::Day> probes = {std::numeric_limits<util::Day>::min(),
                                   std::numeric_limits<util::Day>::max()};
  for (const util::DayInterval& days : admin_days)
    for (const util::Day day :
         {days.first - 1, days.first, days.last, days.last + 1})
      probes.push_back(day);
  for (const util::Day day : probes) {
    AliveCensus brute;
    for (const lifetimes::AdminLifetime& life : admin.lifetimes)
      if (life.days.contains(day)) ++brute.admin_alive;
    for (const lifetimes::OpLifetime& life : op.lifetimes)
      if (life.days.contains(day)) ++brute.op_alive;
    EXPECT_EQ(snapshot.alive_census(day), brute) << "day " << day;
  }

  for (const Snapshot& empty :
       {Snapshot{}, Snapshot::from_datasets({}, {})})
    for (const util::Day day : {std::numeric_limits<util::Day>::min(), 0,
                                std::numeric_limits<util::Day>::max()})
      EXPECT_EQ(empty.alive_census(day), AliveCensus{}) << "day " << day;
}

TEST(Snapshot, FindMissesUnknownAsn) {
  const pipeline::Result result = small_pipeline();
  const Snapshot snapshot = small_snapshot(result);
  EXPECT_EQ(snapshot.find(asn::Asn{4294967295u}), nullptr);
}

TEST(Snapshot, AdvanceInsertsMidTable) {
  // One fold that cannot extend in place: ASN 200 changes state (a new span
  // in the middle of ARIN's table), ASN 250 appears between two known keys,
  // and ASN 200 turns active again after a gap (a new run mid-table). The
  // fold must equal a build over the extended world.
  const auto state = [](dele::Status status) {
    dele::RecordState s;
    s.status = status;
    s.registration_date = 5;
    s.country = asn::CountryCode::literal('U', 'S');
    s.opaque_id = 7;
    return s;
  };
  const auto span = [](util::Day first, util::Day last, dele::RecordState s) {
    return restore::StateSpan{util::DayInterval{first, last}, s};
  };
  const dele::RecordState allocated = state(dele::Status::kAllocated);
  const dele::RecordState reserved = state(dele::Status::kReserved);

  restore::RestoredArchive before;
  for (std::size_t r = 0; r < asn::kRirCount; ++r)
    before.registries[r].rir = asn::kAllRirs[r];
  auto& arin = before.registries[asn::index_of(asn::Rir::kArin)].spans;
  for (const std::uint32_t asn_value : {100u, 200u, 300u})
    arin[asn_value] = {span(10, 20, allocated)};
  bgp::ActivityTable active_before;
  active_before.mark_active(asn::Asn{100}, util::DayInterval{10, 20});
  active_before.mark_active(asn::Asn{200}, util::DayInterval{12, 15});
  active_before.mark_active(asn::Asn{300}, util::DayInterval{10, 20});
  Snapshot advanced = Snapshot::build(before, active_before, 20);

  DayDelta delta;
  delta.day = 21;
  for (const auto& [asn_value, s] :
       {std::pair{100u, allocated}, std::pair{200u, reserved},
        std::pair{250u, allocated}, std::pair{300u, allocated}})
    delta.delegation.push_back(
        DelegationFact{asn::Asn{asn_value}, asn::Rir::kArin, s});
  delta.active = {asn::Asn{100}, asn::Asn{200}, asn::Asn{250}};
  AdvanceStats stats;
  ASSERT_TRUE(advanced.advance_day(delta, &stats).ok());
  EXPECT_EQ(stats.inserted_spans, 2);  // ASN 200's new state, ASN 250
  EXPECT_EQ(stats.inserted_runs, 2);   // ASN 200 after its gap, ASN 250

  restore::RestoredArchive after = before;
  auto& arin_after = after.registries[asn::index_of(asn::Rir::kArin)].spans;
  arin_after[100] = {span(10, 21, allocated)};
  arin_after[200] = {span(10, 20, allocated), span(21, 21, reserved)};
  arin_after[250] = {span(21, 21, allocated)};
  arin_after[300] = {span(10, 21, allocated)};
  bgp::ActivityTable active_after = active_before;
  for (const asn::Asn asn : delta.active) active_after.mark_active(asn, 21);
  EXPECT_TRUE(advanced == Snapshot::build(after, active_after, 21));
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
  EXPECT_NE(json.find("pl_serve_queries"), std::string::npos);
  const std::string prom = obs::to_prometheus(report.metrics);
  EXPECT_NE(prom.find("pl_serve_queries"), std::string::npos);
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

#if defined(PL_CHECKED) && PL_CHECKED
// from_datasets() checks the (asn, start) order instead of restoring it:
// an unsorted dataset on either side is a caller bug and aborts.
TEST(SnapshotDeathTest, FromDatasetsRejectsUnsortedDatasets) {
  const pipeline::Result result = small_pipeline();
  ASSERT_GE(result.admin.asn_count(), 2u);
  ASSERT_GE(result.op.asn_count(), 2u);
  lifetimes::AdminDataset admin = result.admin;
  std::reverse(admin.lifetimes.begin(), admin.lifetimes.end());
  lifetimes::OpDataset op = result.op;
  std::reverse(op.lifetimes.begin(), op.lifetimes.end());
  EXPECT_DEATH(
      { const Snapshot snap = Snapshot::from_datasets(admin, result.op); },
      "contract PL_EXPECT.*sorted by \\(asn, start\\)");
  EXPECT_DEATH(
      { const Snapshot snap = Snapshot::from_datasets(result.admin, op); },
      "contract PL_EXPECT.*sorted by \\(asn, start\\)");
}
#endif  // PL_CHECKED

TEST(QueryService, WrongDayAdvanceIsInvalidArgument) {
  const pipeline::Result result = small_pipeline();
  QueryService service(small_snapshot(result));
  const Snapshot before = service.snapshot();

  DayDelta next = history::HistoryStore::slice_day(
      result.restored, result.op_world.activity, result.truth.archive_end);
  next.day = result.truth.archive_end + 1;
  ASSERT_FALSE(next.delegation.empty());
  DayDelta wrong_day = next;
  wrong_day.day = result.truth.archive_end + 7;  // not the next day
  // A repeated (registry, ASN) fact, last so that every fact before it
  // would already have been applied if validation ran interleaved.
  DayDelta duplicate = next;
  duplicate.delegation.push_back(duplicate.delegation.front());

  // Fail closed: the rejected delta leaves the snapshot deep-equal to its
  // copy, working set included.
  for (const DayDelta& delta : {wrong_day, duplicate}) {
    EXPECT_EQ(service.advance_day(delta).code(),
              pl::StatusCode::kInvalidArgument);
    EXPECT_EQ(service.version(), 0u);
    EXPECT_TRUE(service.snapshot() == before);
  }
  ASSERT_TRUE(service.advance_day(next).ok());
  EXPECT_FALSE(service.snapshot() == before);
}

TEST(QueryService, DuplicateFactChecksOneRegistryAtATime) {
  const pipeline::Result result = small_pipeline();
  QueryService service(small_snapshot(result));
  const Snapshot before = service.snapshot();
  DayDelta next = history::HistoryStore::slice_day(
      result.restored, result.op_world.activity, result.truth.archive_end);
  next.day = result.truth.archive_end + 1;
  ASSERT_GE(next.delegation.size(), 3u);

  // An adjacent repeat in input that is otherwise in slice_day's order.
  DayDelta adjacent = next;
  const std::size_t mid = adjacent.delegation.size() / 2;
  adjacent.delegation.insert(adjacent.delegation.begin() + mid + 1,
                             adjacent.delegation[mid]);
  // A repeat far apart in input that is out of order.
  DayDelta far = next;
  std::reverse(far.delegation.begin(), far.delegation.end());
  far.delegation.push_back(far.delegation.front());
  for (const auto& [delta, repeated] :
       {std::pair{adjacent, next.delegation[mid].asn},
        std::pair{far, next.delegation.back().asn}}) {
    const pl::Status status = service.advance_day(delta);
    EXPECT_EQ(status.code(), pl::StatusCode::kInvalidArgument);
    EXPECT_NE(status.message().find("AS" + asn::to_string(repeated)),
              std::string::npos)
        << status.to_string();
    EXPECT_TRUE(service.snapshot() == before);
  }

  // The same ASN in two registries is two facts, not a repeat.
  const DelegationFact first = next.delegation.front();
  DelegationFact other = first;
  for (const asn::Rir rir : asn::kAllRirs) {
    const bool taken = std::any_of(
        next.delegation.begin(), next.delegation.end(),
        [&](const DelegationFact& fact) {
          return fact.registry == rir && fact.asn == first.asn;
        });
    if (!taken) other.registry = rir;
  }
  ASSERT_NE(other.registry, first.registry);
  next.delegation.push_back(other);
  ASSERT_TRUE(service.advance_day(next).ok());
  EXPECT_NE(service.snapshot().find(first.asn), nullptr);
}

TEST(QueryService, AdvanceDayTracesEachPhase) {
  const pipeline::Result result = small_pipeline();
  QueryService service(small_snapshot(result));
  DayDelta delta = history::HistoryStore::slice_day(
      result.restored, result.op_world.activity, result.truth.archive_end);
  delta.day = result.truth.archive_end + 1;
  ASSERT_TRUE(service.advance_day(delta).ok());
  if (!obs::kEnabled) return;  // obs-off: report is empty by design

  const obs::Report report = service.report();
  const obs::TraceNode* advance = report.trace.child("serve.advance_day");
  ASSERT_NE(advance, nullptr);
  ASSERT_EQ(advance->children.size(), 4u);
  const char* const phases[] = {"apply", "lifetimes", "assemble", "index"};
  for (std::size_t i = 0; i < 4; ++i)
    EXPECT_EQ(advance->children[i].name, phases[i]);

  const Snapshot& snapshot = service.snapshot();
  EXPECT_EQ(advance->child("apply")->note_value("facts"),
            static_cast<std::int64_t>(delta.delegation.size()));
  EXPECT_EQ(advance->child("apply")->note_value("active"),
            static_cast<std::int64_t>(delta.active.size()));
  EXPECT_EQ(advance->child("lifetimes")->note_value("admin_lives"),
            static_cast<std::int64_t>(snapshot.admin_life_count()));
  EXPECT_EQ(advance->child("lifetimes")->note_value("op_lives"),
            static_cast<std::int64_t>(snapshot.op_life_count()));
  EXPECT_EQ(advance->child("assemble")->note_value("rows"),
            static_cast<std::int64_t>(snapshot.asn_count()));
  EXPECT_EQ(advance->child("index")->note_value("countries"),
            static_cast<std::int64_t>(snapshot.rows_by_country().size()));
}

TEST(QueryService, AdvanceBumpsVersionAndServesFoldedDay) {
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
  // The next answer reads the folded snapshot: the same as a fresh service
  // over it.
  QueryService fresh(service.snapshot());
  EXPECT_EQ(answer(service, Query::lookup(probe)),
            answer(fresh, Query::lookup(probe)));
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
