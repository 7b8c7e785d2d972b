// Oracle fuzz for the serving layer: every query answered by the
// QueryService is checked against a naive linear scan over the pipeline's
// own datasets, with the cache on and off — and the whole suite runs under
// both PL_THREADS extremes via the _serial/_mt ctest variants. Any
// divergence (cache state, thread count, snapshot indexing) fails here.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "joint/squat.hpp"
#include "pipeline/pipeline.hpp"
#include "serve/query.hpp"
#include "serve/snapshot.hpp"
#include "util/rng.hpp"

namespace pl::serve {
namespace {

/// `q` answered by `service`; the query must succeed.
QueryResult answer(QueryService& service, const Query& q) {
  auto result = service.query(q);
  EXPECT_TRUE(result.ok()) << result.status().to_string();
  return result.ok() ? *std::move(result) : QueryResult{};
}

struct Oracle {
  pipeline::Result result;
  std::set<std::uint32_t> dormant_asns;   ///< ASNs with a dormant-squat life
  std::set<std::uint32_t> outside_asns;   ///< ever-allocated, outside life

  explicit Oracle(const pipeline::Config& config)
      : result(pipeline::run_simulated(config)) {
    for (const joint::SquatCandidate& candidate :
         joint::detect_dormant_squats(result.taxonomy, result.admin,
                                      result.op))
      dormant_asns.insert(candidate.asn.value);
    for (const joint::SquatCandidate& candidate :
         joint::detect_outside_delegation_activity(result.taxonomy,
                                                   result.admin, result.op))
      outside_asns.insert(candidate.asn.value);
  }

  /// Linear-scan answer for one ASN — no index, no cache, no snapshot.
  AsnAnswer lookup(asn::Asn asn) const {
    AsnAnswer answer;
    answer.asn = asn;
    std::vector<std::size_t> admin_indices;
    for (std::size_t i = 0; i < result.admin.lifetimes.size(); ++i)
      if (result.admin.lifetimes[i].asn == asn) admin_indices.push_back(i);
    std::vector<std::size_t> op_indices;
    for (std::size_t i = 0; i < result.op.lifetimes.size(); ++i)
      if (result.op.lifetimes[i].asn == asn) op_indices.push_back(i);
    if (admin_indices.empty() && op_indices.empty()) return answer;

    answer.known = true;
    answer.admin_life_count = static_cast<std::uint32_t>(admin_indices.size());
    answer.op_life_count = static_cast<std::uint32_t>(op_indices.size());
    const util::Day end = result.truth.archive_end;
    if (!admin_indices.empty()) {
      const lifetimes::AdminLifetime& first =
          result.admin.lifetimes[admin_indices.front()];
      const lifetimes::AdminLifetime& latest =
          result.admin.lifetimes[admin_indices.back()];
      answer.admin_span = util::DayInterval{first.days.first,
                                            latest.days.last};
      answer.latest_registry = latest.registry;
      answer.latest_country = latest.country;
      answer.latest_registration = latest.registration_date;
      answer.latest_admin_category =
          result.taxonomy.admin_category[admin_indices.back()];
      for (const std::size_t i : admin_indices) {
        const lifetimes::AdminLifetime& life = result.admin.lifetimes[i];
        if (life.days.contains(end)) answer.currently_allocated = true;
        if (life.transferred) answer.transferred = true;
      }
    }
    if (!op_indices.empty()) {
      answer.op_span = util::DayInterval{
          result.op.lifetimes[op_indices.front()].days.first,
          result.op.lifetimes[op_indices.back()].days.last};
      for (const std::size_t i : op_indices)
        if (result.op.lifetimes[i].days.contains(end))
          answer.currently_active = true;
    }
    answer.dormant_squat = dormant_asns.contains(asn.value);
    answer.outside_activity = outside_asns.contains(asn.value);
    return answer;
  }

  AliveAnswer alive(asn::Asn asn, util::Day day) const {
    AliveAnswer answer;
    answer.asn = asn;
    for (const lifetimes::AdminLifetime& life : result.admin.lifetimes)
      if (life.asn == asn && life.days.contains(day))
        answer.admin_alive = true;
    for (const lifetimes::OpLifetime& life : result.op.lifetimes)
      if (life.asn == asn && life.days.contains(day)) answer.op_alive = true;
    return answer;
  }
};

class ServeOracleTest : public testing::Test {
 protected:
  static void SetUpTestSuite() {
    pipeline::Config config;
    config.seed = 99;
    config.scale = 0.02;
    oracle_ = new Oracle(config);
    snapshot_ = new Snapshot(Snapshot::build(
        oracle_->result.restored, oracle_->result.op_world.activity,
        oracle_->result.truth.archive_end));
  }
  static void TearDownTestSuite() {
    delete snapshot_;
    delete oracle_;
    snapshot_ = nullptr;
    oracle_ = nullptr;
  }

  /// Mix of ASNs the study knows and ASNs it never saw.
  static std::vector<asn::Asn> random_asns(util::Rng& rng, std::size_t count) {
    const auto& rows = snapshot_->rows();
    std::vector<asn::Asn> asns;
    asns.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
      if (!rows.empty() && rng.uniform(0, 3) != 0) {
        const std::size_t pick = static_cast<std::size_t>(
            rng.uniform(0, static_cast<std::int64_t>(rows.size()) - 1));
        asns.push_back(rows[pick].asn);
      } else {
        asns.push_back(
            asn::Asn{static_cast<std::uint32_t>(rng.uniform(1, 500000))});
      }
    }
    return asns;
  }

  static Oracle* oracle_;
  static Snapshot* snapshot_;
};

Oracle* ServeOracleTest::oracle_ = nullptr;
Snapshot* ServeOracleTest::snapshot_ = nullptr;

TEST_F(ServeOracleTest, PointAndBatchLookupsMatchLinearScan) {
  for (const bool enable_cache : {true, false}) {
    QueryConfig config;
    config.enable_cache = enable_cache;
    QueryService service(*snapshot_, config);

    util::Rng rng(0xF00D);
    for (int round = 0; round < 4; ++round) {
      const std::vector<asn::Asn> asns = random_asns(rng, 200);
      const std::vector<AsnAnswer> batch =
          answer(service, Query::lookup_batch(asns)).lookups;
      ASSERT_EQ(batch.size(), asns.size());
      for (std::size_t i = 0; i < asns.size(); ++i) {
        const AsnAnswer expected = oracle_->lookup(asns[i]);
        EXPECT_EQ(batch[i], expected)
            << "asn " << asns[i].value << " cache=" << enable_cache;
        // Point path answers identically to the batch path (and, second
        // time around, from the cache).
        EXPECT_EQ(answer(service, Query::lookup(asns[i])).lookups,
                  std::vector<AsnAnswer>{expected});
      }
    }
  }
}

TEST_F(ServeOracleTest, AliveQueriesMatchLinearScan) {
  const util::Day begin = oracle_->result.truth.archive_begin;
  const util::Day end = oracle_->result.truth.archive_end;
  for (const bool enable_cache : {true, false}) {
    QueryConfig config;
    config.enable_cache = enable_cache;
    QueryService service(*snapshot_, config);

    util::Rng rng(0xBEEF);
    for (int round = 0; round < 3; ++round) {
      const std::vector<asn::Asn> asns = random_asns(rng, 100);
      const util::Day day = begin + rng.uniform(0, end - begin);
      const std::vector<AliveAnswer> batch =
          answer(service, Query::alive_batch(asns, day)).alive;
      ASSERT_EQ(batch.size(), asns.size());
      for (std::size_t i = 0; i < asns.size(); ++i) {
        const AliveAnswer expected = oracle_->alive(asns[i], day);
        EXPECT_EQ(batch[i], expected)
            << "asn " << asns[i].value << " day " << day;
        EXPECT_EQ(answer(service, Query::alive(asns[i], day)).alive,
                  std::vector<AliveAnswer>{expected});
      }
    }
  }
}

TEST_F(ServeOracleTest, ScansMatchLinearFilter) {
  QueryService service(*snapshot_);
  util::Rng rng(0xCAFE);
  const util::Day begin = oracle_->result.truth.archive_begin;
  const util::Day end = oracle_->result.truth.archive_end;

  for (int round = 0; round < 6; ++round) {
    ScanQuery query;
    const std::uint32_t a =
        static_cast<std::uint32_t>(rng.uniform(0, 400000));
    const std::uint32_t b =
        static_cast<std::uint32_t>(rng.uniform(0, 400000));
    query.first = asn::Asn{std::min(a, b)};
    query.last = asn::Asn{std::max(a, b)};
    if (rng.uniform(0, 1) == 0)
      query.registry = asn::kAllRirs[static_cast<std::size_t>(
          rng.uniform(0, asn::kRirCount - 1))];
    if (rng.uniform(0, 1) == 0)
      query.admin_alive_on = begin + rng.uniform(0, end - begin);

    const std::vector<AsnAnswer> got =
        answer(service, Query::scan(query)).lookups;

    // Expected ASNs by linear scan over the admin/op datasets.
    std::set<std::uint32_t> expected;
    const auto consider = [&](asn::Asn asn) {
      if (asn < query.first || query.last < asn) return;
      if (query.registry || query.admin_alive_on) {
        bool registry_ok = !query.registry;
        bool alive_ok = !query.admin_alive_on;
        for (const lifetimes::AdminLifetime& life :
             oracle_->result.admin.lifetimes) {
          if (life.asn != asn) continue;
          if (query.registry && life.registry == *query.registry)
            registry_ok = true;
          if (query.admin_alive_on &&
              life.days.contains(*query.admin_alive_on))
            alive_ok = true;
        }
        if (!registry_ok || !alive_ok) return;
      }
      expected.insert(asn.value);
    };
    for (const lifetimes::AdminLifetime& life :
         oracle_->result.admin.lifetimes)
      consider(life.asn);
    for (const lifetimes::OpLifetime& life : oracle_->result.op.lifetimes)
      consider(life.asn);

    ASSERT_EQ(got.size(), expected.size()) << "round " << round;
    std::size_t i = 0;
    for (const std::uint32_t value : expected) {
      EXPECT_EQ(got[i].asn.value, value);
      ++i;
    }
  }
}

TEST_F(ServeOracleTest, CensusMatchesLinearCountEverywhere) {
  QueryService service(*snapshot_);
  util::Rng rng(0xD1CE);
  const util::Day begin = oracle_->result.truth.archive_begin;
  const util::Day end = oracle_->result.truth.archive_end;
  for (int round = 0; round < 8; ++round) {
    const util::Day day = begin + rng.uniform(-5, end - begin + 5);
    std::int64_t admin_alive = 0;
    for (const lifetimes::AdminLifetime& life :
         oracle_->result.admin.lifetimes)
      if (life.days.contains(day)) ++admin_alive;
    std::int64_t op_alive = 0;
    for (const lifetimes::OpLifetime& life : oracle_->result.op.lifetimes)
      if (life.days.contains(day)) ++op_alive;
    const std::optional<CensusAnswer> census =
        answer(service, Query::census(day)).census;
    ASSERT_TRUE(census.has_value()) << "day " << day;
    EXPECT_EQ(census->admin_alive, admin_alive) << "day " << day;
    EXPECT_EQ(census->op_alive, op_alive) << "day " << day;
  }
}

TEST_F(ServeOracleTest, SnapshotFlagsAgreeWithGlobalDetectors) {
  // Per-row detector flags vs the global detectors' candidate sets: the two
  // implementations are independent by design, so this is a real
  // cross-check, not a tautology.
  std::set<std::uint32_t> row_dormant;
  std::set<std::uint32_t> row_outside;
  for (const AsnRow& row : snapshot_->rows()) {
    if (row.flags & kFlagDormantSquat) row_dormant.insert(row.asn.value);
    if (row.flags & kFlagOutsideActivity) row_outside.insert(row.asn.value);
  }
  EXPECT_EQ(row_dormant, oracle_->dormant_asns);
  EXPECT_EQ(row_outside, oracle_->outside_asns);
}

}  // namespace
}  // namespace pl::serve
