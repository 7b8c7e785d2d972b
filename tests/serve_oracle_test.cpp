// Oracle fuzz for the serving layer: every query answered by the
// QueryService is checked against a naive linear scan over the pipeline's
// own datasets — batches include deliberate duplicate ASNs, and one case
// has four threads query one service at once (the tsan leg runs it). Any
// divergence (concurrent readers, batch slotting, snapshot indexing) fails
// here.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include "history/store.hpp"
#include "joint/squat.hpp"
#include "joint/taxonomy.hpp"
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
      : Oracle(pipeline::run_simulated(config)) {}

  explicit Oracle(pipeline::Result study) : result(std::move(study)) {
    for (const joint::SquatCandidate& candidate :
         joint::detect_dormant_squats(result.taxonomy, result.admin,
                                      result.op))
      dormant_asns.insert(candidate.asn.value);
    for (const joint::SquatCandidate& candidate :
         joint::detect_outside_delegation_activity(result.taxonomy,
                                                   result.admin, result.op))
      outside_asns.insert(candidate.asn.value);
  }

  /// Linear-scan answer for one ASN — no index, no snapshot.
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

  /// The ASNs a scan must return, ascending: every ASN in range with a
  /// life; with a filter set, one of its admin lives must match the
  /// registry and one (maybe another) must be alive on the day.
  std::set<std::uint32_t> scan(const ScanQuery& query) const {
    const auto in_range = [&](asn::Asn asn) {
      return !(asn < query.first || query.last < asn);
    };
    std::set<std::uint32_t> matches;
    if (!query.registry && !query.admin_alive_on) {
      for (const lifetimes::AdminLifetime& life : result.admin.lifetimes)
        if (in_range(life.asn)) matches.insert(life.asn.value);
      for (const lifetimes::OpLifetime& life : result.op.lifetimes)
        if (in_range(life.asn)) matches.insert(life.asn.value);
      return matches;
    }
    std::set<std::uint32_t> registry_ok;
    std::set<std::uint32_t> alive_ok;
    for (const lifetimes::AdminLifetime& life : result.admin.lifetimes) {
      if (!in_range(life.asn)) continue;
      if (!query.registry || life.registry == *query.registry)
        registry_ok.insert(life.asn.value);
      if (!query.admin_alive_on || life.days.contains(*query.admin_alive_on))
        alive_ok.insert(life.asn.value);
    }
    for (const std::uint32_t value : registry_ok)
      if (alive_ok.contains(value)) matches.insert(value);
    return matches;
  }

  /// Lives of each kind covering `day`, counted one by one.
  CensusAnswer census(util::Day day) const {
    CensusAnswer answer{day, 0, 0};
    for (const lifetimes::AdminLifetime& life : result.admin.lifetimes)
      if (life.days.contains(day)) ++answer.admin_alive;
    for (const lifetimes::OpLifetime& life : result.op.lifetimes)
      if (life.days.contains(day)) ++answer.op_alive;
    return answer;
  }
};

/// The study's datasets over its world cut at `day`: what the pipeline
/// would have derived on that day.
pipeline::Result study_at(const pipeline::Result& full, util::Day day) {
  pipeline::Result past;
  past.truth.archive_begin = full.truth.archive_begin;
  past.truth.archive_end = day;
  past.admin = lifetimes::build_admin_lifetimes(
      history::HistoryStore::truncate_archive(full.restored, day), day);
  past.op = lifetimes::build_op_lifetimes(full.op_world.activity.clipped(day));
  past.taxonomy = joint::classify(past.admin, past.op);
  return past;
}

/// ASNs of a scan answer, in answer order.
std::vector<std::uint32_t> asn_values(const std::vector<AsnAnswer>& answers) {
  std::vector<std::uint32_t> values;
  for (const AsnAnswer& answer : answers) values.push_back(answer.asn.value);
  return values;
}

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

  /// `asns` with deliberate repeats: every fourth ASN again, one ASN twice
  /// in a row, and the second half again in reverse. Each repeat is its own
  /// batch slot, computed independently of the first.
  static std::vector<asn::Asn> with_duplicates(util::Rng& rng,
                                               std::vector<asn::Asn> asns) {
    const std::size_t n = asns.size();
    for (std::size_t i = 0; i < n; i += 4) asns.push_back(asns[i]);
    const std::size_t pick = static_cast<std::size_t>(
        rng.uniform(0, static_cast<std::int64_t>(n) - 1));
    asns.insert(asns.begin() + static_cast<std::ptrdiff_t>(pick), asns[pick]);
    for (std::size_t i = n; i-- > n / 2;) asns.push_back(asns[i]);
    return asns;
  }

  /// A random ASN range, with a registry and an alive-day filter each set
  /// half the time.
  static ScanQuery random_scan(util::Rng& rng) {
    const util::Day begin = oracle_->result.truth.archive_begin;
    const util::Day end = oracle_->result.truth.archive_end;
    ScanQuery query;
    const std::uint32_t a = static_cast<std::uint32_t>(rng.uniform(0, 400000));
    const std::uint32_t b = static_cast<std::uint32_t>(rng.uniform(0, 400000));
    query.first = asn::Asn{std::min(a, b)};
    query.last = asn::Asn{std::max(a, b)};
    if (rng.uniform(0, 1) == 0)
      query.registry = asn::kAllRirs[static_cast<std::size_t>(
          rng.uniform(0, asn::kRirCount - 1))];
    if (rng.uniform(0, 1) == 0)
      query.admin_alive_on = begin + rng.uniform(0, end - begin);
    return query;
  }

  static Oracle* oracle_;
  static Snapshot* snapshot_;
};

Oracle* ServeOracleTest::oracle_ = nullptr;
Snapshot* ServeOracleTest::snapshot_ = nullptr;

TEST_F(ServeOracleTest, PointAndBatchLookupsMatchLinearScan) {
  QueryService service(*snapshot_);
  util::Rng rng(0xF00D);
  for (int round = 0; round < 4; ++round) {
    const std::vector<asn::Asn> asns =
        with_duplicates(rng, random_asns(rng, 200));
    const std::vector<AsnAnswer> batch =
        answer(service, Query::lookup_batch(asns)).lookups;
    ASSERT_EQ(batch.size(), asns.size());
    for (std::size_t i = 0; i < asns.size(); ++i) {
      const AsnAnswer expected = oracle_->lookup(asns[i]);
      EXPECT_EQ(batch[i], expected) << "asn " << asns[i].value << " slot " << i;
      // The point path answers identically to the batch path.
      EXPECT_EQ(answer(service, Query::lookup(asns[i])).lookups,
                std::vector<AsnAnswer>{expected});
    }
  }
}

TEST_F(ServeOracleTest, AliveQueriesMatchLinearScan) {
  const util::Day begin = oracle_->result.truth.archive_begin;
  const util::Day end = oracle_->result.truth.archive_end;
  QueryService service(*snapshot_);
  util::Rng rng(0xBEEF);
  for (int round = 0; round < 3; ++round) {
    const std::vector<asn::Asn> asns =
        with_duplicates(rng, random_asns(rng, 100));
    const util::Day day = begin + rng.uniform(0, end - begin);
    const std::vector<AliveAnswer> batch =
        answer(service, Query::alive_batch(asns, day)).alive;
    ASSERT_EQ(batch.size(), asns.size());
    for (std::size_t i = 0; i < asns.size(); ++i) {
      const AliveAnswer expected = oracle_->alive(asns[i], day);
      EXPECT_EQ(batch[i], expected)
          << "asn " << asns[i].value << " day " << day << " slot " << i;
      EXPECT_EQ(answer(service, Query::alive(asns[i], day)).alive,
                std::vector<AliveAnswer>{expected});
    }
  }
}

TEST_F(ServeOracleTest, ScansMatchLinearFilter) {
  QueryService service(*snapshot_);
  util::Rng rng(0xCAFE);
  for (int round = 0; round < 6; ++round) {
    const ScanQuery query = random_scan(rng);
    const std::set<std::uint32_t> expected = oracle_->scan(query);
    EXPECT_EQ(asn_values(answer(service, Query::scan(query)).lookups),
              std::vector<std::uint32_t>(expected.begin(), expected.end()))
        << "round " << round;
  }
}

TEST_F(ServeOracleTest, CensusMatchesLinearCountEverywhere) {
  QueryService service(*snapshot_);
  util::Rng rng(0xD1CE);
  const util::Day begin = oracle_->result.truth.archive_begin;
  const util::Day end = oracle_->result.truth.archive_end;
  for (int round = 0; round < 8; ++round) {
    const util::Day day = begin + rng.uniform(-5, end - begin + 5);
    EXPECT_EQ(answer(service, Query::census(day)).census,
              std::optional<CensusAnswer>(oracle_->census(day)))
        << "day " << day;
  }
}

TEST_F(ServeOracleTest, ConcurrentReadersMatchLinearScan) {
  // QueryService documents concurrent reads as safe: four threads query
  // one service at once, every kind of question, and each answer must
  // equal the linear scan. An as_of lookup needs a history attached; its
  // oracle is the study's datasets over the world cut at that day.
  const util::Day end = oracle_->result.truth.archive_end;
  const util::Day past_day = end - 3;
  auto history = history::HistoryStore::build(
      oracle_->result.restored, oracle_->result.op_world.activity, end - 5,
      end);
  ASSERT_TRUE(history.ok()) << history.status().to_string();
  const Oracle past(study_at(oracle_->result, past_day));
  QueryOptions as_of_past;
  as_of_past.as_of = past_day;

  QueryService service(*snapshot_);
  service.attach_history(&*history);

  constexpr int kReaders = 4;
  std::vector<std::thread> readers;
  for (int reader = 0; reader < kReaders; ++reader) {
    readers.emplace_back([&, reader] {
      util::Rng rng(0x5EED + static_cast<std::uint64_t>(reader));
      const util::Day begin = oracle_->result.truth.archive_begin;
      for (int round = 0; round < 3; ++round) {
        const std::vector<asn::Asn> asns =
            with_duplicates(rng, random_asns(rng, 48));
        const util::Day day = begin + rng.uniform(0, end - begin);

        const std::vector<AsnAnswer> lookups =
            answer(service, Query::lookup_batch(asns)).lookups;
        const std::vector<AliveAnswer> alive =
            answer(service, Query::alive_batch(asns, day)).alive;
        EXPECT_EQ(lookups.size(), asns.size());
        EXPECT_EQ(alive.size(), asns.size());
        for (std::size_t i = 0; i < asns.size() && i < lookups.size() &&
                                i < alive.size();
             ++i) {
          EXPECT_EQ(lookups[i], oracle_->lookup(asns[i])) << "slot " << i;
          EXPECT_EQ(alive[i], oracle_->alive(asns[i], day)) << "slot " << i;
        }
        for (std::size_t i = 0; i < asns.size(); i += 7) {
          EXPECT_EQ(answer(service, Query::lookup(asns[i])).lookups,
                    std::vector<AsnAnswer>{oracle_->lookup(asns[i])});
          EXPECT_EQ(answer(service, Query::lookup(asns[i], as_of_past)).lookups,
                    std::vector<AsnAnswer>{past.lookup(asns[i])})
              << "asn " << asns[i].value << " as of " << past_day;
        }

        const ScanQuery query = random_scan(rng);
        const std::set<std::uint32_t> expected = oracle_->scan(query);
        EXPECT_EQ(asn_values(answer(service, Query::scan(query)).lookups),
                  std::vector<std::uint32_t>(expected.begin(), expected.end()));
        EXPECT_EQ(answer(service, Query::census(day)).census,
                  std::optional<CensusAnswer>(oracle_->census(day)));
      }
    });
  }
  for (std::thread& reader : readers) reader.join();
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
