#include "bench/lookup.hpp"

#include <iostream>

#include "bench/env.hpp"
#include "bench/oracle.hpp"

namespace perfbench {

namespace {

using pl::serve::Query;

/// Zipf exponent of the point-lookup key stream. With ~117k keys the 4,096
/// hottest draw most of the traffic, so the hot set fits the answer cache.
constexpr double kZipfExponent = 1.1;
/// Distinct rounds of generated keys; longer runs cycle through them.
constexpr std::size_t kPoolRounds = 32;
/// Answers per query checked against the linear-scan oracle.
constexpr std::size_t kSampledPerQuery = 8;
/// Every this many rounds the census is checked by a linear count.
constexpr std::size_t kCensusOracleStride = 8;

/// Indices of `kSampledPerQuery` answers spread over `n`.
std::vector<std::size_t> sample_indices(std::size_t n) {
  std::vector<std::size_t> indices;
  for (std::size_t s = 0; s < kSampledPerQuery && s < n; ++s)
    indices.push_back(s * n / kSampledPerQuery);
  return indices;
}

pl::serve::CensusAnswer expected_census(const pl::serve::Snapshot& snapshot,
                                        pl::util::Day day) {
  pl::serve::CensusAnswer census;
  census.day = day;
  for (const pl::serve::AsnRow& row : snapshot.rows()) {
    for (const pl::serve::AdminLifeRow& life : snapshot.admin_lives(row))
      census.admin_alive += life.life.days.first <= day && day <= life.life.days.last;
    for (const pl::serve::OpLifeRow& life : snapshot.op_lives(row))
      census.op_alive += life.life.days.first <= day && day <= life.life.days.last;
  }
  return census;
}

}  // namespace

QueryMix::QueryMix(Run& run, Deployment& d)
    : run_(run), service_(*d.lookups) {
  const pl::serve::Snapshot& live = service_.snapshot();
  pl::util::Rng rng = run.rng("lookup.keys");
  std::vector<pl::asn::Asn> universe =
      key_universe(live, d.study.admin, d.study.op);
  std::cout << "keys: universe=" << universe.size()
            << " not_yet_known=" << universe.size() - live.asn_count() << "\n";
  const ZipfKeys zipf(std::move(universe), kZipfExponent, rng);
  run.inputs.mix(zipf.ranked());
  for (std::size_t i = 0; i < kPoolRounds; ++i) {
    Round round;
    round.points = zipf.draw(run.sizes.point_burst, rng);
    round.batch = zipf.draw(run.sizes.batch, rng);
    round.alive = zipf.draw(run.sizes.batch, rng);
    round.day = live.archive_end() -
                static_cast<pl::util::Day>(rng.uniform(0, 3650));
    run.inputs.mix(round.points);
    run.inputs.mix(round.batch);
    run.inputs.mix(round.alive);
    run.inputs.mix(static_cast<std::uint64_t>(round.day));
    pool_.push_back(std::move(round));
  }
  scans_ = scan_mix(live, /*countries=*/5, rng);
  for (const pl::serve::ScanQuery& scan : scans_) run.inputs.mix(scan);
}

void QueryMix::run_for(double ms) {
  const Clock::time_point start = Clock::now();
  do {
    round();
  } while (elapsed_ms(start) < ms);
  busy_ms_ += elapsed_ms(start);
}

void QueryMix::round() {
  Run& run = run_;
  pl::serve::QueryService& service = service_;
  const pl::serve::Snapshot& live = service.snapshot();
  const Round& input = pool_[rounds_ % pool_.size()];

  // Point lookups, one client waiting on each answer.
  std::vector<pl::serve::AsnAnswer> answers(input.points.size());
  std::vector<char> answered(input.points.size(), 0);
  {
    const auto span = run.tracer.span("serve.lookup_burst");
    const Clock::time_point burst_start = Clock::now();
    for (std::size_t k = 0; k < input.points.size(); ++k) {
      const bool timed = !run.traced && k % kLatencySampleStride == 0;
      Clock::time_point start;
      if (timed) start = Clock::now();
      auto answer = service.query(Query::lookup(input.points[k]));
      if (timed) point_us_.add(elapsed_us(start));
      if (answer.ok() && answer->lookups.size() == 1) {
        answers[k] = answer->lookups[0];
        answered[k] = 1;
      }
    }
    point_ms_ += elapsed_ms(burst_start);
  }
  points_ += input.points.size();
  for (const char ok : answered) run.ledger.record(ok != 0, "point lookup");
  for (const std::size_t k : sample_indices(answers.size()))
    run.ledger.record(answers[k] == expected_answer(live, input.points[k]),
                      "point lookup oracle");

  // One batch and one alive-batch query.
  Clock::time_point start = Clock::now();
  auto batch = [&] {
    const auto span = run.tracer.span("serve.batch");
    return service.query(Query::lookup_batch(input.batch));
  }();
  const double round_batch_ms = elapsed_ms(start);
  batch_ms_ += round_batch_ms;
  batch_asns_ += input.batch.size();
  bool batch_ok = batch.ok() && batch->lookups.size() == input.batch.size();
  for (const std::size_t k : sample_indices(input.batch.size()))
    batch_ok = batch_ok &&
               batch->lookups[k] == expected_answer(live, input.batch[k]);
  run.ledger.record(batch_ok, "batch query");

  start = Clock::now();
  auto alive = [&] {
    const auto span = run.tracer.span("serve.alive_batch");
    return service.query(Query::alive_batch(input.alive, input.day));
  }();
  const double round_alive_ms = elapsed_ms(start);
  alive_ms_ += round_alive_ms;
  alive_asns_ += input.alive.size();
  batch_qps_.add(1000.0 *
                 static_cast<double>(input.batch.size() + input.alive.size()) /
                 (round_batch_ms + round_alive_ms));
  bool alive_ok = alive.ok() && alive->alive.size() == input.alive.size();
  for (const std::size_t k : sample_indices(input.alive.size()))
    alive_ok = alive_ok &&
               alive->alive[k] == expected_alive(live, input.alive[k],
                                                 input.day);
  run.ledger.record(alive_ok, "alive-batch query");

  // One registry or country scan.
  const pl::serve::ScanQuery& scan_query = scans_[rounds_ % scans_.size()];
  start = Clock::now();
  auto scan = [&] {
    const auto span = run.tracer.span("serve.scan");
    return service.query(Query::scan(scan_query));
  }();
  scan_ms_.add(elapsed_ms(start));
  bool scan_ok = scan.ok();
  if (scan_ok) {
    const std::vector<pl::asn::Asn> expected = expected_scan(live, scan_query);
    scan_ok = scan->lookups.size() == expected.size();
    for (std::size_t k = 0; scan_ok && k < expected.size(); ++k)
      scan_ok = scan->lookups[k].asn == expected[k];
    for (const std::size_t k : sample_indices(expected.size()))
      scan_ok = scan_ok &&
                scan->lookups[k] == expected_answer(live, expected[k]);
  }
  run.ledger.record(scan_ok, "scan query");

  // One census.
  start = Clock::now();
  auto census = [&] {
    const auto span = run.tracer.span("serve.census");
    return service.query(Query::census(input.day));
  }();
  census_us_.add(elapsed_us(start));
  bool census_ok = census.ok() && census->census.has_value();
  if (census_ok && rounds_ % kCensusOracleStride == 0)
    census_ok = *census->census == expected_census(live, input.day);
  run.ledger.record(census_ok, "census query");
  ++rounds_;
}

void QueryMix::finish(bool report_lookups) {
  Run& run = run_;
  while (busy_ms_ < 1000.0 * run.sizes.lookup_seconds ||
         rounds_ % scans_.size() != 0) {
    const Clock::time_point start = Clock::now();
    round();
    busy_ms_ += elapsed_ms(start);
  }

  if (!run.traced) {
    if (report_lookups) {
      run.report_median("lookup_us_p50", point_us_, "us");
      run.report_tail("lookup_us_tail", point_us_, "us");
    }
    run.report_median("batch_qps", batch_qps_, "1/s");
    run.report_median("scan_ms_p50", scan_ms_, "ms");
    return;
  }

  if (report_lookups) {
    const pl::obs::Snapshot metrics = service_.report().metrics;
    const auto hits =
        static_cast<double>(metrics.counter_value("pl_serve_cache_hits"));
    const auto misses =
        static_cast<double>(metrics.counter_value("pl_serve_cache_misses"));
    run.report("serve.lookup_ns",
               1e6 * point_ms_ / static_cast<double>(points_), "ns",
               "mean of " + std::to_string(points_));
    run.report("serve.cache_hit_ratio",
               hits + misses > 0 ? hits / (hits + misses) : 0.0, "ratio",
               "hits / (hits + misses)");
    run.report("serve.cache_evictions",
               static_cast<double>(
                   metrics.counter_value("pl_serve_cache_evictions")),
               "count", "whole run");
  }
  run.report("serve.batch_ns_per_asn",
             1e6 * batch_ms_ / static_cast<double>(batch_asns_), "ns",
             std::to_string(rounds_) + " batches");
  run.report("serve.alive_ns_per_asn",
             1e6 * alive_ms_ / static_cast<double>(alive_asns_), "ns",
             std::to_string(rounds_) + " alive-batches");
  run.report_median("serve.scan_ms", scan_ms_, "ms");
  run.report_median("serve.census_us", census_us_, "us");
}

}  // namespace perfbench
