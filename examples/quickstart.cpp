// Quickstart: the whole pipeline on a small world, end to end — then serve
// it.
//
//   world -> delegation archive (+defects) -> restoration ->
//   admin lifetimes; behaviour plans -> BGP activity -> op lifetimes;
//   joint taxonomy -> serving snapshot -> queries.
//
// One call into serve::run_simulated_serving runs the same stage wiring the
// tests, benches, and deployments share, plus an eighth traced stage that
// freezes the result into a serve::Snapshot. The example then asks the
// snapshot the questions the paper keeps asking — point lookups, a batch,
// a registry scan, an alive census — through serve::QueryService's unified
// `Query{subject, options}` shape instead of walking the datasets by hand.
// A history::HistoryStore over the trailing days then turns the same
// service into a time machine: `QueryOptions::as_of` answers any recorded
// day by cutting the live working set at it, and drift() diffs the
// taxonomy between two days. Set
// PL_TRACE=run.json (and/or PL_PROM=run.prom) to dump the span tree +
// metrics snapshot.
//
// Run:  ./quickstart [scale] [seed]
//       PL_TRACE=run.json ./quickstart
#include <cstdlib>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "history/store.hpp"
#include "lifetimes/dataset_io.hpp"
#include "lifetimes/sensitivity.hpp"
#include "serve/query.hpp"
#include "serve/serving.hpp"
#include "util/strings.hpp"

int main(int argc, char** argv) {
  using namespace pl;

  const double scale = argc > 1 ? std::atof(argv[1]) : 0.05;
  const std::uint64_t seed = argc > 2 ? std::strtoull(argv[2], nullptr, 10)
                                      : 42;

  std::cout << "building world (scale=" << scale << ", seed=" << seed
            << ")...\n";
  pipeline::Config config;
  config.seed = seed;
  config.scale = scale;
  serve::ServingWorld world = serve::run_simulated_serving(config);
  const pipeline::Result& result = world.result;

  const rirsim::GroundTruth& truth = result.truth;
  std::cout << "  ground truth: " << util::with_commas(
      static_cast<std::int64_t>(truth.lives.size()))
            << " admin lives, "
            << util::with_commas(static_cast<std::int64_t>(
                   truth.lives_by_asn.size()))
            << " ASNs, "
            << util::with_commas(static_cast<std::int64_t>(truth.orgs.size()))
            << " orgs\n";

  const restore::RestoredArchive& restored = result.restored;
  for (asn::Rir rir : asn::kAllRirs) {
    const auto& report = restored.registry(rir).report;
    std::cout << "  restored " << asn::display_name(rir) << ": "
              << report.days_processed << " days, " << report.files_missing
              << " missing files, " << report.recovered_from_regular
              << " records recovered\n";
  }

  // Joint taxonomy (Table 3) straight off the pipeline result.
  const joint::Taxonomy& taxonomy = result.taxonomy;
  std::cout << "\n  taxonomy (admin lives):\n";
  const char* labels[] = {"complete overlap", "partial overlap",
                          "unused admin", "outside delegation"};
  for (int c = 0; c < 4; ++c)
    std::cout << "    " << labels[c] << ": "
              << util::with_commas(taxonomy.admin_counts[
                     static_cast<std::size_t>(c)])
              << " admin / "
              << util::with_commas(taxonomy.op_counts[
                     static_cast<std::size_t>(c)])
              << " op\n";

  // --- Serve it. The snapshot joins both datasets plus the taxonomy and
  // detector verdicts into one per-ASN index; QueryService fronts it with
  // point and batch APIs.
  std::cout << "\n  snapshot: "
            << util::with_commas(static_cast<std::int64_t>(
                   world.snapshot.asn_count()))
            << " ASNs, "
            << util::with_commas(static_cast<std::int64_t>(
                   world.snapshot.admin_life_count()))
            << " admin lives, "
            << util::with_commas(static_cast<std::int64_t>(
                   world.snapshot.op_life_count()))
            << " op lives (built in " << result.timings.build_snapshot_ms
            << " ms)\n";
  serve::QueryService service(std::move(world.snapshot));
  // Every query() returns a StatusOr. The ones below are well-formed, so a
  // failure is a bug worth stopping on; the answer comes back by value.
  const auto ask = [&service](const serve::Query& q) {
    pl::StatusOr<serve::QueryResult> answer = service.query(q);
    if (!answer.ok()) {
      std::cerr << "query failed: " << answer.status().to_string() << "\n";
      std::exit(1);
    }
    return *std::move(answer);
  };

  // Point lookup: the first ASN with both an admin and an op dimension —
  // the "parallel lives" the paper is named for.
  for (const lifetimes::AdminLifetime& first : result.admin.lifetimes) {
    if (lifetimes::asn_run(result.op.lifetimes, first.asn).empty()) continue;
    const serve::AsnAnswer answer =
        ask(serve::Query::lookup(first.asn)).lookups.front();
    std::cout << "\n  lookup(AS" << first.asn.value << "): "
              << answer.admin_life_count << " admin / "
              << answer.op_life_count << " op lives, registered "
              << util::format_iso(answer.latest_registration) << " under "
              << asn::display_name(answer.latest_registry)
              << (answer.currently_allocated ? ", currently allocated"
                                             : ", no longer allocated")
              << (answer.currently_active ? " and active" : "") << "\n";
    std::cout << "    " << lifetimes::admin_record_json(first) << "\n";
    break;
  }

  // Batch lookup: vector-in/vector-out, misses computed in parallel.
  std::vector<asn::Asn> batch;
  for (const serve::AsnRow& row : service.snapshot().rows()) {
    batch.push_back(row.asn);
    if (batch.size() == 64) break;
  }
  const std::vector<serve::AsnAnswer> answers =
      ask(serve::Query::lookup_batch(batch)).lookups;
  std::int64_t transferred = 0;
  for (const serve::AsnAnswer& answer : answers)
    if (answer.transferred) ++transferred;
  std::cout << "  batch of " << answers.size() << " lookups: "
            << transferred << " ASNs ever transferred registries\n";

  // Registry scan + census, the §5 views.
  serve::ScanQuery ripe;
  ripe.registry = asn::Rir::kRipeNcc;
  ripe.limit = 5;
  std::cout << "  first RIPE ASNs: ";
  const serve::QueryResult first_ripe = ask(serve::Query::scan(ripe));
  for (const serve::AsnAnswer& answer : first_ripe.lookups)
    std::cout << "AS" << answer.asn.value << " ";
  const util::Day end = service.snapshot().archive_end();
  const serve::CensusAnswer census = *ask(serve::Query::census(end)).census;
  std::cout << "\n  census on " << util::format_iso(census.day) << ": "
            << util::with_commas(census.admin_alive)
            << " admin lives alive, " << util::with_commas(census.op_alive)
            << " op lives alive\n";

  // --- Time travel. A HistoryStore over the trailing days records every
  // day (keyframe + compact per-day deltas); attaching it opens that range
  // to `QueryOptions::as_of`. The store gates the day but does not answer:
  // the service cuts its live working set at that day, and the answer is
  // bit-identical to rebuilding the study truncated there.
  auto history = history::HistoryStore::build(
      result.restored, result.op_world.activity, end - 10, end);
  if (!history.ok()) {
    std::cerr << "history build failed: " << history.status().to_string()
              << "\n";
    return 1;
  }
  service.attach_history(&*history);
  serve::QueryOptions week_ago;
  week_ago.as_of = end - 7;
  const serve::CensusAnswer then =
      *ask(serve::Query::census(end - 7, week_ago)).census;
  const history::HistoryStats hstats = history->stats();
  std::cout << "  census as of " << util::format_iso(then.day) << ": "
            << util::with_commas(then.admin_alive) << " admin / "
            << util::with_commas(then.op_alive)
            << " op lives alive (cut from the live working set; history "
            << "records " << hstats.keyframes << " keyframes + "
            << hstats.deltas << " deltas, mean delta "
            << static_cast<std::int64_t>(hstats.mean_delta_bytes())
            << " bytes)\n";
  const auto drift = service.drift(end - 7, end);
  if (drift.ok()) {
    std::cout << "  taxonomy drift over the last week:\n";
    for (int c = 0; c < 4; ++c)
      std::cout << "    " << labels[c] << ": "
                << util::with_commas(
                       drift->from_counts[static_cast<std::size_t>(c)])
                << " -> "
                << util::with_commas(
                       drift->to_counts[static_cast<std::size_t>(c)])
                << "\n";
  }

  const lifetimes::TimeoutChoice choice =
      lifetimes::evaluate_choice(result.op_world.activity, result.admin, 30);
  std::cout << "\n  30-day timeout sits at " << util::percent(
      choice.gap_fraction)
            << " of activity gaps and " << util::percent(
                   choice.one_or_less_fraction)
            << " of admin lives with <=1 op life\n";

  // Observability: the pipeline report plus the service's own serve.* view.
  const obs::Snapshot serve_metrics = service.report().metrics;
  std::cout << "\n  observability: "
            << result.report.metrics.counters.size()
            << " pipeline counters; serve queries";
  for (const char* kind : {"point", "batch", "alive", "census", "scan",
                           "as_of", "drift"})
    std::cout << " " << kind << "="
              << serve_metrics.counter_value(
                     std::string("pl_serve_queries{kind=\"") + kind + "\"}");
  std::cout << "; restore stage " << result.timings.restore_ms << " ms of "
            << result.timings.total_ms << " ms total\n";
  if (std::getenv("PL_TRACE") == nullptr &&
      std::getenv("PL_PROM") == nullptr)
    std::cout << "  (PL_TRACE=run.json dumps the span tree + metrics as "
                 "JSON; PL_PROM=run.prom the Prometheus text format)\n";

  std::cout << "\nquickstart OK\n";
  return 0;
}
