// Self-tests of the benchmark's own machinery: the tail-sample rule, the
// determinism of the seeded input generators, and the oracles' ability to
// catch a corrupted answer. Runs a small world (scale 0.02), so it finishes
// in seconds:
//
//   python3 perfbench/run.py --selftest

#include <algorithm>
#include <cstdio>
#include <set>
#include <string>

#include "bench/host.hpp"
#include "bench/inputs.hpp"
#include "bench/oracle.hpp"
#include "bench/run.hpp"
#include "bench/stats.hpp"
#include "bench/study.hpp"
#include "bench/trace.hpp"
#include "history/store.hpp"
#include "serve/query.hpp"
#include "serve/snapshot.hpp"

namespace {

using namespace perfbench;

int g_checks = 0;
int g_failures = 0;

void check(bool ok, const std::string& what) {
  ++g_checks;
  if (ok) return;
  ++g_failures;
  std::printf("FAIL: %s\n", what.c_str());
}

void test_tail_rule() {
  check(!tail_percentile(9).has_value(), "9 samples have no tail");
  check(!tail_percentile(19).has_value(), "19 samples have no tail");
  check(tail_percentile(20) == 50.0, "20 samples: p50");
  check(tail_percentile(39) == 50.0, "39 samples: p50");
  check(tail_percentile(40) == 75.0, "40 samples: p75");
  check(tail_percentile(100) == 90.0, "100 samples: p90");
  check(tail_percentile(200) == 95.0, "200 samples: p95");
  check(tail_percentile(1000) == 99.0, "1000 samples: p99");
  // The chosen rung always has ten samples beyond it, and no higher rung
  // does.
  for (std::size_t n = 20; n <= 5000; ++n) {
    const std::optional<double> p = tail_percentile(n);
    if (!p) {
      check(false, "no tail for n=" + std::to_string(n));
      continue;
    }
    check(samples_beyond(n, *p) >= kTailMinBeyond,
          "tail rung keeps ten beyond, n=" + std::to_string(n));
    for (const double higher : kTailLadder)
      if (higher > *p)
        check(samples_beyond(n, higher) < kTailMinBeyond,
              "tail is the highest rung, n=" + std::to_string(n));
  }
  Samples samples;
  for (int v = 40; v >= 1; --v) samples.add(v);
  const std::optional<Samples::Tail> tail = samples.tail();
  check(tail && tail->percentile == 75.0 && tail->value == 30.0 &&
            tail->beyond == 10,
        "p75 of 1..40 is 30 with 10 beyond");
  check(samples.median() == 20.5, "median of 1..40");
  Samples few;
  for (int v = 0; v < 12; ++v) few.add(v);
  check(!few.tail().has_value(), "12 samples report no tail");
}

pl::pipeline::Result small_world(std::uint64_t seed) {
  pl::pipeline::Config config = study_config(seed);
  config.scale = 0.02;
  return pl::pipeline::run_simulated(config);
}

/// The world served as of a year before its archive end, so the ASNs first
/// seen in that year are unknown to it.
pl::serve::Snapshot served_snapshot(const pl::pipeline::Result& world) {
  return pl::history::HistoryStore::rebuild_at(
      world.restored, world.op_world.activity, world.truth.archive_end - 365);
}

void test_generators(const pl::pipeline::Result& world,
                     const pl::serve::Snapshot& snapshot) {
  check(derive_seed(7, "a") == derive_seed(7, "a"), "derive_seed is pure");
  check(derive_seed(7, "a") != derive_seed(7, "b"), "streams differ");
  check(derive_seed(7, "a") != derive_seed(8, "a"), "seeds differ");

  const std::vector<pl::asn::Asn> universe =
      key_universe(snapshot, world.admin, world.op);
  check(universe == key_universe(snapshot, world.admin, world.op),
        "key_universe is deterministic");
  check(std::is_sorted(universe.begin(), universe.end()) &&
            std::adjacent_find(universe.begin(), universe.end()) ==
                universe.end(),
        "universe sorted, no duplicates");
  std::set<std::uint32_t> in_world;
  for (const auto& life : world.admin.lifetimes)
    in_world.insert(life.asn.value);
  for (const auto& life : world.op.lifetimes) in_world.insert(life.asn.value);
  std::size_t unknown = 0;
  bool unknown_from_world = true;
  for (const pl::asn::Asn asn : universe) {
    if (snapshot.find(asn) != nullptr) continue;
    ++unknown;
    unknown_from_world = unknown_from_world && in_world.count(asn.value) == 1;
  }
  check(universe.size() == snapshot.asn_count() + unknown,
        "universe = known ASNs + ASNs the snapshot does not know yet");
  check(unknown > 0, "some keys take the not-found path");
  check(unknown_from_world, "not-found keys are ASNs of the world");

  const auto zipf_draw = [&](std::uint64_t seed) {
    pl::util::Rng rng(seed);
    const ZipfKeys zipf(universe, 1.1, rng);
    return std::make_pair(zipf.ranked(), zipf.draw(20000, rng));
  };
  const auto [ranked, draws] = zipf_draw(5);
  check(zipf_draw(5).second == draws, "Zipf draws are deterministic");
  check(zipf_draw(6).first != ranked, "Zipf rank order follows the seed");
  const std::size_t top = static_cast<std::size_t>(
      std::count(draws.begin(), draws.end(), ranked.front()));
  const std::size_t tenth = static_cast<std::size_t>(
      std::count(draws.begin(), draws.end(), ranked[9]));
  check(top > 5 * std::max<std::size_t>(tenth, 1),
        "Zipf: rank 1 is drawn far more often than rank 10");

  pl::util::Rng a(9);
  pl::util::Rng b(9);
  check(uniform_keys(universe, 500, a) == uniform_keys(universe, 500, b),
        "uniform keys are deterministic");

  const pl::util::Day base = 1000;
  const pl::util::Day last = 1039;
  pl::util::Rng d1(3);
  pl::util::Rng d2(3);
  const std::vector<pl::util::Day> days = as_of_days(base, last, 16, 4, d1);
  check(days == as_of_days(base, last, 16, 4, d2), "as_of days deterministic");
  check(days.size() == 4, "four as_of days");
  check(std::is_sorted(days.rbegin(), days.rend()), "as_of days newest first");
  std::multiset<int> distances;
  for (const pl::util::Day day : days) {
    check(day >= base && day <= last, "as_of day within the recorded range");
    distances.insert((day - base) % 16);
  }
  check(distances == std::multiset<int>{2, 6, 10, 14},
        "as_of days are stratified by keyframe distance");
  bool differs = false;
  for (std::uint64_t seed = 4; seed < 12 && !differs; ++seed) {
    pl::util::Rng other(seed);
    differs = as_of_days(base, last, 16, 4, other) != days;
  }
  check(differs, "as_of windows follow the seed");

  InputHash h1;
  InputHash h2;
  h1.mix(draws);
  h2.mix(draws);
  check(h1.value() == h2.value(), "input hash is deterministic");
  std::vector<pl::asn::Asn> changed = draws;
  changed.back().value ^= 1;
  InputHash h3;
  h3.mix(changed);
  check(h3.value() != h1.value(), "input hash sees a changed key");
}

/// Host-speed scaling divides timings, multiplies rates, leaves counts,
/// bytes and ratios alone, and keeps the measured value beside the scaled.
void test_host_scaling() {
  Run run(Workload::kStudy, 1, 1, false, "unused");
  for (int i = 0; i < 5; ++i) run.host.sample();
  check(run.host.samples().count() == 5, "five kernel passes");
  const double slowdown = run.host.slowdown();
  check(slowdown > 0, "positive slowdown");
  run.report("t", 10.0, "ms");
  run.report("q", 10.0, "1/s");
  run.report("b", 10.0, "bytes");
  run.report("r", 1.0, "ratio");
  run.scale_to_reference();
  check(run.metrics[0].value == 10.0 / slowdown, "timings are divided");
  check(run.metrics[1].value == 10.0 * slowdown, "rates are multiplied");
  check(run.metrics[2].value == 10.0 && run.metrics[3].value == 1.0,
        "bytes and ratios are not scaled");
  check(run.metrics[0].measured == 10.0, "the measured value is kept");
  HostSpeed again;
  check(again.checksum() == run.host.checksum(),
        "the kernel computes the same result every pass");
}

void test_oracles(const pl::pipeline::Result& result) {
  const pl::serve::Snapshot snapshot = served_snapshot(result);
  pl::serve::QueryService service(snapshot);
  pl::util::Rng rng(11);
  const std::vector<pl::asn::Asn> keys = uniform_keys(
      key_universe(snapshot, result.admin, result.op), 2000, rng);
  auto answers = service.query(pl::serve::Query::lookup_batch(keys));
  check(answers.ok() && answers_match(snapshot, keys, answers->lookups),
        "service answers match the linear-scan oracle");
  std::size_t known = 0;
  for (const auto& answer : answers->lookups) known += answer.known;
  check(known > 0 && known < keys.size(), "keys hit and miss");

  // Each single-field corruption of one answer must be caught.
  const auto first_known = std::find_if(
      answers->lookups.begin(), answers->lookups.end(),
      [](const pl::serve::AsnAnswer& a) { return a.known; });
  const std::size_t at =
      static_cast<std::size_t>(first_known - answers->lookups.begin());
  const std::vector<void (*)(pl::serve::AsnAnswer&)> corruptions = {
      [](pl::serve::AsnAnswer& a) { a.known = !a.known; },
      [](pl::serve::AsnAnswer& a) { ++a.admin_life_count; },
      [](pl::serve::AsnAnswer& a) { a.currently_active = !a.currently_active; },
      [](pl::serve::AsnAnswer& a) { ++a.latest_registration; },
      [](pl::serve::AsnAnswer& a) { a.asn.value += 1; },
  };
  for (std::size_t c = 0; c < corruptions.size(); ++c) {
    std::vector<pl::serve::AsnAnswer> corrupted = answers->lookups;
    corruptions[c](corrupted[at]);
    check(!answers_match(snapshot, keys, corrupted),
          "oracle catches corruption " + std::to_string(c));
  }

  pl::serve::ScanQuery scan;
  scan.registry = pl::asn::Rir::kRipeNcc;
  auto scanned = service.query(pl::serve::Query::scan(scan));
  std::vector<pl::asn::Asn> got;
  for (const auto& answer : scanned->lookups) got.push_back(answer.asn);
  const std::vector<pl::asn::Asn> expected = expected_scan(snapshot, scan);
  check(!expected.empty() && got == expected, "scan matches the oracle");
  got.pop_back();
  check(got != expected, "scan oracle catches a dropped row");

  const std::uint64_t fp = study_fingerprint(result.admin, result.op,
                                             result.taxonomy, result.robustness);
  pl::lifetimes::AdminDataset admin = result.admin;
  admin.lifetimes.front().days.last += 1;
  check(study_fingerprint(admin, result.op, result.taxonomy,
                          result.robustness) != fp,
        "fingerprint catches a shifted life");
}

void test_composed_study(const pl::pipeline::Result& reference) {
  pl::pipeline::Config config = study_config(3);
  config.scale = 0.02;
  Tracer tracer(true);
  const ComposedStudy composed = run_composed_study(config, tracer);
  check(study_fingerprint(composed.result.admin, composed.result.op,
                          composed.result.taxonomy,
                          composed.result.robustness) ==
            study_fingerprint(reference.admin, reference.op,
                              reference.taxonomy, reference.robustness),
        "composed study == run_simulated");
  check(tracer.spans().size() == 8, "one span per composed stage");
  const auto self = tracer.self_ms_by_layer();
  check(self.count("rirsim") && self.count("restore") && self.count("joint"),
        "self time per layer");
}

}  // namespace

int main() {
  test_tail_rule();
  test_host_scaling();
  const pl::pipeline::Result world = small_world(3);
  test_generators(world, served_snapshot(world));
  test_oracles(world);
  test_composed_study(world);
  std::printf("perfbench selftest: %d checks, %d failed\n", g_checks,
              g_failures);
  return g_failures == 0 ? 0 : 1;
}
