// Microbenchmarks (google-benchmark): the hot paths of the pipeline —
// delegation-file parsing/serialization, interval-set algebra, AS-path loop
// detection, the sanitizer, the visibility aggregator, the snapshot codec
// and the day fold (over a pipeline snapshot of a scale-0.02 world;
// scale-1.0 codec times are the `encode`/`decode` spans of
// save_snapshot/open_snapshot, and fold times the `serve.advance_day`
// phases).
#include <benchmark/benchmark.h>

#include "bgp/activity.hpp"
#include "bgp/mrt.hpp"
#include "bgp/rib.hpp"
#include "bgp/sanitizer.hpp"
#include "delegation/archive.hpp"
#include "history/store.hpp"
#include "pipeline/pipeline.hpp"
#include "serve/durable.hpp"
#include "serve/snapshot.hpp"
#include "util/interval_set.hpp"
#include "util/rng.hpp"

namespace {

using namespace pl;

dele::DelegationFile make_file(int records) {
  dele::DelegationFile file;
  file.extended = true;
  file.header.registry = asn::Rir::kRipeNcc;
  file.header.serial = util::make_day(2020, 1, 1);
  file.header.start_date = util::make_day(1984, 1, 1);
  file.header.end_date = util::make_day(2019, 12, 31);
  file.header.record_count = records;
  util::Rng rng(7);
  std::uint32_t next = 100;
  for (int i = 0; i < records; ++i) {
    dele::AsnRecord record;
    record.registry = file.header.registry;
    record.first = asn::Asn{next};
    next += static_cast<std::uint32_t>(rng.uniform(1, 4));
    record.status = dele::Status::kAllocated;
    record.country = asn::CountryCode::literal('D', 'E');
    record.date = util::make_day(2000, 1, 1) +
                  static_cast<util::Day>(rng.uniform(0, 7000));
    record.opaque_id = rng() % 65536 + 1;
    file.asn_records.push_back(record);
  }
  return file;
}

void BM_SerializeDelegationFile(benchmark::State& state) {
  const dele::DelegationFile file =
      make_file(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    const std::string text = dele::serialize(file);
    benchmark::DoNotOptimize(text.data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SerializeDelegationFile)->Arg(1000)->Arg(30000);

void BM_ParseDelegationFile(benchmark::State& state) {
  const std::string text =
      dele::serialize(make_file(static_cast<int>(state.range(0))));
  for (auto _ : state) {
    const dele::ParseResult result = dele::parse_delegation_file(text);
    benchmark::DoNotOptimize(result.file.asn_records.data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(text.size()));
}
BENCHMARK(BM_ParseDelegationFile)->Arg(1000)->Arg(30000);

void BM_DiffSnapshots(benchmark::State& state) {
  const auto before = dele::expand_asn_records(
      make_file(static_cast<int>(state.range(0))));
  auto file_after = make_file(static_cast<int>(state.range(0)));
  // Perturb ~1% of records.
  util::Rng rng(9);
  for (auto& record : file_after.asn_records)
    if (rng.chance(0.01)) record.date = util::make_day(2021, 1, 1);
  const auto after = dele::expand_asn_records(file_after);
  for (auto _ : state) {
    const auto changes = dele::diff_snapshots(before, after);
    benchmark::DoNotOptimize(changes.data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_DiffSnapshots)->Arg(30000);

void BM_IntervalSetAdd(benchmark::State& state) {
  util::Rng rng(11);
  std::vector<util::DayInterval> intervals;
  for (int i = 0; i < state.range(0); ++i) {
    const util::Day first = static_cast<util::Day>(rng.uniform(0, 20000));
    intervals.push_back(
        {first, first + static_cast<util::Day>(rng.uniform(0, 200))});
  }
  for (auto _ : state) {
    util::IntervalSet set;
    for (const util::DayInterval& interval : intervals) set.add(interval);
    benchmark::DoNotOptimize(set.runs().data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_IntervalSetAdd)->Arg(100)->Arg(5000);

void BM_PathLoopDetection(benchmark::State& state) {
  util::Rng rng(13);
  std::vector<bgp::AsPath> paths;
  for (int i = 0; i < 1024; ++i) {
    std::vector<asn::Asn> hops;
    const int length = static_cast<int>(rng.uniform(2, 8));
    for (int h = 0; h < length; ++h)
      hops.push_back(asn::Asn{static_cast<std::uint32_t>(
          rng.uniform(1, 400000))});
    paths.emplace_back(std::move(hops));
  }
  std::size_t index = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(paths[index % paths.size()].has_loop());
    ++index;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PathLoopDetection);

void BM_SanitizerClassify(benchmark::State& state) {
  bgp::Element element;
  element.prefix = *bgp::Prefix::parse("93.184.216.0/20");
  element.path = bgp::AsPath({64500, 3356, 1299, 205334});
  const bgp::Sanitizer sanitizer;
  for (auto _ : state)
    benchmark::DoNotOptimize(sanitizer.classify(element));
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SanitizerClassify);

void BM_VisibilityAggregator(benchmark::State& state) {
  util::Rng rng(17);
  std::vector<bgp::Element> elements;
  for (int i = 0; i < state.range(0); ++i) {
    bgp::Element element;
    element.day = static_cast<util::Day>(rng.uniform(0, 30));
    element.peer = asn::Asn{static_cast<std::uint32_t>(
        3900000000U + rng.uniform(0, 30))};
    element.prefix = bgp::Prefix::ipv4(
        static_cast<std::uint32_t>(rng()), 20);
    element.path = bgp::AsPath(
        {element.peer.value, 3356,
         static_cast<std::uint32_t>(rng.uniform(1, 60000))});
    elements.push_back(std::move(element));
  }
  for (auto _ : state) {
    bgp::VisibilityAggregator aggregator;
    for (const bgp::Element& element : elements)
      aggregator.observe(element);
    benchmark::DoNotOptimize(aggregator.build().asn_count());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_VisibilityAggregator)->Arg(10000);

void BM_ActivityDailyCounts(benchmark::State& state) {
  util::Rng rng(19);
  bgp::ActivityTable table;
  for (int i = 0; i < 50000; ++i) {
    const util::Day first = static_cast<util::Day>(rng.uniform(0, 6000));
    table.mark_active(
        asn::Asn{static_cast<std::uint32_t>(i + 1)},
        util::DayInterval{first,
                          first + static_cast<util::Day>(
                              rng.uniform(0, 2000))});
  }
  for (auto _ : state) {
    const auto counts = table.daily_counts(0, 6500);
    benchmark::DoNotOptimize(counts.data());
  }
}
BENCHMARK(BM_ActivityDailyCounts);

std::vector<bgp::Element> make_elements(int count) {
  util::Rng rng(23);
  std::vector<bgp::Element> elements;
  elements.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    bgp::Element e;
    e.day = static_cast<util::Day>(rng.uniform(12000, 18000));
    e.type = rng.chance(0.1) ? bgp::ElementType::kWithdrawal
                             : bgp::ElementType::kRibEntry;
    e.collector = static_cast<bgp::CollectorId>(rng.uniform(1, 30));
    e.peer = asn::Asn{static_cast<std::uint32_t>(
        3900000000U + rng.uniform(0, 60))};
    e.prefix = bgp::Prefix::ipv4(static_cast<std::uint32_t>(rng()),
                                 static_cast<std::uint8_t>(
                                     rng.uniform(8, 24)));
    if (e.type != bgp::ElementType::kWithdrawal)
      e.path = bgp::AsPath({e.peer.value, 3356,
                            static_cast<std::uint32_t>(
                                rng.uniform(1, 400000))});
    elements.push_back(std::move(e));
  }
  return elements;
}

void BM_MrtEncode(benchmark::State& state) {
  const auto elements = make_elements(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    const auto encoded = bgp::encode_elements(elements);
    benchmark::DoNotOptimize(encoded.data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_MrtEncode)->Arg(100000);

void BM_MrtDecode(benchmark::State& state) {
  const auto encoded =
      bgp::encode_elements(make_elements(static_cast<int>(state.range(0))));
  for (auto _ : state) {
    const auto decoded = bgp::decode_elements(encoded);
    benchmark::DoNotOptimize(decoded->size());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(encoded.size()));
}
BENCHMARK(BM_MrtDecode)->Arg(100000);

void BM_RibReconstruction(benchmark::State& state) {
  const auto elements = make_elements(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    bgp::RibReconstructor reconstructor;
    for (const bgp::Element& element : elements)
      reconstructor.apply(element);
    benchmark::DoNotOptimize(reconstructor.total_routes());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_RibReconstruction)->Arg(50000);

/// A small pipeline run, made once.
const pipeline::Result& pipeline_world() {
  static const pipeline::Result result = [] {
    pipeline::Config config;
    config.seed = 99;
    config.scale = 0.02;
    return pipeline::run_simulated(config);
  }();
  return result;
}

/// A snapshot with its working set, built once from the small pipeline run.
const serve::Snapshot& pipeline_snapshot() {
  static const serve::Snapshot snapshot = [] {
    const pipeline::Result& result = pipeline_world();
    return serve::Snapshot::build(result.restored, result.op_world.activity,
                                  result.truth.archive_end);
  }();
  return snapshot;
}

void BM_SnapshotEncode(benchmark::State& state) {
  const serve::Snapshot& snapshot = pipeline_snapshot();
  std::size_t bytes = 0;
  for (auto _ : state) {
    const std::string frame = serve::encode_snapshot(snapshot);
    bytes = frame.size();
    benchmark::DoNotOptimize(frame.data());
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_SnapshotEncode)->Unit(benchmark::kMillisecond);

void BM_SnapshotDecode(benchmark::State& state) {
  const std::string frame = serve::encode_snapshot(pipeline_snapshot());
  for (auto _ : state) {
    auto decoded = serve::decode_snapshot(frame);
    benchmark::DoNotOptimize(decoded.ok());
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(frame.size()));
}
BENCHMARK(BM_SnapshotDecode)->Unit(benchmark::kMillisecond);

/// Fold the world's last day into the snapshot of the day before: a fresh
/// copy of that snapshot per iteration, outside the timed region.
void BM_AdvanceDay(benchmark::State& state) {
  const pipeline::Result& world = pipeline_world();
  const util::Day day = world.truth.archive_end;
  const serve::Snapshot before = history::HistoryStore::rebuild_at(
      world.restored, world.op_world.activity, day - 1);
  const serve::DayDelta delta = history::HistoryStore::slice_day(
      world.restored, world.op_world.activity, day);
  for (auto _ : state) {
    state.PauseTiming();
    serve::Snapshot snapshot = before;
    state.ResumeTiming();
    benchmark::DoNotOptimize(snapshot.advance_day(delta).ok());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(delta.delegation.size()));
}
BENCHMARK(BM_AdvanceDay)->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
