// Flight recorder + per-query tracing suite (DESIGN.md §14).
//
// Covers the three layers of the observability tentpole:
//   * the ring mechanics — wrap/overwrite accounting, multi-threaded record
//     with deterministic attribution ordering;
//   * the pl-flight/1 file format — dump/load round trip, truncation and
//     bit-flip damage must salvage what survives as kDataLoss and NEVER
//     crash;
//   * the serving integration — every QueryService answer is attributable
//     via its deterministic RequestId, one event per batch slot, and two
//     identical services record identical timelines.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/flight.hpp"
#include "obs/latency.hpp"
#include "pipeline/pipeline.hpp"
#include "serve/query.hpp"
#include "serve/snapshot.hpp"

namespace pl::obs {
namespace {

FlightEvent make_event(std::uint64_t request, EventKind kind,
                       std::uint32_t detail, std::int64_t a) {
  return FlightEvent{request, static_cast<std::uint32_t>(kind), detail, a, 0};
}

// Process-unique temp paths: the _serial/_mt ctest variants run this same
// binary concurrently under ctest -j, and a shared fixed filename would let
// one variant truncate a file another is mid-read on.
std::string temp_path(const std::string& name) {
  return testing::TempDir() + std::to_string(::getpid()) + "_" + name;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return std::move(buffer).str();
}

void spill(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

TEST(FlightRing, WrapOverwritesOldestAndCountsExactly) {
  FlightRecorder recorder(4);
  for (std::int64_t i = 0; i < 10; ++i)
    recorder.record(make_event(100 + i, EventKind::kLookup, 0, i));

  if constexpr (kEnabled) {
    // Single-threaded: every record lands in one ring of capacity 4.
    EXPECT_EQ(recorder.total_recorded(), 10u);
    EXPECT_EQ(recorder.overwritten(), 6u);
    const std::vector<FlightEvent> events = recorder.events();
    ASSERT_EQ(events.size(), 4u);
    // The retained window is the most recent 4, in arrival order.
    for (std::size_t i = 0; i < events.size(); ++i)
      EXPECT_EQ(events[i].a, static_cast<std::int64_t>(6 + i));
  } else {
    EXPECT_EQ(recorder.total_recorded(), 0u);
    EXPECT_TRUE(recorder.events().empty());
  }
}

TEST(FlightRing, ConcurrentRecordLosesNothingBelowCapacity) {
  // 4 threads x 64 events, capacity far above the per-ring worst case:
  // every event must be retained, and attribution() must be bit-identical
  // to the same events recorded serially — the determinism contract.
  constexpr int kThreads = 4;
  constexpr int kPerThread = 64;
  FlightRecorder concurrent(1024);
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&concurrent, t] {
      for (int i = 0; i < kPerThread; ++i) {
        const RequestId id = derive_request_id(
            kQueryStream, static_cast<std::uint64_t>(t),
            static_cast<std::uint64_t>(i));
        concurrent.record(
            make_event(id.value, EventKind::kAlive,
                       query_detail(kCacheNone, 0, 0, true), t * 1000 + i));
      }
    });
  }
  for (std::thread& worker : workers) worker.join();

  FlightRecorder serial(1024);
  for (int t = 0; t < kThreads; ++t)
    for (int i = 0; i < kPerThread; ++i) {
      const RequestId id = derive_request_id(
          kQueryStream, static_cast<std::uint64_t>(t),
          static_cast<std::uint64_t>(i));
      serial.record(make_event(id.value, EventKind::kAlive,
                               query_detail(kCacheNone, 0, 0, true),
                               t * 1000 + i));
    }

  if constexpr (kEnabled) {
    EXPECT_EQ(concurrent.total_recorded(),
              static_cast<std::uint64_t>(kThreads * kPerThread));
    EXPECT_EQ(concurrent.overwritten(), 0u);
    EXPECT_EQ(concurrent.attribution(), serial.attribution());
    // The view honours the documented ordering contract, not arrival order.
    const std::vector<FlightEvent> view = concurrent.attribution();
    EXPECT_TRUE(std::is_sorted(view.begin(), view.end(), attribution_less));
  } else {
    EXPECT_TRUE(concurrent.attribution().empty());
  }
}

TEST(FlightIo, DumpLoadRoundTripsExactly) {
  const std::string path = temp_path("flight_roundtrip.plflight");
  const std::vector<FlightEvent> events = {
      {derive_request_id(kQueryStream, 0, 0).value,
       static_cast<std::uint32_t>(EventKind::kLookup),
       query_detail(kCacheMiss, 5, 0, true), 40, 0},
      {derive_request_id(kQueryStream, 1, 0).value,
       static_cast<std::uint32_t>(EventKind::kAlive),
       query_detail(kCacheHit, 2, 0, false), 41, 1},
      {0, static_cast<std::uint32_t>(EventKind::kCrash), 0xDEADBEEF, 42, 2},
  };
  ASSERT_EQ(write_flight_events(path, events, 17, 3), FlightIoStatus::kOk);

  const FlightRead read = read_flight(path);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read.events, events);
  EXPECT_EQ(read.total_recorded, 17u);
  EXPECT_EQ(read.overwritten, 3u);

  const std::string text = render_flight_text(read);
  EXPECT_NE(text.find("lookup"), std::string::npos);
  EXPECT_NE(text.find("crash"), std::string::npos);
  std::remove(path.c_str());
}

TEST(FlightIo, RecorderDumpIsReadableInEveryBuildMode) {
  FlightRecorder recorder;
  recorder.record(make_event(9, EventKind::kCensus, 0, 123));
  const std::string path = temp_path("flight_recorder_dump.plflight");
  ASSERT_EQ(write_flight(path, recorder), FlightIoStatus::kOk);
  const FlightRead read = read_flight(path);
  ASSERT_TRUE(read.ok());
  if constexpr (kEnabled) {
    ASSERT_EQ(read.events.size(), 1u);
    EXPECT_EQ(read.events[0].a, 123);
  } else {
    EXPECT_TRUE(read.events.empty());  // valid zero-event dump
  }
  std::remove(path.c_str());
}

TEST(FlightIo, MissingFileIsNotFound) {
  const FlightRead read = read_flight(temp_path("no_such.plflight"));
  EXPECT_EQ(read.status, FlightIoStatus::kNotFound);
  EXPECT_TRUE(read.events.empty());
}

TEST(FlightIo, EveryTruncationSalvagesAWholeEventPrefixAndNeverCrashes) {
  const std::string path = temp_path("flight_truncate.plflight");
  std::vector<FlightEvent> events;
  for (std::int64_t i = 0; i < 5; ++i)
    events.push_back(make_event(200 + i, EventKind::kScan, 0, i));
  ASSERT_EQ(write_flight_events(path, events, 5, 0), FlightIoStatus::kOk);
  const std::string intact = slurp(path);

  for (std::size_t keep = 0; keep < intact.size(); ++keep) {
    spill(path, intact.substr(0, keep));
    const FlightRead read = read_flight(path);
    EXPECT_NE(read.status, FlightIoStatus::kOk)
        << "truncation to " << keep << " bytes went unnoticed";
    EXPECT_LE(read.events.size(), events.size());
    for (std::size_t i = 0; i < read.events.size(); ++i)
      EXPECT_EQ(read.events[i], events[i])
          << "salvage at " << keep << " bytes is not a prefix";
  }
  std::remove(path.c_str());
}

TEST(FlightIo, EveryBitFlipIsDataLossNeverACrash) {
  const std::string path = temp_path("flight_bitflip.plflight");
  const std::vector<FlightEvent> events = {
      make_event(300, EventKind::kCheckpoint, 0, 5),
      make_event(301, EventKind::kQuarantine, 7, 6),
  };
  ASSERT_EQ(write_flight_events(path, events, 2, 0), FlightIoStatus::kOk);
  const std::string intact = slurp(path);

  for (std::size_t at = 0; at < intact.size(); ++at) {
    std::string damaged = intact;
    damaged[at] = static_cast<char>(damaged[at] ^ 0x40);
    spill(path, damaged);
    const FlightRead read = read_flight(path);
    // CRC32 detects any single-byte flip in the payload; flips in the
    // header fail the frame checks. Either way the reader reports damage
    // (and salvages whole events) instead of trusting the bytes.
    EXPECT_EQ(read.status, FlightIoStatus::kDataLoss)
        << "bit flip at byte " << at << " went unnoticed";
    EXPECT_LE(read.events.size(),
              events.size() + 1);  // a flipped count can over-promise
  }
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Serving integration: attributable queries.

serve::Snapshot small_snapshot() {
  pipeline::Config config;
  config.seed = 77;
  config.scale = 0.01;
  const pipeline::Result result = pipeline::run_simulated(config);
  return serve::Snapshot::build(result.restored, result.op_world.activity,
                                result.truth.archive_end);
}

/// The full query workload both services run: points, batches (one with
/// repeated ASNs), census, scan. Returns the RequestId every answer must
/// carry — one per point query and one per batch slot, derived from the
/// call's sequence number and the slot index alone.
std::vector<std::uint64_t> run_workload(serve::QueryService& service) {
  using serve::Query;
  std::vector<std::uint64_t> ids;
  std::uint64_t seq = 0;
  const auto ask = [&](const Query& q, std::size_t answers) {
    EXPECT_TRUE(service.query(q).ok());
    for (std::size_t i = 0; i < answers; ++i)
      ids.push_back(derive_request_id(kQueryStream, seq, i).value);
    ++seq;
  };
  std::vector<asn::Asn> asns;
  for (std::uint32_t v = 1; v <= 8; ++v) asns.push_back(asn::Asn{v * 1000});
  for (const asn::Asn asn : asns) ask(Query::lookup(asn), 1);
  ask(Query::lookup_batch(asns), asns.size());
  std::vector<asn::Asn> repeated = asns;
  repeated.insert(repeated.end(), asns.begin(), asns.begin() + 3);
  repeated.push_back(asns.front());
  ask(Query::lookup_batch(repeated), repeated.size());
  const util::Day day = service.snapshot().archive_end();
  for (const asn::Asn asn : asns) ask(Query::alive(asn, day), 1);
  ask(Query::alive_batch(repeated, day), repeated.size());
  ask(Query::census(day), 1);
  serve::ScanQuery scan;
  scan.first = asn::Asn{0};
  scan.last = asn::Asn{50000};
  scan.limit = 10;
  ask(Query::scan(scan), 1);
  return ids;
}

TEST(QueryAttribution, IdenticalServicesRecordIdenticalTimelines) {
  const serve::Snapshot snapshot = small_snapshot();
  serve::QueryService first(snapshot);
  serve::QueryService second(snapshot);

  std::vector<std::uint64_t> expected = run_workload(first);
  EXPECT_EQ(run_workload(second), expected);

  const std::vector<FlightEvent> a = first.flight().attribution();
  const std::vector<FlightEvent> b = second.flight().attribution();

  if constexpr (!kEnabled) {
    EXPECT_TRUE(a.empty());
    EXPECT_TRUE(b.empty());
    return;
  }

  // No overwrites at this volume, and the two timelines are bit-identical:
  // what was answered cannot depend on which service computed it.
  EXPECT_EQ(first.flight().overwritten(), 0u);
  EXPECT_EQ(a, b);

  // One event per point query and per batch slot (repeats included), each
  // carrying exactly the id derived from (sequence, slot).
  ASSERT_EQ(a.size(), expected.size());
  std::vector<std::uint64_t> recorded;
  for (const FlightEvent& event : a) recorded.push_back(event.request);
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(recorded, expected);

  // Every query event carries the uncached detail bits: kCacheNone and
  // shard 0, with only the status/found fields set.
  for (const FlightEvent& event : a) {
    EXPECT_EQ(detail_cache(event.detail), kCacheNone);
    EXPECT_EQ(detail_shard(event.detail), 0u);
  }
}

TEST(QueryAttribution, BatchItemsGetDistinctRequestIds) {
  const serve::Snapshot snapshot = small_snapshot();
  serve::QueryService service(snapshot);
  std::vector<asn::Asn> asns;
  for (std::uint32_t v = 1; v <= 16; ++v) asns.push_back(asn::Asn{v * 500});
  ASSERT_TRUE(service.query(serve::Query::lookup_batch(asns)).ok());

  if constexpr (!kEnabled) {
    EXPECT_TRUE(service.flight().events().empty());
    return;
  }
  const std::vector<FlightEvent> events = service.flight().events();
  ASSERT_EQ(events.size(), asns.size());
  std::set<std::uint64_t> ids;
  for (const FlightEvent& event : events) ids.insert(event.request);
  EXPECT_EQ(ids.size(), asns.size()) << "request ids collide within a batch";
  // And they are exactly the derived ids for sequence 0, items 0..15.
  for (std::size_t i = 0; i < asns.size(); ++i)
    EXPECT_TRUE(ids.contains(
        derive_request_id(kQueryStream, 0, static_cast<std::uint64_t>(i))
            .value));
}

TEST(QueryAttribution, LatencyHistogramsPopulateForServePaths) {
  const serve::Snapshot snapshot = small_snapshot();
  serve::QueryService service(snapshot);
  std::vector<asn::Asn> asns;
  for (std::uint32_t v = 1; v <= 8; ++v) asns.push_back(asn::Asn{v * 1000});
  ASSERT_TRUE(service.query(serve::Query::lookup_batch(asns)).ok());
  ASSERT_TRUE(service.query(
      serve::Query::alive_batch(asns, snapshot.archive_end())).ok());
  ASSERT_TRUE(
      service.query(serve::Query::census(snapshot.archive_end())).ok());

  const Snapshot metrics = service.report().metrics;
  if constexpr (!kEnabled) {
    EXPECT_TRUE(metrics.latencies.empty());
    return;
  }
  const auto batch =
      metrics.latencies.find("pl_serve_latency_ns{kind=\"batch\"}");
  ASSERT_NE(batch, metrics.latencies.end());
  EXPECT_EQ(batch->second.count, 1);
  EXPECT_GT(batch->second.percentile(0.50), 0);
  // The alive batch times into the alive histogram, not the batch one.
  const auto alive =
      metrics.latencies.find("pl_serve_latency_ns{kind=\"alive\"}");
  ASSERT_NE(alive, metrics.latencies.end());
  EXPECT_EQ(alive->second.count, 1);
  const auto census =
      metrics.latencies.find("pl_serve_latency_ns{kind=\"census\"}");
  ASSERT_NE(census, metrics.latencies.end());
  EXPECT_EQ(census->second.count, 1);
}

}  // namespace
}  // namespace pl::obs
