// Unit guards for the observability layer: registry semantics, histogram
// bucket edges, span nesting, and the JSON / Prometheus exporter
// round-trips. The whole suite assumes the observability layer is compiled
// in (the PL_OBS_OFF shells are exercised by obs_off_check instead).
#include <gtest/gtest.h>

#include <map>
#include <thread>
#include <utility>
#include <vector>

#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"

namespace pl::obs {
namespace {

// TraceNode::child() points into the node it is called on, so it binds
// only to lvalues: `service.report().trace.child(...)` must not compile.
template <typename Node>
concept ChildCallable =
    requires(Node&& node) { std::forward<Node>(node).child("x"); };
static_assert(ChildCallable<const TraceNode&>);
static_assert(ChildCallable<TraceNode&>);
static_assert(!ChildCallable<TraceNode>);
static_assert(!ChildCallable<const TraceNode>);

#ifndef PL_OBS_OFF

TEST(Registry, CountersAccumulateAndSnapshotSorted) {
  Registry registry;
  registry.counter("b_second").add(2);
  registry.counter("a_first").add(1);
  registry.counter("b_second").add(3);

  const Snapshot snap = registry.snapshot();
  ASSERT_EQ(snap.counters.size(), 2u);
  EXPECT_EQ(snap.counter_value("a_first"), 1);
  EXPECT_EQ(snap.counter_value("b_second"), 5);
  EXPECT_EQ(snap.counter_value("absent"), 0);
  // std::map iteration is the deterministic serial order exporters rely on.
  EXPECT_EQ(snap.counters.begin()->first, "a_first");
}

TEST(Registry, CounterReferencesAreStable) {
  Registry registry;
  Counter& counter = registry.counter("stable");
  // Creating many other metrics must not invalidate the hoisted reference.
  for (int i = 0; i < 100; ++i)
    registry.counter("filler_" + std::to_string(i)).add(1);
  counter.add(7);
  EXPECT_EQ(registry.snapshot().counter_value("stable"), 7);
  EXPECT_EQ(&registry.counter("stable"), &counter);
}

TEST(Registry, GaugeIsLastWriteWins) {
  Registry registry;
  registry.gauge("level").set(10);
  registry.gauge("level").set(4);
  EXPECT_EQ(registry.snapshot().gauges.at("level"), 4);
}

TEST(Registry, CounterSumAggregatesLabelsOnly) {
  Registry registry;
  registry.counter("pl_days{registry=\"apnic\"}").add(3);
  registry.counter("pl_days{registry=\"ripencc\"}").add(4);
  registry.counter("pl_days").add(1);
  registry.counter("pl_days_other").add(100);  // prefix but not a label

  const Snapshot snap = registry.snapshot();
  EXPECT_EQ(snap.counter_sum("pl_days"), 8);
  EXPECT_EQ(snap.counter_sum("pl_days_other"), 100);
  EXPECT_EQ(snap.counter_sum("pl_nothing"), 0);
}

TEST(Registry, ConcurrentAddsSumExactly) {
  Registry registry;
  Counter& counter = registry.counter("hot");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&counter] {
      for (int i = 0; i < kPerThread; ++i) counter.add(1);
    });
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(counter.value(), kThreads * kPerThread);
}

TEST(Histogram, BucketEdgesAreInclusiveUpperBounds) {
  Registry registry;
  Histogram& histogram = registry.histogram("h", {10, 20});
  histogram.observe(0);    // <= 10
  histogram.observe(10);   // == bound: first bucket (inclusive)
  histogram.observe(11);   // second bucket
  histogram.observe(20);   // == bound: second bucket
  histogram.observe(21);   // overflow
  histogram.observe(1000); // overflow

  const HistogramSnapshot snap = registry.snapshot().histograms.at("h");
  ASSERT_EQ(snap.bounds, (std::vector<std::int64_t>{10, 20}));
  ASSERT_EQ(snap.buckets, (std::vector<std::int64_t>{2, 2, 2}));
  EXPECT_EQ(snap.count, 6);
  EXPECT_EQ(snap.sum, 0 + 10 + 11 + 20 + 21 + 1000);
}

TEST(Histogram, UnsortedBoundsAreSortedOnConstruction) {
  Registry registry;
  Histogram& histogram = registry.histogram("h", {100, 1, 10});
  EXPECT_EQ(histogram.bounds(), (std::vector<std::int64_t>{1, 10, 100}));
  histogram.observe(5);
  const HistogramSnapshot snap = registry.snapshot().histograms.at("h");
  EXPECT_EQ(snap.buckets, (std::vector<std::int64_t>{0, 1, 0, 0}));
}

TEST(Histogram, FirstRegistrationFixesBounds) {
  Registry registry;
  registry.histogram("h", {1, 2});
  Histogram& again = registry.histogram("h", {99});
  EXPECT_EQ(again.bounds(), (std::vector<std::int64_t>{1, 2}));
}

TEST(Span, TreeNestsAndCarriesNotes) {
  Trace trace;
  {
    Span root = trace.root("pipeline");
    root.note("seed", 42);
    {
      Span stage = root.child("restore");
      Span registry = stage.child("registry:apnic");
      registry.note("asns", 17);
      Span sanitization = registry.child("sanitization");
      sanitization.note("days_processed", 365);
    }
    Span other = root.child("taxonomy");
  }

  const TraceNode tree = trace.tree();
  EXPECT_EQ(tree.name, "pipeline");
  EXPECT_EQ(tree.note_value("seed"), 42);
  ASSERT_EQ(tree.children.size(), 2u);
  const TraceNode* restore = tree.child("restore");
  ASSERT_NE(restore, nullptr);
  const TraceNode* registry = restore->child("registry:apnic");
  ASSERT_NE(registry, nullptr);
  EXPECT_EQ(registry->note_value("asns"), 17);
  const TraceNode* sanitization = registry->child("sanitization");
  ASSERT_NE(sanitization, nullptr);
  EXPECT_EQ(sanitization->note_value("days_processed"), 365);
  EXPECT_EQ(sanitization->note_value("absent"), 0);
  EXPECT_NE(tree.child("taxonomy"), nullptr);
  EXPECT_EQ(tree.child("nope"), nullptr);
  // All spans are finished: every node reports a non-negative wall clock.
  EXPECT_GE(tree.elapsed_ms, 0.0);
  EXPECT_GE(sanitization->elapsed_ms, 0.0);
}

TEST(Span, MovedFromAndDefaultSpansAreInert) {
  Trace trace;
  Span root = trace.root("root");
  Span moved = std::move(root);
  root.note("ignored", 1);             // moved-from: no-op
  Span inert;
  inert.note("ignored", 2);            // default-constructed: no-op
  Span child = inert.child("nothing"); // inert child of inert span
  child.note("ignored", 3);
  moved.note("kept", 4);
  moved.finish();
  moved.note("after_finish", 5);       // finished: no-op

  const TraceNode tree = trace.tree();
  EXPECT_EQ(tree.name, "root");
  EXPECT_EQ(tree.notes.size(), 1u);
  EXPECT_EQ(tree.note_value("kept"), 4);
  EXPECT_TRUE(tree.children.empty());
}

TEST(Span, WorkersMayFinishPreCreatedSpans) {
  // The pipeline's discipline: parent creates per-shard spans serially,
  // each worker notes and finishes its own.
  Trace trace;
  Span root = trace.root("root");
  constexpr int kShards = 4;
  std::vector<Span> shards;
  for (int i = 0; i < kShards; ++i)
    shards.push_back(root.child("shard:" + std::to_string(i)));
  std::vector<std::thread> workers;
  for (int i = 0; i < kShards; ++i)
    workers.emplace_back([&shards, i] {
      Span detail = shards[static_cast<std::size_t>(i)].child("work");
      detail.note("index", i);
      detail.finish();
      shards[static_cast<std::size_t>(i)].finish();
    });
  for (std::thread& worker : workers) worker.join();
  root.finish();

  const TraceNode tree = trace.tree();
  ASSERT_EQ(tree.children.size(), static_cast<std::size_t>(kShards));
  for (int i = 0; i < kShards; ++i) {
    const TraceNode* shard = tree.child("shard:" + std::to_string(i));
    ASSERT_NE(shard, nullptr);
    const TraceNode* work = shard->child("work");
    ASSERT_NE(work, nullptr);
    EXPECT_EQ(work->note_value("index"), i);
  }
}

Report sample_report() {
  Registry registry;
  registry.counter("pl_restore_days_processed{registry=\"apnic\"}").add(123);
  registry.counter("pl_restore_days_processed{registry=\"ripencc\"}").add(45);
  registry.counter("pl_plain").add(-7);  // negative survives the round-trip
  registry.gauge("pl_admin_asns").set(99);
  registry.histogram("pl_admin_duration_days", {30, 365}).observe(12);
  registry.histogram("pl_admin_duration_days", {}).observe(400);

  Trace trace;
  {
    Span root = trace.root("pipeline");
    root.note("seed", 42);
    Span stage = root.child("restore \"quoted\"\n");  // exercises escaping
    stage.note("days", 365);
  }
  return Report{trace.tree(), registry.snapshot()};
}

void expect_same_tree(const TraceNode& a, const TraceNode& b) {
  EXPECT_EQ(a.name, b.name);
  EXPECT_DOUBLE_EQ(a.start_ms, b.start_ms);
  EXPECT_DOUBLE_EQ(a.elapsed_ms, b.elapsed_ms);
  // Note order is not preserved (the parser sorts); values must be.
  const std::map<std::string, std::int64_t> notes_a(a.notes.begin(),
                                                    a.notes.end());
  const std::map<std::string, std::int64_t> notes_b(b.notes.begin(),
                                                    b.notes.end());
  EXPECT_EQ(notes_a, notes_b);
  ASSERT_EQ(a.children.size(), b.children.size());
  for (std::size_t i = 0; i < a.children.size(); ++i)
    expect_same_tree(a.children[i], b.children[i]);
}

TEST(JsonExport, RoundTripsLosslessly) {
  const Report report = sample_report();
  const std::string json = to_json(report);
  const std::optional<Report> parsed = from_json(json);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->metrics, report.metrics);
  expect_same_tree(parsed->trace, report.trace);
}

TEST(JsonExport, RejectsMalformedAndWrongSchema) {
  EXPECT_FALSE(from_json("").has_value());
  EXPECT_FALSE(from_json("{").has_value());
  EXPECT_FALSE(from_json("{\"schema\":\"pl-obs/999\"}").has_value());
  const std::string json = to_json(sample_report());
  EXPECT_FALSE(from_json(json.substr(0, json.size() - 5)).has_value());
  EXPECT_FALSE(from_json(json + "trailing").has_value());
}

TEST(PrometheusExport, SamplesRoundTrip) {
  const Report report = sample_report();
  const std::string text = to_prometheus(report.metrics);
  const std::map<std::string, std::int64_t> samples =
      parse_prometheus_samples(text);

  EXPECT_EQ(
      samples.at("pl_restore_days_processed{registry=\"apnic\"}"), 123);
  EXPECT_EQ(
      samples.at("pl_restore_days_processed{registry=\"ripencc\"}"), 45);
  EXPECT_EQ(samples.at("pl_plain"), -7);
  EXPECT_EQ(samples.at("pl_admin_asns"), 99);
  // Histogram explodes into the cumulative triple.
  EXPECT_EQ(samples.at("pl_admin_duration_days_bucket{le=\"30\"}"), 1);
  EXPECT_EQ(samples.at("pl_admin_duration_days_bucket{le=\"365\"}"), 1);
  EXPECT_EQ(samples.at("pl_admin_duration_days_bucket{le=\"+Inf\"}"), 2);
  EXPECT_EQ(samples.at("pl_admin_duration_days_sum"), 412);
  EXPECT_EQ(samples.at("pl_admin_duration_days_count"), 2);
}

TEST(PrometheusExport, EmitsOneTypeLinePerBase) {
  const std::string text = to_prometheus(sample_report().metrics);
  std::size_t type_lines = 0;
  std::size_t pos = 0;
  while ((pos = text.find("# TYPE pl_restore_days_processed ", pos)) !=
         std::string::npos) {
    ++type_lines;
    pos += 1;
  }
  EXPECT_EQ(type_lines, 1u) << text;
}

#endif  // PL_OBS_OFF

}  // namespace
}  // namespace pl::obs
