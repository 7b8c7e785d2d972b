// Guards for the shared bench harness helpers (bench/common.hpp).
#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "bench/common.hpp"
#include "obs/export.hpp"

namespace pl::bench {
namespace {

std::vector<std::int32_t> ramp(std::size_t n) {
  std::vector<std::int32_t> series(n);
  std::iota(series.begin(), series.end(), 0);
  return series;
}

TEST(Downsample, NeverOvershootsBudget) {
  // The old floor-stride logic returned up to ~2x `points` values for
  // series just under a multiple of the budget (e.g. 6209 days / 60).
  for (const std::size_t n : {1u, 59u, 60u, 61u, 119u, 120u, 121u, 6209u}) {
    const auto out = downsample(ramp(n), 60);
    EXPECT_LE(out.size(), 61u) << "series length " << n;
    EXPECT_GE(out.size(), std::min<std::size_t>(n, 2u)) << n;
  }
}

TEST(Downsample, AlwaysIncludesFinalDay) {
  for (const std::size_t n : {2u, 61u, 100u, 6209u}) {
    const auto out = downsample(ramp(n), 60);
    ASSERT_FALSE(out.empty());
    EXPECT_EQ(out.front(), 0.0);
    EXPECT_EQ(out.back(), static_cast<double>(n - 1)) << "series " << n;
  }
}

TEST(Downsample, EmptyAndZeroBudgetAreEmpty) {
  EXPECT_TRUE(downsample({}, 60).empty());
  EXPECT_TRUE(downsample(ramp(10), 0).empty());
}

TEST(Downsample, ShortSeriesKeepsEveryValue) {
  const auto out = downsample(ramp(10), 60);
  ASSERT_EQ(out.size(), 10u);
  for (std::size_t i = 0; i < out.size(); ++i)
    EXPECT_EQ(out[i], static_cast<double>(i));
}

TEST(JsonWriter, CompactNestingAndCommas) {
  JsonWriter json(/*pretty=*/false);
  json.begin_object();
  json.key("name").value("bench");
  json.key("count").value(std::int64_t{42});
  json.key("ratio").value(0.5, 2);
  json.key("ok").value(true);
  json.key("list").begin_array();
  json.value(std::int64_t{1}).value(std::int64_t{2});
  json.begin_object().key("nested").value("x").end_object();
  json.end_array();
  json.key("empty").begin_object().end_object();
  json.end_object();

  EXPECT_EQ(json.str(),
            "{\"name\": \"bench\",\"count\": 42,\"ratio\": 0.50,"
            "\"ok\": true,\"list\": [1,2,{\"nested\": \"x\"}],"
            "\"empty\": {}}");
}

TEST(JsonWriter, EscapesStrings) {
  JsonWriter json(/*pretty=*/false);
  json.begin_object();
  json.key("k\"ey").value("line\nbreak\\and\ttab");
  json.end_object();
  EXPECT_EQ(json.str(),
            "{\"k\\\"ey\": \"line\\nbreak\\\\and\\ttab\"}");
}

TEST(JsonWriter, PrettyOutputIndentsByDepth) {
  JsonWriter json;
  json.begin_object();
  json.key("a").begin_array().value(std::int64_t{1}).end_array();
  json.end_object();
  EXPECT_EQ(json.str(), "{\n  \"a\": [\n    1\n  ]\n}");
}

TEST(JsonWriter, PrettyOutputParsesBackAsObsDocument) {
  // The bench artifacts share escaping/structure rules with the obs JSON
  // parser — a pl-obs/1 shaped document written via JsonWriter must be
  // readable by obs::from_json.
  JsonWriter json;
  json.begin_object();
  json.key("schema").value("pl-obs/1");
  json.key("trace").begin_object();
  json.key("name").value("root");
  json.key("start_ms").value(0.0);
  json.key("elapsed_ms").value(1.5, 1);
  json.key("notes").begin_object().key("seed").value(std::int64_t{42});
  json.end_object();
  json.key("children").begin_array().end_array();
  json.end_object();
  json.key("metrics").begin_object();
  json.key("counters").begin_object();
  json.key("pl_x{registry=\"apnic\"}").value(std::int64_t{3});
  json.end_object();
  json.key("gauges").begin_object().end_object();
  json.key("histograms").begin_object().end_object();
  json.end_object();
  json.end_object();

  const auto report = pl::obs::from_json(json.str());
  ASSERT_TRUE(report.has_value()) << json.str();
  EXPECT_EQ(report->trace.name, "root");
  EXPECT_EQ(report->trace.note_value("seed"), 42);
  EXPECT_EQ(report->metrics.counter_sum("pl_x"), 3);
}

// The north-star output invariant: the paper-scale study (scale 1.0, seed
// 42) must keep producing exactly these lifetimes and taxonomy. One serial
// run; any change to an analysis stage's output moves the hash.
TEST(Fingerprint, PaperScaleSeed42IsPinned) {
  pipeline::Config config;
  config.seed = 42;
  config.scale = 1.0;
  EXPECT_EQ(fingerprint(pipeline::run_simulated(config)),
            0x27d029edaaa3d797ULL);
}

}  // namespace
}  // namespace pl::bench
