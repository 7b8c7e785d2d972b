// The top-level facade: one call runs the paper's whole Fig. 1 pipeline.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "pipeline/pipeline.hpp"

namespace pl::pipeline {
namespace {

TEST(Pipeline, RunSimulatedProducesCoherentResult) {
  Config config;
  config.seed = 99;
  config.scale = 0.02;
  const Result result = run_simulated(config);

  EXPECT_GT(result.truth.lives.size(), 500u);
  EXPECT_GT(result.admin.lifetimes.size(), 500u);
  EXPECT_GT(result.op.lifetimes.size(), 500u);
  EXPECT_EQ(result.taxonomy.total_admin(),
            static_cast<std::int64_t>(result.admin.lifetimes.size()));
  EXPECT_EQ(result.taxonomy.total_op(),
            static_cast<std::int64_t>(result.op.lifetimes.size()));
  // All four categories materialize even at small scale.
  EXPECT_GT(result.taxonomy.admin_counts[0], 0);
  EXPECT_GT(result.taxonomy.admin_counts[1], 0);
  EXPECT_GT(result.taxonomy.admin_counts[2], 0);
  EXPECT_GT(result.taxonomy.op_counts[3], 0);
}

TEST(Pipeline, TimeoutKnobChangesOpDataset) {
  Config config;
  config.seed = 99;
  config.scale = 0.01;
  config.op_timeout_days = 5;
  const Result strict = run_simulated(config);
  config.op_timeout_days = 300;
  const Result loose = run_simulated(config);
  EXPECT_GT(strict.op.lifetimes.size(), loose.op.lifetimes.size());
  // The admin dimension is independent of the op timeout.
  EXPECT_EQ(strict.admin.lifetimes.size(), loose.admin.lifetimes.size());
}

TEST(Pipeline, DeterministicUnderSeed) {
  Config config;
  config.seed = 7;
  config.scale = 0.01;
  const Result a = run_simulated(config);
  const Result b = run_simulated(config);
  EXPECT_EQ(a.admin.lifetimes.size(), b.admin.lifetimes.size());
  EXPECT_EQ(a.taxonomy.admin_counts, b.taxonomy.admin_counts);
  config.seed = 8;
  const Result c = run_simulated(config);
  EXPECT_NE(a.admin.lifetimes.size(), c.admin.lifetimes.size());
}

#ifndef PL_OBS_OFF
TEST(Pipeline, TraceCoversEveryStageWithSubstages) {
  Config config;
  config.seed = 99;
  config.scale = 0.02;
  const Result result = run_simulated(config);
  const obs::TraceNode& trace = result.report.trace;

  EXPECT_EQ(trace.name, "pipeline");
  EXPECT_EQ(trace.note_value("seed"), 99);
  // All seven Fig. 1 stages appear as direct children, in stage order.
  const char* stages[] = {"world", "op_world", "render", "restore",
                          "admin", "op",       "taxonomy"};
  ASSERT_EQ(trace.children.size(), std::size(stages));
  for (std::size_t s = 0; s < std::size(stages); ++s)
    EXPECT_EQ(trace.children[s].name, stages[s]) << "stage " << s;

  // Restore fans out per registry (depth 2) with sanitization/ingest
  // ledgers below (depth 3), plus the step-vi reconcile substage.
  const obs::TraceNode* restore = trace.child("restore");
  ASSERT_NE(restore, nullptr);
  for (const asn::Rir rir : asn::kAllRirs) {
    const obs::TraceNode* registry =
        restore->child("registry:" + std::string(asn::file_token(rir)));
    ASSERT_NE(registry, nullptr) << asn::file_token(rir);
    const obs::TraceNode* sanitization = registry->child("sanitization");
    ASSERT_NE(sanitization, nullptr);
    EXPECT_GT(sanitization->note_value("days_processed"), 0);
    EXPECT_NE(registry->child("ingest"), nullptr);
    // The note is the pre-reconcile census (step vi later removes mistaken
    // spans), so it matches the per-registry counter, not the final size.
    EXPECT_EQ(registry->note_value("asns"),
              result.report.metrics.counter_value(
                  "pl_restore_asns{registry=\"" +
                  std::string(asn::file_token(rir)) + "\"}"));
    EXPECT_GE(registry->note_value("asns"),
              static_cast<std::int64_t>(
                  result.restored.registry(rir).spans.size()));
  }
  EXPECT_NE(restore->child("reconcile"), nullptr);

  // Stage ledgers agree with the stage outputs they summarize.
  EXPECT_EQ(trace.child("admin")->note_value("lifetimes"),
            static_cast<std::int64_t>(result.admin.lifetimes.size()));
  EXPECT_EQ(trace.child("op")->note_value("lifetimes"),
            static_cast<std::int64_t>(result.op.lifetimes.size()));
  const obs::TraceNode* taxonomy = trace.child("taxonomy");
  ASSERT_NE(taxonomy, nullptr);
  const obs::TraceNode* admin_classes = taxonomy->child("admin_classes");
  ASSERT_NE(admin_classes, nullptr);
  EXPECT_EQ(admin_classes->note_value("unused"),
            result.taxonomy.admin_counts[2]);

  // StageTimings is a thin view over the same tree.
  EXPECT_DOUBLE_EQ(result.timings.total_ms, trace.elapsed_ms);
  EXPECT_DOUBLE_EQ(result.timings.restore_ms, restore->elapsed_ms);
  const StageTimings reprojected = timings_from_trace(trace);
  EXPECT_DOUBLE_EQ(reprojected.admin_ms, result.timings.admin_ms);
}

TEST(Pipeline, TimingsArePopulated) {
  Config config;
  config.seed = 3;
  config.scale = 0.01;
  const Result result = run_simulated(config);
  EXPECT_GT(result.timings.total_ms, 0.0);
  // The stages run one after another inside the pipeline span, so their
  // sum cannot exceed the total beyond clock rounding.
  const double stage_sum =
      result.timings.world_ms + result.timings.op_world_ms +
      result.timings.render_ms + result.timings.restore_ms +
      result.timings.admin_ms + result.timings.op_ms +
      result.timings.taxonomy_ms;
  EXPECT_LE(stage_sum, result.timings.total_ms * 1.01);
}

TEST(Pipeline, MetricValuesRepeatExactlyUnderChaos) {
  // The observability determinism contract: every metric *value* (counter,
  // gauge, histogram bucket/sum/count — all integers) is bit-identical
  // between runs of one config. Only span timings are exempt.
  Config config;
  config.seed = 23;
  config.scale = 0.02;
  config.inject_chaos = true;
  config.chaos = robust::ChaosConfig::uniform(0.05, 7);
  config.restore.reorder_window_days = 3;
  const Result a = run_simulated(config);
  const Result b = run_simulated(config);
  // Chaos publishes the fault books into the same registry.
  EXPECT_GT(a.report.metrics.counter_value("pl_fault_days_delivered"), 0);
  EXPECT_TRUE(a.robustness.delivery_accounted());
  EXPECT_TRUE(a.robustness.transport_accounted());
  EXPECT_EQ(a.report.metrics, b.report.metrics);
}

TEST(Pipeline, MetricsMirrorStageOutputs) {
  Config config;
  config.seed = 99;
  config.scale = 0.02;
  const Result result = run_simulated(config);
  const obs::Snapshot& metrics = result.report.metrics;

  EXPECT_EQ(metrics.counter_value("pl_admin_lifetimes"),
            static_cast<std::int64_t>(result.admin.lifetimes.size()));
  EXPECT_EQ(metrics.counter_value("pl_op_lifetimes"),
            static_cast<std::int64_t>(result.op.lifetimes.size()));
  EXPECT_GT(metrics.counter_sum("pl_restore_days_processed"), 0);
  EXPECT_EQ(metrics.counter_value("pl_taxonomy_admin{class=\"unused\"}"),
            result.taxonomy.admin_counts[2]);
  EXPECT_EQ(
      metrics.counter_value("pl_taxonomy_op{class=\"outside_delegation\"}"),
      result.taxonomy.op_counts[3]);
  EXPECT_EQ(metrics.gauges.at("pl_admin_asns"),
            static_cast<std::int64_t>(result.admin.asn_count()));
  // No chaos: the fault books stay out of the registry entirely.
  EXPECT_EQ(metrics.counter_sum("pl_fault_days_delivered"), 0);
}

TEST(Pipeline, ReportExportsRoundTripAndReachDisk) {
  const std::string trace_path =
      testing::TempDir() + "pl_pipeline_trace_test.json";
  const std::string prom_path =
      testing::TempDir() + "pl_pipeline_prom_test.txt";
  Config config;
  config.seed = 7;
  config.scale = 0.01;
  config.trace_path = trace_path;
  config.prom_path = prom_path;
  const Result result = run_simulated(config);

  // In-memory round-trip.
  const std::optional<obs::Report> reparsed =
      obs::from_json(obs::to_json(result.report));
  ASSERT_TRUE(reparsed.has_value());
  EXPECT_EQ(reparsed->metrics, result.report.metrics);
  EXPECT_EQ(reparsed->trace.name, result.report.trace.name);
  EXPECT_EQ(reparsed->trace.children.size(),
            result.report.trace.children.size());

  // The files the Config asked for exist and carry the same report.
  std::ifstream trace_in(trace_path);
  ASSERT_TRUE(trace_in.good()) << trace_path;
  std::stringstream trace_json;
  trace_json << trace_in.rdbuf();
  const std::optional<obs::Report> from_disk =
      obs::from_json(trace_json.str());
  ASSERT_TRUE(from_disk.has_value());
  EXPECT_EQ(from_disk->metrics, result.report.metrics);

  std::ifstream prom_in(prom_path);
  ASSERT_TRUE(prom_in.good()) << prom_path;
  std::stringstream prom_text;
  prom_text << prom_in.rdbuf();
  const auto samples = obs::parse_prometheus_samples(prom_text.str());
  EXPECT_EQ(samples.at("pl_admin_lifetimes"),
            result.report.metrics.counter_value("pl_admin_lifetimes"));

  std::remove(trace_path.c_str());
  std::remove(prom_path.c_str());
}
#endif  // PL_OBS_OFF

}  // namespace
}  // namespace pl::pipeline
