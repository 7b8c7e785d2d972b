#include "pipeline/pipeline.hpp"

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <utility>
#include <vector>

#include "check/contracts.hpp"
#include "delegation/fault_stream.hpp"
#include "delegation/interchange.hpp"
#include "obs/export.hpp"
#include "obs/flight.hpp"
#include "obs/span.hpp"
#include "util/intern.hpp"

namespace pl::pipeline {

namespace {

/// Resolve an output path: explicit config wins, else the environment
/// variable, else disabled (empty).
std::string resolve_path(const std::string& configured, const char* env) {
  if (!configured.empty()) return configured;
  const char* value = std::getenv(env);
  return value == nullptr ? std::string() : std::string(value);
}

void write_file(const std::string& path, const std::string& contents) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(contents.data(),
            static_cast<std::streamsize>(contents.size()));
  if (!out)
    std::cerr << "pl::pipeline: failed to write report to " << path << '\n';
}

/// Per-registry restoration substages: the §3.1 sanitization-step ledger
/// and the ingestion-guard ledger, as children of the registry span.
void annotate_registry_span(obs::Span& span,
                            const restore::RestoredRegistry& registry) {
  const restore::RestorationReport& report = registry.report;
  {
    obs::Span sanitization = span.child("sanitization");
    sanitization.note("days_processed", report.days_processed);
    sanitization.note("files_missing", report.files_missing);
    sanitization.note("files_corrupt", report.files_corrupt);
    sanitization.note("gap_filled_days", report.gap_filled_days);
    sanitization.note("recovered_from_regular", report.recovered_from_regular);
    sanitization.note("newest_conflict_days", report.newest_conflict_days);
    sanitization.note("duplicates_resolved", report.duplicates_resolved);
    sanitization.note("future_dates_fixed", report.future_dates_fixed);
    sanitization.note("placeholder_dates_restored",
                      report.placeholder_dates_restored);
    sanitization.note("grace_expired_drops", report.grace_expired_drops);
  }
  {
    obs::Span ingest = span.child("ingest");
    ingest.note("days_quarantined_duplicate",
                report.days_quarantined_duplicate);
    ingest.note("days_quarantined_late", report.days_quarantined_late);
    ingest.note("days_reorder_recovered", report.days_reorder_recovered);
    ingest.note("misuse_calls", report.misuse_calls);
  }
  std::int64_t spans = 0;
  for (const auto& [asn, list] : registry.spans)
    spans += static_cast<std::int64_t>(list.size());
  span.note("asns", static_cast<std::int64_t>(registry.spans.size()));
  span.note("spans", spans);
}

/// Dump the per-stage timings as a pl-flight/1 file: one EventKind::kStage
/// event per Fig. 1 stage (detail = stage ordinal, a = microseconds), so
/// batch runs leave the same post-mortem artifact the serving layer does.
void write_file_flight(const std::string& path, const StageTimings& timings) {
  const std::pair<const char*, double> stages[] = {
      {"world", timings.world_ms},
      {"op_world", timings.op_world_ms},
      {"render", timings.render_ms},
      {"restore", timings.restore_ms},
      {"admin", timings.admin_ms},
      {"op", timings.op_ms},
      {"taxonomy", timings.taxonomy_ms},
      {"build_snapshot", timings.build_snapshot_ms},
      {"save_snapshot", timings.save_snapshot_ms},
  };
  std::vector<obs::FlightEvent> events;
  std::uint32_t ordinal = 0;
  std::uint64_t seq = 0;
  for (const auto& [name, ms] : stages) {
    static_cast<void>(name);  // ordinal is the wire identity; see DESIGN §14
    ++ordinal;
    if (ms <= 0.0) continue;  // stage did not run (e.g. no post_stage hook)
    events.push_back(obs::FlightEvent{
        0, static_cast<std::uint32_t>(obs::EventKind::kStage), ordinal,
        static_cast<std::int64_t>(ms * 1000.0), seq++});
  }
  const obs::FlightIoStatus wrote = obs::write_flight_events(
      path, events, static_cast<std::uint64_t>(events.size()), 0);
  if (wrote != obs::FlightIoStatus::kOk)
    std::cerr << "pl::pipeline: failed to write flight dump to " << path
              << '\n';
}

}  // namespace

StageTimings timings_from_trace(const obs::TraceNode& root) {
  StageTimings timings;
  const auto stage_ms = [&root](std::string_view name) {
    const obs::TraceNode* node = root.child(name);
    return node == nullptr ? 0.0 : node->elapsed_ms;
  };
  timings.world_ms = stage_ms("world");
  timings.op_world_ms = stage_ms("op_world");
  timings.render_ms = stage_ms("render");
  timings.restore_ms = stage_ms("restore");
  timings.admin_ms = stage_ms("admin");
  timings.op_ms = stage_ms("op");
  timings.taxonomy_ms = stage_ms("taxonomy");
  timings.build_snapshot_ms = stage_ms("serve.build_snapshot");
  timings.save_snapshot_ms = stage_ms("serve.save_snapshot");
  timings.total_ms = root.elapsed_ms;
  return timings;
}

Result run_simulated(const Config& config) {
  Result result;
  obs::Trace trace;
  obs::Registry metrics;
  obs::Span run = trace.root("pipeline");
  run.note("seed", static_cast<std::int64_t>(config.seed));
  run.note("chaos", config.inject_chaos ? 1 : 0);

  // Administrative ground truth.
  {
    obs::Span stage = run.child("world");
    result.truth = rirsim::build_world(rirsim::WorldConfig{
        config.seed, config.scale, asn::archive_begin_day(),
        asn::archive_end_day()});
    stage.note("lives", static_cast<std::int64_t>(result.truth.lives.size()));
    stage.note("orgs", static_cast<std::int64_t>(result.truth.orgs.size()));
  }

  // Operational dimension (behaviours, attacks, misconfigurations) — seeds
  // derived from the master seed so one knob controls the world.
  {
    obs::Span stage = run.child("op_world");
    bgpsim::OpWorldConfig operations = config.operations;
    operations.behavior.seed = config.seed + 1;
    operations.attacks.seed = config.seed + 2;
    operations.attacks.scale = config.scale;
    operations.misconfigs.seed = config.seed + 3;
    operations.misconfigs.scale = config.scale;
    result.op_world = bgpsim::build_op_world(result.truth, operations);
    bgp::record_metrics(result.op_world.activity, metrics);
    stage.note("active_asns",
               static_cast<std::int64_t>(result.op_world.activity.asn_count()));
  }

  // Delegation archive with every 3.1 defect class, rendered and serialized
  // to pl-dlg-bin/1. The encode drains the generator here, so the render
  // stage owns the whole cost of producing the archive; restore only pays
  // for decoding.
  std::array<dele::EncodedArchive, asn::kRirCount> encoded;
  {
    obs::Span stage = run.child("render");
    rirsim::InjectorConfig injector = config.injector;
    injector.seed = config.seed + 4;
    injector.scale = config.scale;
    rirsim::SimulatedArchive archive(result.truth, injector);
    for (std::size_t i = 0; i < asn::kRirCount; ++i) {
      const std::unique_ptr<dele::ArchiveStream> stream =
          archive.stream(asn::kAllRirs[i]);
      encoded[i] = dele::encode_archive(*stream, config.interchange);
    }
    std::int64_t archive_bytes = 0;
    for (const dele::EncodedArchive& a : encoded)
      archive_bytes += static_cast<std::int64_t>(a.bytes.size());
    stage.note("archive_bytes", archive_bytes);
  }

  {
    obs::Span restore_span = run.child("restore");
    const rirsim::GroundTruth& truth = result.truth;
    const bgp::ActivityTable* hint =
        config.bgp_hint_for_duplicates ? &result.op_world.activity : nullptr;

    // One registry at a time, chaos or not; the chaos path merely wraps
    // each stream in a fault injector. Every registry reports into one
    // lenient sink, whose books the cross-registry accounting invariants
    // then check.
    robust::ErrorSink sink(robust::Policy::kLenient);
    auto names = std::make_shared<util::StringPool>();
    for (std::size_t i = 0; i < asn::kRirCount; ++i) {
      const asn::Rir rir = asn::kAllRirs[i];
      obs::Span registry_span =
          restore_span.child("registry:" + std::string(asn::file_token(rir)));
      pl::StatusOr<std::unique_ptr<dele::DeltaArchiveReader>> reader =
          dele::open_archive(encoded[i]);
      // The blob was produced in-process a stage ago; failing to open it is
      // a bug, not an input fault.
      PL_EXPECT(reader.ok(), "interchange archive failed to open");
      if (!reader.ok()) continue;
      // Union of the per-registry token vocabularies, in registry order so
      // the combined pool's ids are deterministic.
      const std::shared_ptr<const util::StringPool> shard = (*reader)->names();
      for (std::uint32_t id = 0; id < shard->size(); ++id)
        names->intern(shard->at(id));
      if (config.inject_chaos) {
        robust::ChaosConfig chaos = config.chaos;
        chaos.seed = config.chaos.seed + asn::index_of(rir);
        dele::FaultStream stream(std::move(*reader), chaos, &sink);
        result.restored.registries[i] = restore::restore_registry(
            stream, config.restore, &truth.erx, hint, &sink);
      } else {
        result.restored.registries[i] = restore::restore_registry(
            **reader, config.restore, &truth.erx, hint);
      }
      restore::record_metrics(result.restored.registries[i], metrics);
      annotate_registry_span(registry_span, result.restored.registries[i]);
    }
    result.restored.names = std::move(names);
    if (config.inject_chaos) {
      result.robustness = sink.counters();
      robust::record_metrics(result.robustness, metrics);
    }

    obs::Span reconcile = restore_span.child("reconcile");
    result.restored.cross = restore::reconcile_registries(
        result.restored.registries,
        [&truth](asn::Asn a) { return truth.iana.owner(a); }, config.restore,
        result.truth.archive_begin);
    restore::record_metrics(result.restored.cross, metrics);
    reconcile.note("overlapping_asns", result.restored.cross.overlapping_asns);
    reconcile.note("stale_spans_trimmed",
                   result.restored.cross.stale_spans_trimmed);
    reconcile.note("mistaken_spans_removed",
                   result.restored.cross.mistaken_spans_removed);
  }

  // Both lifetime datasets and the joint lens.
  {
    obs::Span stage = run.child("admin");
    result.admin = lifetimes::build_admin_lifetimes(result.restored,
                                                    result.truth.archive_end);
    lifetimes::record_metrics(result.admin, metrics);
    stage.note("lifetimes",
               static_cast<std::int64_t>(result.admin.lifetimes.size()));
    stage.note("asns", static_cast<std::int64_t>(result.admin.asn_count()));
  }

  {
    obs::Span stage = run.child("op");
    result.op = lifetimes::build_op_lifetimes(result.op_world.activity,
                                              config.op_timeout_days);
    lifetimes::record_metrics(result.op, metrics);
    stage.note("lifetimes",
               static_cast<std::int64_t>(result.op.lifetimes.size()));
    stage.note("asns", static_cast<std::int64_t>(result.op.asn_count()));
  }

  {
    obs::Span stage = run.child("taxonomy");
    result.taxonomy = joint::classify(result.admin, result.op);
    joint::record_metrics(result.taxonomy, metrics);
    const auto count = [&](joint::Category category, bool admin) {
      const auto& counts =
          admin ? result.taxonomy.admin_counts : result.taxonomy.op_counts;
      return counts[static_cast<std::size_t>(category)];
    };
    obs::Span admin_classes = stage.child("admin_classes");
    admin_classes.note("complete_overlap",
                       count(joint::Category::kCompleteOverlap, true));
    admin_classes.note("partial_overlap",
                       count(joint::Category::kPartialOverlap, true));
    admin_classes.note("unused", count(joint::Category::kUnused, true));
    admin_classes.finish();
    obs::Span op_classes = stage.child("op_classes");
    op_classes.note("complete_overlap",
                    count(joint::Category::kCompleteOverlap, false));
    op_classes.note("partial_overlap",
                    count(joint::Category::kPartialOverlap, false));
    op_classes.note("outside_delegation",
                    count(joint::Category::kOutsideDelegation, false));
    op_classes.finish();
  }

  if (config.post_stage) config.post_stage(result, run, metrics);

  run.finish();
  result.report.trace = trace.tree();
  result.report.metrics = metrics.snapshot();
  result.timings = timings_from_trace(result.report.trace);

  const std::string trace_path = resolve_path(config.trace_path, "PL_TRACE");
  if (!trace_path.empty()) write_file(trace_path, obs::to_json(result.report));
  const std::string prom_path = resolve_path(config.prom_path, "PL_PROM");
  if (!prom_path.empty())
    write_file(prom_path, obs::to_prometheus(result.report.metrics));
  const std::string flight_path =
      resolve_path(config.flight_path, "PL_FLIGHT");
  if (!flight_path.empty())
    write_file_flight(flight_path, result.timings);

  return result;
}

}  // namespace pl::pipeline
