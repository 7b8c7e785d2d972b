// Serving-layer performance harness: builds the serve::Snapshot from the
// shared bench pipeline, then measures the query paths a deployment cares
// about — cold and warm point lookups, batch lookups, alive-on batches —
// and the incremental update: advance_day latency vs. rebuilding the whole
// snapshot, with the bit-identity of the two re-checked in passing. Writes
// machine-readable BENCH_serve.json so successive PRs accumulate a perf
// trajectory.
//
// Environment knobs:
//   PL_BENCH_SCALE        world scale (default 1.0 = paper scale)
//   PL_BENCH_SEED         world seed (default 42)
//   PL_BENCH_OUT          JSON output path (default BENCH_serve.json)
//   PL_KEYFRAME_INTERVAL  history keyframe spacing in days (default 16;
//                         EXPERIMENTS.md discusses the trade-off)
//
// JSON format (schema pl-bench-serve/4; /3 plus the history block):
//   {
//     "schema": "pl-bench-serve/4", "scale": ..., "seed": ...,
//     "snapshot": {"asns": n, "admin_lives": n, "op_lives": n,
//                  "build_ms": ms},
//     "queries": {"point_cold_qps": x, "point_warm_qps": x,
//                 "batch_qps": x, "alive_qps": x, "scan_full_ms": ms,
//                 "census_ms": ms, "cache_hits": n, "cache_misses": n},
//     "advance": {"days": n, "mean_ms": ms, "max_ms": ms,
//                 "rebuild_ms": ms, "speedup_vs_rebuild": x,
//                 "identical": true},
//     "durability": {"wal_append_mean_ms": ms, "wal_append_max_ms": ms,
//                    "wal_bytes": n, "snapshot_save_ms": ms,
//                    "snapshot_open_ms": ms, "snapshot_bytes": n,
//                    "recover_ms": ms, "replayed_days": n},
//     "history": {"days": n, "keyframe_interval": n, "keyframes": n,
//                 "deltas": n, "build_ms": ms, "keyframe_bytes_per_day": x,
//                 "delta_bytes_per_day": x, "delta_to_keyframe_ratio": x,
//                 "reconstructs": n,
//                 "reconstruct": shared percentile summary, ns,
//                 "identical": true},
//     "observability": {"enabled": bool, "instr_ns_per_query": x,
//                       "warm_ns_per_query": x, "overhead_pct": x,
//                       "latency": {"point"|"batch"|"alive"|"scan"|"census":
//                                   shared percentile summary
//                                   (bench/common.hpp), ns}}
//   }
//
// Exit status is non-zero when advance/rebuild bit-identity breaks, when a
// sampled history reconstruction deviates from a fresh rebuild, or when the
// per-query observability tax exceeds 3% of the warm point-lookup cost
// (DESIGN.md §14's always-on budget).

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "common.hpp"
#include "history/store.hpp"
#include "obs/flight.hpp"
#include "obs/latency.hpp"
#include "serve/durable.hpp"
#include "serve/query.hpp"
#include "serve/snapshot.hpp"
#include "util/rng.hpp"

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

/// Query mix the oracle test uses too: mostly ASNs the study knows, some it
/// never saw (misses exercise the not-found path and the cache equally).
std::vector<pl::asn::Asn> query_mix(const pl::serve::Snapshot& snapshot,
                                    std::size_t count) {
  pl::util::Rng rng(0x5EED);
  const auto& rows = snapshot.rows();
  std::vector<pl::asn::Asn> asns;
  asns.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    if (!rows.empty() && rng.uniform(0, 3) != 0) {
      const std::size_t pick = static_cast<std::size_t>(
          rng.uniform(0, static_cast<std::int64_t>(rows.size()) - 1));
      asns.push_back(rows[pick].asn);
    } else {
      asns.push_back(pl::asn::Asn{
          static_cast<std::uint32_t>(rng.uniform(1, 500000))});
    }
  }
  return asns;
}

/// Per-kind serve latency summary out of a metrics snapshot; empty (all
/// zeros through the shared emitter) when the kind never ran or the build
/// compiled obs out.
pl::obs::LatencyHistoSnapshot serve_latency(const pl::obs::Snapshot& metrics,
                                            const std::string& kind) {
  const auto it = metrics.latencies.find("pl_serve_latency_ns{kind=\"" +
                                         kind + "\"}");
  return it != metrics.latencies.end() ? it->second
                                       : pl::obs::LatencyHistoSnapshot{};
}

}  // namespace

int main() {
  using namespace pl;
  bench::print_banner(
      "serve", "snapshot queries + incremental day-advance vs. rebuild");

  std::string out_path = "BENCH_serve.json";
  if (const char* env = std::getenv("PL_BENCH_OUT")) out_path = env;

  const bench::Pipeline& pipeline = bench::Pipeline::instance();
  const util::Day end = pipeline.truth.archive_end;

  // --- Snapshot build (the serve.build_snapshot stage).
  const auto build_start = Clock::now();
  serve::Snapshot snapshot = serve::Snapshot::build(
      pipeline.restored, pipeline.op_world.activity, end);
  const double build_ms = ms_since(build_start);
  std::cout << "snapshot: " << bench::fmt_count(static_cast<std::int64_t>(
                   snapshot.asn_count()))
            << " ASNs, " << bench::fmt_count(static_cast<std::int64_t>(
                   snapshot.admin_life_count()))
            << " admin + " << bench::fmt_count(static_cast<std::int64_t>(
                   snapshot.op_life_count()))
            << " op lives, built in " << build_ms << " ms\n\n";
  const std::int64_t snapshot_asns =
      static_cast<std::int64_t>(snapshot.asn_count());
  const std::int64_t snapshot_admin =
      static_cast<std::int64_t>(snapshot.admin_life_count());
  const std::int64_t snapshot_op =
      static_cast<std::int64_t>(snapshot.op_life_count());

  // --- Query throughput. One service, cache on: the first pass over the
  // mix is all misses (cold), the second pass all hits (warm).
  const std::size_t kQueries = 20000;
  const std::vector<asn::Asn> mix = query_mix(snapshot, kQueries);
  serve::QueryService service(std::move(snapshot));

  // Every query must succeed: a failing service must not pass as a fast one.
  bool queries_ok = true;
  const auto ask = [&service, &queries_ok](const serve::Query& q) {
    pl::StatusOr<serve::QueryResult> result = service.query(q);
    queries_ok = queries_ok && result.ok();
    return result.ok() ? *std::move(result) : serve::QueryResult{};
  };

  auto start = Clock::now();
  for (const asn::Asn asn : mix) ask(serve::Query::lookup(asn));
  const double cold_ms = ms_since(start);

  start = Clock::now();
  for (const asn::Asn asn : mix) ask(serve::Query::lookup(asn));
  const double warm_ms = ms_since(start);

  start = Clock::now();
  ask(serve::Query::lookup_batch(mix));
  const double batch_ms = ms_since(start);

  start = Clock::now();
  ask(serve::Query::alive_batch(mix, end - 365));
  const double alive_ms = ms_since(start);

  start = Clock::now();
  const std::size_t scanned =
      ask(serve::Query::scan(serve::ScanQuery{})).lookups.size();
  const double scan_ms = ms_since(start);

  start = Clock::now();
  ask(serve::Query::census(end));
  const double census_ms = ms_since(start);
  if (!queries_ok) {
    std::cerr << "a serving query failed\n";
    return 1;
  }

  const auto qps = [&](double ms) {
    return ms > 0 ? 1000.0 * static_cast<double>(kQueries) / ms : 0.0;
  };
  const obs::Snapshot metrics = service.report().metrics;
  const std::int64_t hits = metrics.counter_value("pl_serve_cache_hits");
  const std::int64_t misses = metrics.counter_value("pl_serve_cache_misses");
  std::cout << "point lookups: cold " << bench::fmt_count(
                   static_cast<std::int64_t>(qps(cold_ms)))
            << " qps, warm " << bench::fmt_count(
                   static_cast<std::int64_t>(qps(warm_ms)))
            << " qps (cache " << hits << " hits / " << misses << " misses)\n";
  std::cout << "batch lookup:  " << bench::fmt_count(
                   static_cast<std::int64_t>(qps(batch_ms)))
            << " qps over one " << kQueries << "-ASN batch\n";
  std::cout << "alive batch:   " << bench::fmt_count(
                   static_cast<std::int64_t>(qps(alive_ms)))
            << " qps; full scan of " << bench::fmt_count(
                   static_cast<std::int64_t>(scanned))
            << " rows in " << scan_ms << " ms; census in " << census_ms
            << " ms\n\n";

  // --- Observability tax. The point path pays, per query: one RequestId
  // derivation, one flight-ring record, and a 1-in-8 decimated latency
  // sample (serve/query.cpp). Replay exactly that sequence in a tight loop
  // and price it against the warm per-lookup cost measured above — the
  // always-on budget is <=3% (DESIGN.md §14). Under PL_OBS_OFF the shells
  // compile to nothing and the tax reads ~0 by construction.
  const std::size_t kInstrOps = 1u << 21;
  obs::FlightRecorder instr_flight(obs::kFlightDefaultCapacity);
  obs::Registry instr_registry;
  obs::LatencyHisto& instr_latency = instr_registry.latency("bench_instr");
  start = Clock::now();
  for (std::size_t i = 0; i < kInstrOps; ++i) {
    const obs::RequestId request =
        obs::derive_request_id(obs::kQueryStream, 0, i);
    instr_flight.record(obs::FlightEvent{
        request.value, static_cast<std::uint32_t>(obs::EventKind::kLookup),
        obs::query_detail(obs::kCacheHit, 0, 0, true),
        static_cast<std::int64_t>(i), 0});
    if ((i & 7) == 0) instr_latency.observe(static_cast<std::int64_t>(i));
  }
  const double instr_ms = ms_since(start);
  const double instr_ns_per_query =
      1e6 * instr_ms / static_cast<double>(kInstrOps);
  const double warm_ns_per_query =
      1e6 * warm_ms / static_cast<double>(kQueries);
  const double overhead_pct =
      warm_ns_per_query > 0
          ? 100.0 * instr_ns_per_query / warm_ns_per_query
          : 0.0;
  const bool obs_ok = !obs::kEnabled || overhead_pct <= 3.0;
  std::cout << "observability: " << (obs::kEnabled ? "on" : "off (PL_OBS_OFF)")
            << ", instrumentation " << instr_ns_per_query
            << " ns/query vs warm lookup " << warm_ns_per_query
            << " ns/query = " << overhead_pct << "% overhead"
            << (obs_ok ? "" : " — OVER THE 3% BUDGET") << "\n\n";

  // --- Incremental advance vs. full rebuild over the last week.
  const int kDays = 7;
  const util::Day base_day = end - kDays;
  serve::Snapshot advanced = history::HistoryStore::rebuild_at(
      pipeline.restored, pipeline.op_world.activity, base_day);
  double advance_total_ms = 0;
  double advance_max_ms = 0;
  for (util::Day day = base_day + 1; day <= end; ++day) {
    const serve::DayDelta delta = history::HistoryStore::slice_day(
        pipeline.restored, pipeline.op_world.activity, day);
    start = Clock::now();
    const pl::Status status = advanced.advance_day(delta);
    const double day_ms = ms_since(start);
    if (!status.ok()) {
      std::cerr << "advance failed: " << status.to_string() << "\n";
      return 1;
    }
    advance_total_ms += day_ms;
    if (day_ms > advance_max_ms) advance_max_ms = day_ms;
  }
  const double advance_mean_ms = advance_total_ms / kDays;

  start = Clock::now();
  const serve::Snapshot rebuilt = serve::Snapshot::build(
      pipeline.restored, pipeline.op_world.activity, end);
  const double rebuild_ms = ms_since(start);
  const bool identical = advanced == rebuilt;

  std::cout << "advance_day:   mean " << advance_mean_ms << " ms, max "
            << advance_max_ms << " ms over " << kDays
            << " days; full rebuild " << rebuild_ms << " ms ("
            << (advance_mean_ms > 0 ? rebuild_ms / advance_mean_ms : 0.0)
            << "x slower per day)\n";
  std::cout << "advanced == rebuilt: "
            << (identical ? "yes" : "NO — DETERMINISM BUG") << "\n\n";

  // --- Durability: what crash safety costs per day (WAL append on top of
  // the in-memory fold), what a checkpoint costs (snapshot save), and how
  // long a cold recovery takes (open + replay of a week-deep WAL).
  const std::string dir =
      (std::filesystem::temp_directory_path() / "pl_bench_serve_durable")
          .string();
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string snap_path = dir + "/snapshot.plsnap";
  const std::string wal_path = dir + "/days.plwal";

  const serve::Snapshot durable_base = history::HistoryStore::rebuild_at(
      pipeline.restored, pipeline.op_world.activity, base_day);

  start = Clock::now();
  if (const pl::Status saved = serve::save_snapshot(durable_base, snap_path);
      !saved.ok()) {
    std::cerr << "snapshot save failed: " << saved.to_string() << "\n";
    return 1;
  }
  const double snapshot_save_ms = ms_since(start);
  const auto snapshot_bytes =
      static_cast<std::int64_t>(std::filesystem::file_size(snap_path));

  start = Clock::now();
  const auto reopened = serve::open_snapshot(snap_path);
  const double snapshot_open_ms = ms_since(start);
  if (!reopened.ok()) {
    std::cerr << "snapshot open failed: " << reopened.status().to_string()
              << "\n";
    return 1;
  }

  double wal_append_total_ms = 0;
  double wal_append_max_ms = 0;
  for (util::Day day = base_day + 1; day <= end; ++day) {
    const serve::DayDelta delta = history::HistoryStore::slice_day(
        pipeline.restored, pipeline.op_world.activity, day);
    start = Clock::now();
    const pl::Status appended = serve::append_wal(wal_path, delta);
    const double append_ms = ms_since(start);
    if (!appended.ok()) {
      std::cerr << "WAL append failed: " << appended.to_string() << "\n";
      return 1;
    }
    wal_append_total_ms += append_ms;
    if (append_ms > wal_append_max_ms) wal_append_max_ms = append_ms;
  }
  const double wal_append_mean_ms = wal_append_total_ms / kDays;
  const auto wal_bytes =
      static_cast<std::int64_t>(std::filesystem::file_size(wal_path));

  serve::DurableConfig durable;
  durable.dir = dir;
  start = Clock::now();
  auto recovered = serve::DurableService::open(serve::Snapshot{}, durable);
  const double recover_ms = ms_since(start);
  if (!recovered.ok()) {
    std::cerr << "recovery failed: " << recovered.status().to_string()
              << "\n";
    return 1;
  }
  const std::int64_t replayed_days = recovered->health().replayed_days;
  if (recovered->archive_end() != end || recovered->health().degraded) {
    std::cerr << "recovery did not reach the stretch end cleanly\n";
    return 1;
  }

  std::cout << "WAL append:    mean " << wal_append_mean_ms << " ms, max "
            << wal_append_max_ms << " ms ("
            << (advance_mean_ms > 0
                    ? 100.0 * wal_append_mean_ms / advance_mean_ms
                    : 0.0)
            << "% on top of the in-memory fold); "
            << bench::fmt_count(wal_bytes) << " bytes for " << kDays
            << " days\n";
  std::cout << "snapshot file: save " << snapshot_save_ms << " ms, open "
            << snapshot_open_ms << " ms, " << bench::fmt_count(snapshot_bytes)
            << " bytes\n";
  std::cout << "cold recovery: " << recover_ms << " ms (snapshot + "
            << replayed_days << " WAL days replayed)\n";
  std::filesystem::remove_all(dir);

  // --- History: what time travel costs. Build a delta-compressed store
  // over the trailing month, then price the two sides of the trade:
  // storage (delta bytes/day vs keyframe bytes/day — the compact codec's
  // whole point) and random-access reconstruction latency (the
  // pl_history_reconstruct_ns histogram the store keeps itself).
  const int kHistoryDays = 32;
  history::HistoryConfig history_config;
  if (const char* env = std::getenv("PL_KEYFRAME_INTERVAL"))
    history_config.keyframe_interval = std::atoi(env);
  start = Clock::now();
  auto history = history::HistoryStore::build(
      pipeline.restored, pipeline.op_world.activity, end - kHistoryDays, end,
      history_config);
  const double history_build_ms = ms_since(start);
  if (!history.ok()) {
    std::cerr << "history build failed: " << history.status().to_string()
              << "\n";
    return 1;
  }
  const std::size_t kReconstructs = 200;
  util::Rng day_rng(0xD417);
  for (std::size_t i = 0; i < kReconstructs; ++i) {
    const util::Day day = history->earliest_day() +
                          static_cast<util::Day>(day_rng.uniform(
                              0, history->latest_day() -
                                     history->earliest_day()));
    if (const auto at = history->at(day); !at.ok()) {
      std::cerr << "reconstruct failed on day " << day << ": "
                << at.status().to_string() << "\n";
      return 1;
    }
  }
  // Sampled bit-identity: reconstruction must equal the study rebuilt at
  // that day — the contract the history test suite fuzzes, re-checked here
  // at bench scale on a spread of days.
  bool history_identical = true;
  for (const util::Day day :
       {history->earliest_day(), end - kHistoryDays / 2, end}) {
    const auto at = history->at(day);
    if (!at.ok() ||
        !(**at == history::HistoryStore::rebuild_at(
                      pipeline.restored, pipeline.op_world.activity, day))) {
      history_identical = false;
      std::cerr << "history reconstruction diverged on day " << day << "\n";
    }
  }
  const history::HistoryStats hstats = history->stats();
  const double keyframe_bytes_per_day = hstats.mean_keyframe_bytes();
  const double delta_bytes_per_day = hstats.mean_delta_bytes();
  const double delta_ratio =
      keyframe_bytes_per_day > 0
          ? delta_bytes_per_day / keyframe_bytes_per_day
          : 0.0;
  const obs::Snapshot history_metrics = history->report().metrics;
  const auto reconstruct_it =
      history_metrics.latencies.find("pl_history_reconstruct_ns");
  const obs::LatencyHistoSnapshot reconstruct_latency =
      reconstruct_it != history_metrics.latencies.end()
          ? reconstruct_it->second
          : obs::LatencyHistoSnapshot{};
  std::cout << "history:       " << kHistoryDays << " days at interval "
            << history_config.keyframe_interval << " built in "
            << history_build_ms << " ms; " << hstats.keyframes
            << " keyframes + " << hstats.deltas << " deltas; delta "
            << bench::fmt_count(
                   static_cast<std::int64_t>(delta_bytes_per_day))
            << " bytes/day vs keyframe "
            << bench::fmt_count(
                   static_cast<std::int64_t>(keyframe_bytes_per_day))
            << " bytes/day (" << 100.0 * delta_ratio << "%); "
            << kReconstructs << " random reconstructs\n";
  std::cout << "history.at == rebuild: "
            << (history_identical ? "yes" : "NO — DETERMINISM BUG") << "\n\n";

  // --- Machine-readable artifact.
  bench::JsonWriter json;
  json.begin_object();
  json.key("schema").value("pl-bench-serve/4");
  json.key("scale").value(pipeline.scale);
  json.key("seed").value(static_cast<std::uint64_t>(pipeline.seed));
  json.key("snapshot").begin_object();
  json.key("asns").value(snapshot_asns);
  json.key("admin_lives").value(snapshot_admin);
  json.key("op_lives").value(snapshot_op);
  json.key("build_ms").value(build_ms);
  json.end_object();
  json.key("queries").begin_object();
  json.key("point_cold_qps").value(qps(cold_ms), 0);
  json.key("point_warm_qps").value(qps(warm_ms), 0);
  json.key("batch_qps").value(qps(batch_ms), 0);
  json.key("alive_qps").value(qps(alive_ms), 0);
  json.key("scan_full_ms").value(scan_ms);
  json.key("census_ms").value(census_ms);
  json.key("cache_hits").value(hits);
  json.key("cache_misses").value(misses);
  json.end_object();
  json.key("advance").begin_object();
  json.key("days").value(kDays);
  json.key("mean_ms").value(advance_mean_ms);
  json.key("max_ms").value(advance_max_ms);
  json.key("rebuild_ms").value(rebuild_ms);
  json.key("speedup_vs_rebuild")
      .value(advance_mean_ms > 0 ? rebuild_ms / advance_mean_ms : 0.0);
  json.key("identical").value(identical);
  json.end_object();
  json.key("durability").begin_object();
  json.key("wal_append_mean_ms").value(wal_append_mean_ms);
  json.key("wal_append_max_ms").value(wal_append_max_ms);
  json.key("wal_bytes").value(wal_bytes);
  json.key("snapshot_save_ms").value(snapshot_save_ms);
  json.key("snapshot_open_ms").value(snapshot_open_ms);
  json.key("snapshot_bytes").value(snapshot_bytes);
  json.key("recover_ms").value(recover_ms);
  json.key("replayed_days").value(replayed_days);
  json.end_object();
  json.key("history").begin_object();
  json.key("days").value(kHistoryDays);
  json.key("keyframe_interval").value(history_config.keyframe_interval);
  json.key("keyframes").value(hstats.keyframes);
  json.key("deltas").value(hstats.deltas);
  json.key("build_ms").value(history_build_ms);
  json.key("keyframe_bytes_per_day").value(keyframe_bytes_per_day, 0);
  json.key("delta_bytes_per_day").value(delta_bytes_per_day, 0);
  json.key("delta_to_keyframe_ratio").value(delta_ratio);
  json.key("reconstructs").value(hstats.reconstructs);
  json.key("reconstruct");
  bench::emit_latency_summary(json, reconstruct_latency);
  json.key("identical").value(history_identical);
  json.end_object();
  json.key("observability").begin_object();
  json.key("enabled").value(obs::kEnabled);
  json.key("instr_ns_per_query").value(instr_ns_per_query);
  json.key("warm_ns_per_query").value(warm_ns_per_query);
  json.key("overhead_pct").value(overhead_pct);
  json.key("latency").begin_object();
  for (const char* kind : {"point", "batch", "alive", "scan", "census"}) {
    json.key(kind);
    bench::emit_latency_summary(json, serve_latency(metrics, kind));
  }
  json.end_object();
  json.end_object();
  json.end_object();

  std::ofstream out(out_path);
  out << json.str() << "\n";
  std::cout << "wrote " << out_path << "\n";
  return identical && history_identical && obs_ok ? 0 : 1;
}
