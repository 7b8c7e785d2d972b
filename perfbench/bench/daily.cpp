#include "bench/daily.hpp"

#include <fstream>
#include <utility>

#include "bench/env.hpp"
#include "bench/oracle.hpp"

namespace perfbench {

namespace {

namespace fs = std::filesystem;
using pl::serve::DayDelta;
using pl::serve::Query;
using pl::serve::QueryOptions;

/// Burst lookups checked against the linear-scan oracle: one in this many.
constexpr std::size_t kOracleStride = 250;
/// as_of queries whose answers are checked against a fresh rebuild.
constexpr std::size_t kAsOfOracles = 2;
/// WAL days every cold recovery replays.
constexpr int kRecoveryTail = 1;

std::int64_t file_bytes(const fs::path& path) {
  std::error_code error;
  const std::uintmax_t size = fs::file_size(path, error);
  return error ? 0 : static_cast<std::int64_t>(size);
}

struct DailyInputs {
  std::vector<DayDelta> days;
  std::vector<std::vector<pl::asn::Asn>> bursts;  ///< one per day
  std::vector<pl::util::Day> as_of_days;
  std::vector<std::vector<pl::asn::Asn>> as_of_keys;
};

DailyInputs generate(Run& run, const Deployment& d) {
  DailyInputs in;
  for (pl::util::Day day = d.base_day + 1; day <= d.end_day; ++day) {
    in.days.push_back(pl::history::HistoryStore::slice_day(
        d.study.restored, d.study.op_world.activity, day));
    run.inputs.mix(in.days.back());
  }
  pl::util::Rng keys = run.rng("daily.keys");
  const pl::serve::Snapshot& live = d.lookups->snapshot();
  const std::vector<pl::asn::Asn> universe =
      key_universe(live, d.study.admin, d.study.op);
  for (std::size_t i = 0; i < in.days.size(); ++i) {
    in.bursts.push_back(uniform_keys(universe, run.sizes.burst, keys));
    run.inputs.mix(in.bursts.back());
  }
  pl::util::Rng days = run.rng("daily.as_of_days");
  in.as_of_days = as_of_days(d.base_day, d.end_day - 1, kKeyframeInterval,
                             static_cast<std::size_t>(run.sizes.as_of), days);
  for (const pl::util::Day day : in.as_of_days) {
    in.as_of_keys.push_back(uniform_keys(universe, run.sizes.as_of_keys, keys));
    run.inputs.mix(static_cast<std::uint64_t>(day));
    run.inputs.mix(in.as_of_keys.back());
  }
  return in;
}

/// Counts the composed fold reads off the public AdvanceStats out-param.
struct FoldCounts {
  Samples facts;
  Samples touched_admin;
  Samples touched_op;
};

/// One durable day, call by call in DurableService::advance_day's order:
/// WAL append, in-memory fold, history append, checkpoint when due.
bool fold_composed(Run& run, Deployment& d, const DayDelta& delta,
                   int& since_checkpoint, FoldCounts& counts) {
  const auto day_span = run.tracer.span("day");
  bool ok = true;
  {
    const auto span = run.tracer.span("serve.wal_append");
    ok &= pl::serve::append_wal(d.wal_path().string(), delta).ok();
  }
  pl::serve::AdvanceStats stats;
  {
    const auto span = run.tracer.span("serve.advance");
    ok &= d.live.advance_day(delta, &stats).ok();
  }
  counts.facts.add(static_cast<double>(stats.facts));
  counts.touched_admin.add(static_cast<double>(stats.touched_admin));
  counts.touched_op.add(static_cast<double>(stats.touched_op));
  {
    const auto span = run.tracer.span("history.append");
    ok &= d.history->append_day(delta, d.live).ok();
  }
  if (++since_checkpoint >= kCheckpointEveryDays) {
    const auto span = run.tracer.span("serve.checkpoint");
    ok &= pl::serve::save_snapshot(d.live, d.snapshot_path().string()).ok();
    std::ofstream truncate(d.wal_path(), std::ios::binary | std::ios::trunc);
    ok &= static_cast<bool>(truncate);
    since_checkpoint = 0;
  }
  return ok;
}

/// DurableService::open on a copy of the state directory, call by call.
pl::serve::Snapshot recover_composed(Run& run, const fs::path& dir,
                                     std::int64_t& replayed, bool& ok) {
  const auto span = run.tracer.span("recover");
  pl::serve::Snapshot snapshot;
  {
    const auto open_span = run.tracer.span("serve.open_snapshot");
    auto loaded = pl::serve::open_snapshot((dir / "snapshot.plsnap").string());
    ok &= loaded.ok();
    if (!loaded.ok()) return snapshot;
    snapshot = std::move(*loaded);
  }
  pl::history::HistoryStore history;
  {
    const auto reset_span = run.tracer.span("history.reset");
    ok &= history.reset(snapshot).ok();
  }
  const auto replay_span = run.tracer.span("serve.replay");
  auto replay = pl::serve::replay_wal((dir / "days.plwal").string());
  ok &= replay.ok();
  if (!replay.ok()) return snapshot;
  for (const DayDelta& delta : replay->deltas) {
    if (delta.day <= snapshot.archive_end()) continue;
    ok &= snapshot.advance_day(delta).ok();
    const auto append_span = run.tracer.span("history.append");
    ok &= history.append_day(delta, snapshot).ok();
    ++replayed;
  }
  return snapshot;
}

/// What the traced run reports about the bursts: their lookups, wall time
/// and answer-cache counters, summed over every burst.
struct BurstTotals {
  std::size_t lookups = 0;
  double ms = 0;
  double hits = 0;
  double misses = 0;
  double evictions = 0;

  void add_cache(const pl::obs::Snapshot& metrics) {
    hits += static_cast<double>(metrics.counter_value("pl_serve_cache_hits"));
    misses +=
        static_cast<double>(metrics.counter_value("pl_serve_cache_misses"));
    evictions +=
        static_cast<double>(metrics.counter_value("pl_serve_cache_evictions"));
  }
};

/// One burst of point lookups, one client waiting on each answer. When
/// `latency_us` is given, every kLatencySampleStride-th lookup is timed
/// into it; one lookup in kOracleStride is checked by linear scan.
void burst(Run& run, pl::serve::QueryService& service,
           const std::vector<pl::asn::Asn>& keys, Samples* latency_us,
           BurstTotals& totals) {
  std::vector<std::pair<std::size_t, pl::serve::AsnAnswer>> sampled;
  const Clock::time_point burst_start = Clock::now();
  for (std::size_t k = 0; k < keys.size(); ++k) {
    const bool timed = latency_us && k % kLatencySampleStride == 0;
    Clock::time_point start;
    if (timed) start = Clock::now();
    auto answer = service.query(Query::lookup(keys[k]));
    if (timed) latency_us->add(elapsed_us(start));
    const bool ok = answer.ok() && answer->lookups.size() == 1;
    run.ledger.record(ok, "burst lookup");
    if (ok && k % kOracleStride == 0)
      sampled.emplace_back(k, answer->lookups[0]);
  }
  totals.ms += elapsed_ms(burst_start);
  totals.lookups += keys.size();
  for (const auto& [k, answer] : sampled)
    run.ledger.record(answer == expected_answer(service.snapshot(), keys[k]),
                      "burst lookup oracle");
}

}  // namespace

void run_daily(Run& run, Deployment& d, const std::function<void()>& between,
               bool report_lookups) {
  const DailyInputs in = generate(run, d);
  const int days = static_cast<int>(in.days.size());
  // Recoveries run after the folds that leave a kRecoveryTail-day WAL tail
  // (one per checkpoint period), a few at each, so every recovery replays
  // the same days' worth and they spread over the fold loop.
  std::vector<int> recover_after;
  {
    std::vector<int> points;
    for (int day = kRecoveryTail; day <= days; day += kCheckpointEveryDays)
      points.push_back(day);
    const auto count = static_cast<std::size_t>(run.sizes.recoveries);
    for (std::size_t r = 0; r < count; ++r)
      recover_after.push_back(points[r * points.size() / count]);
  }
  const pl::history::HistoryStats history_before = d.history->stats();

  Samples day_ms;
  Samples wal_bytes;
  Samples lookup_us;
  Samples recover_ms;
  FoldCounts counts;
  BurstTotals bursts;
  int since_checkpoint = 0;
  const fs::path copy = run.work_dir / "recover";
  trim_heap();
  for (int i = 0; i < days; ++i) {
    const DayDelta& delta = in.days[static_cast<std::size_t>(i)];
    const std::int64_t wal_before = file_bytes(d.wal_path());
    if (run.traced) {
      run.ledger.record(fold_composed(run, d, delta, since_checkpoint, counts),
                        "composed durable fold");
    } else {
      const Clock::time_point start = Clock::now();
      const pl::Status folded = d.durable->advance_day(delta);
      day_ms.add(elapsed_ms(start));
      run.ledger.record(folded.ok(), "DurableService::advance_day");
    }
    const std::int64_t wal_after = file_bytes(d.wal_path());
    if (wal_after > wal_before)
      wal_bytes.add(static_cast<double>(wal_after - wal_before));

    // The burst: uniform keys against the cache the fold just dropped. The
    // composed loop serves a bare snapshot, so a traced run gives each
    // burst a fresh service over it, built before the burst is timed.
    const std::vector<pl::asn::Asn>& keys =
        in.bursts[static_cast<std::size_t>(i)];
    if (run.traced) {
      pl::serve::QueryService service(d.live);
      burst(run, service, keys, nullptr, bursts);
      bursts.add_cache(service.report().metrics);
    } else {
      burst(run, d.durable->queries(), keys, &lookup_us, bursts);
    }
    between();

    // Cold recoveries, each from an identical copy of the state directory.
    const pl::serve::Snapshot& served =
        run.traced ? d.live : d.durable->snapshot();
    for (const int after : recover_after) {
      if (after != i + 1) continue;
      fs::remove_all(copy);
      fs::copy(d.state_dir, copy, fs::copy_options::recursive);
      trim_heap();
      if (run.traced) {
        std::int64_t replayed = 0;
        bool ok = true;
        const pl::serve::Snapshot recovered =
            recover_composed(run, copy, replayed, ok);
        run.ledger.record(ok && replayed == kRecoveryTail &&
                              recovered == served,
                          "composed recovery");
      } else {
        pl::history::HistoryStore history;
        pl::serve::DurableConfig config;
        config.dir = copy.string();
        config.history = &history;
        const Clock::time_point start = Clock::now();
        auto opened =
            pl::serve::DurableService::open(pl::serve::Snapshot{}, config);
        recover_ms.add(elapsed_ms(start));
        const bool ok = opened.ok() &&
                        opened->archive_end() == served.archive_end() &&
                        !opened->health().degraded &&
                        opened->health().replayed_days == kRecoveryTail &&
                        opened->snapshot() == served;
        run.ledger.record(ok, "cold recovery");
      }
      fs::remove_all(copy);
      trim_heap();
      between();
    }
  }
  const pl::serve::Snapshot& served =
      run.traced ? d.live : d.durable->snapshot();
  run.ledger.record(
      served.archive_end() == d.end_day &&
          served == pl::history::HistoryStore::rebuild_at(
                        d.study.restored, d.study.op_world.activity,
                        d.end_day),
      "served snapshot == rebuild_at(end)");
  const pl::history::HistoryStats history_after = d.history->stats();

  // -- as_of at recorded days ------------------------------------------------
  Samples as_of_ms;
  const pl::obs::Snapshot history_metrics_before = d.history->report().metrics;
  trim_heap();
  for (std::size_t i = 0; i < in.as_of_days.size(); ++i) {
    const pl::util::Day day = in.as_of_days[i];
    const bool checked = i < kAsOfOracles;
    if (run.traced) {
      auto at = [&] {
        const auto span = run.tracer.span("history.at");
        return d.history->at(day);
      }();
      bool ok = at.ok() && (*at)->archive_end() == day;
      if (ok && checked)
        ok = **at == pl::history::HistoryStore::rebuild_at(
                         d.study.restored, d.study.op_world.activity, day);
      run.ledger.record(ok, "history at()");
      between();
      continue;
    }
    QueryOptions options;
    options.as_of = day;
    const Clock::time_point start = Clock::now();
    auto answer = d.durable->queries().query(
        Query::lookup_batch(in.as_of_keys[i], options));
    as_of_ms.add(elapsed_ms(start));
    bool ok = answer.ok() && answer->lookups.size() == in.as_of_keys[i].size();
    if (ok && checked)
      ok = answers_match(pl::history::HistoryStore::rebuild_at(
                             d.study.restored, d.study.op_world.activity, day),
                         in.as_of_keys[i], answer->lookups);
    run.ledger.record(ok, "as_of query");
    between();
  }

  // -- report ----------------------------------------------------------------
  const double history_bytes_per_day =
      static_cast<double>(history_after.keyframe_bytes +
                          history_after.delta_bytes -
                          history_before.keyframe_bytes -
                          history_before.delta_bytes) /
      static_cast<double>(days);
  if (!run.traced) {
    run.report_median("day_ms_p50", day_ms, "ms");
    run.report_tail("day_ms_tail", day_ms, "ms");
    Samples recover_s;
    for (const double ms : recover_ms.values()) recover_s.add(ms / 1000.0);
    run.report_median("recover_s", recover_s, "s");
    run.report_median("as_of_ms_p50", as_of_ms, "ms");
    run.report("wal_bytes_per_day", wal_bytes.mean(), "bytes",
               "mean of " + std::to_string(wal_bytes.count()) + " appends");
    run.report("history_bytes_per_day", history_bytes_per_day, "bytes",
               "store growth over " + std::to_string(in.days.size()) +
                   " days");
    if (report_lookups) {
      run.report_median("lookup_us_p50", lookup_us, "us");
      run.report_tail("lookup_us_tail", lookup_us, "us");
    }
    return;
  }

  const Tracer& tracer = run.tracer;
  if (report_lookups) {
    run.report("serve.lookup_ns",
               1e6 * bursts.ms / static_cast<double>(bursts.lookups), "ns",
               "mean of " + std::to_string(bursts.lookups) + " burst lookups");
    run.report("serve.cache_hit_ratio",
               bursts.hits + bursts.misses > 0
                   ? bursts.hits / (bursts.hits + bursts.misses)
                   : 0.0,
               "ratio", "hits / (hits + misses), bursts");
    run.report("serve.cache_evictions", bursts.evictions, "count",
               "all bursts");
  }
  run.report_median("serve.advance_ms", tracer.durations_ms("serve.advance"),
                    "ms");
  run.report("serve.advance_facts", counts.facts.mean(), "count", "per day");
  run.report("serve.advance_touched_admin", counts.touched_admin.mean(),
             "count", "per day");
  run.report("serve.advance_touched_op", counts.touched_op.mean(), "count",
             "per day");
  run.report_median("serve.wal_append_ms",
                    tracer.durations_ms("serve.wal_append"), "ms");
  run.report("serve.wal_bytes", wal_bytes.mean(), "bytes", "per day");
  run.report_median("history.append_ms",
                    tracer.durations_ms("history.append"), "ms");
  run.report("history.delta_bytes", history_after.mean_delta_bytes(), "bytes",
             "per delta");
  run.report("history.keyframe_bytes", history_after.mean_keyframe_bytes(),
             "bytes", "per keyframe");
  run.report_median("serve.checkpoint_ms",
                    tracer.durations_ms("serve.checkpoint"), "ms");
  run.report_median("serve.open_snapshot_ms",
                    tracer.durations_ms("serve.open_snapshot"), "ms");
  run.report_median("serve.replay_ms", tracer.durations_ms("serve.replay"),
                    "ms");
  const Samples at_ms = tracer.durations_ms("history.at");
  run.report_median("history.at_ms", at_ms, "ms");
  const pl::history::HistoryStats history_end = d.history->stats();
  const pl::obs::Snapshot history_metrics = d.history->report().metrics;
  const auto per_at = [&](std::int64_t total) {
    return at_ms.empty() ? 0.0
                         : static_cast<double>(total) /
                               static_cast<double>(at_ms.count());
  };
  run.report("history.folds_per_at",
             per_at(history_end.delta_folds - history_after.delta_folds),
             "count", "mean of " + std::to_string(at_ms.count()));
  run.report(
      "history.keyframe_decodes_per_at",
      per_at(history_metrics.counter_value("pl_history_keyframe_decodes") -
             history_metrics_before.counter_value(
                 "pl_history_keyframe_decodes")),
      "count", "mean of " + std::to_string(at_ms.count()));
}

}  // namespace perfbench
