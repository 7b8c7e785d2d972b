#include "bench/deploy.hpp"

#include "bench/oracle.hpp"
#include "bench/study.hpp"

namespace perfbench {

std::unique_ptr<Deployment> bring_up(Run& run, int days, Samples& setup_ms) {
  const Clock::time_point setup_start = Clock::now();
  auto deployment = std::make_unique<Deployment>();
  Deployment& d = *deployment;
  d.state_dir = run.work_dir / "state";
  std::filesystem::remove_all(d.state_dir);
  std::filesystem::create_directories(d.state_dir);

  const pl::pipeline::Config config = study_config(world_seed(run.seed));
  if (run.traced) {
    ComposedStudy composed = run_composed_study(config, run.tracer);
    d.study = std::move(composed.result);
    d.archive_bytes = composed.archive_bytes;
    d.restored_spans = composed.restored_spans;
  } else {
    d.study = pl::pipeline::run_simulated(config);
  }

  d.end_day = d.study.truth.archive_end;
  d.base_day = d.end_day - days;
  // HistoryStore::rebuild_at, spelled out so the two layers time apart.
  pl::restore::RestoredArchive archive;
  pl::bgp::ActivityTable activity;
  {
    const auto span = run.tracer.span("history.truncate");
    archive = pl::history::HistoryStore::truncate_archive(d.study.restored,
                                                          d.base_day);
    activity = pl::history::HistoryStore::truncate_activity(
        d.study.op_world.activity, d.base_day);
  }
  pl::serve::Snapshot base;
  {
    const auto span = run.tracer.span("serve.build");
    base = pl::serve::Snapshot::build(archive, activity, d.base_day);
  }
  d.lookups = std::make_unique<pl::serve::QueryService>(base);
  d.history = std::make_unique<pl::history::HistoryStore>();

  if (run.traced) {
    // What DurableService::open does on a fresh directory, call by call.
    const pl::Status saved =
        pl::serve::save_snapshot(base, d.snapshot_path().string());
    run.ledger.record(saved.ok(), "save base snapshot");
    const pl::Status seeded = d.history->reset(base);
    run.ledger.record(seeded.ok(), "seed history");
    d.live = std::move(base);
  } else {
    pl::serve::DurableConfig durable;
    run.ledger.record(durable.checkpoint_every_days == kCheckpointEveryDays,
                      "composed loop checkpoints like the library default");
    durable.dir = d.state_dir.string();
    durable.history = d.history.get();
    auto opened = pl::serve::DurableService::open(std::move(base), durable);
    run.ledger.record(opened.ok(), "open durable service");
    if (opened.ok())
      d.durable =
          std::make_unique<pl::serve::DurableService>(std::move(*opened));
  }

  setup_ms.add(elapsed_ms(setup_start));

  d.fingerprint = study_fingerprint(d.study.admin, d.study.op,
                                    d.study.taxonomy, d.study.robustness);
  return deployment;
}

}  // namespace perfbench
