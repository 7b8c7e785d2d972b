#include "bench/study.hpp"

#include <array>
#include <atomic>
#include <memory>
#include <stdexcept>
#include <string>

#include "delegation/interchange.hpp"
#include "exec/pool.hpp"
#include "restore/pipeline.hpp"
#include "util/intern.hpp"

namespace perfbench {

pl::pipeline::Config study_config(std::uint64_t world_seed) {
  pl::pipeline::Config config;
  config.seed = world_seed;
  return config;
}

ComposedStudy run_composed_study(const pl::pipeline::Config& config,
                                 Tracer& tracer) {
  namespace asn = pl::asn;
  ComposedStudy study;
  pl::pipeline::Result& result = study.result;

  {
    const auto span = tracer.span("rirsim.world");
    result.truth = pl::rirsim::build_world(pl::rirsim::WorldConfig{
        config.seed, config.scale, asn::archive_begin_day(),
        asn::archive_end_day()});
  }

  {
    const auto span = tracer.span("bgpsim.op_world");
    pl::bgpsim::OpWorldConfig operations = config.operations;
    operations.behavior.seed = config.seed + 1;
    operations.attacks.seed = config.seed + 2;
    operations.attacks.scale = config.scale;
    operations.misconfigs.seed = config.seed + 3;
    operations.misconfigs.scale = config.scale;
    result.op_world = pl::bgpsim::build_op_world(result.truth, operations);
  }

  std::array<pl::dele::EncodedArchive, asn::kRirCount> encoded;
  {
    const auto span = tracer.span("rirsim.render_encode");
    pl::rirsim::InjectorConfig injector = config.injector;
    injector.seed = config.seed + 4;
    injector.scale = config.scale;
    const pl::rirsim::SimulatedArchive archive(result.truth, injector);
    pl::exec::parallel_for(
        asn::kRirCount,
        [&](std::size_t begin, std::size_t end) {
          for (std::size_t i = begin; i < end; ++i) {
            const std::unique_ptr<pl::dele::ArchiveStream> stream =
                archive.stream(asn::kAllRirs[i]);
            encoded[i] = pl::dele::encode_archive(*stream, config.interchange);
          }
        },
        /*grain=*/1);
  }
  for (const pl::dele::EncodedArchive& archive : encoded)
    study.archive_bytes += static_cast<std::int64_t>(archive.bytes.size());

  {
    const auto span = tracer.span("restore.registries");
    const pl::bgp::ActivityTable* hint =
        config.bgp_hint_for_duplicates ? &result.op_world.activity : nullptr;
    std::array<std::shared_ptr<const pl::util::StringPool>, asn::kRirCount>
        shard_names;
    std::atomic<bool> opened{true};
    pl::exec::parallel_for(
        asn::kRirCount,
        [&](std::size_t begin, std::size_t end) {
          for (std::size_t i = begin; i < end; ++i) {
            auto reader = pl::dele::open_archive(encoded[i]);
            if (!reader.ok()) {
              opened = false;
              continue;
            }
            shard_names[i] = (*reader)->names();
            result.restored.registries[i] = pl::restore::restore_registry(
                **reader, config.restore, &result.truth.erx, hint);
          }
        },
        /*grain=*/1);
    if (!opened) throw std::runtime_error("interchange archive failed to open");
    auto names = std::make_shared<pl::util::StringPool>();
    for (const auto& shard : shard_names)
      for (std::uint32_t id = 0; id < shard->size(); ++id)
        names->intern(shard->at(id));
    result.restored.names = std::move(names);
  }

  {
    const auto span = tracer.span("restore.reconcile");
    const pl::rirsim::GroundTruth& truth = result.truth;
    result.restored.cross = pl::restore::reconcile_registries(
        result.restored.registries,
        [&truth](asn::Asn a) { return truth.iana.owner(a); }, config.restore,
        result.truth.archive_begin);
  }
  for (const auto& registry : result.restored.registries)
    for (const auto& [asn_value, spans] : registry.spans)
      study.restored_spans += static_cast<std::int64_t>(spans.size());

  {
    const auto span = tracer.span("lifetimes.admin");
    result.admin = pl::lifetimes::build_admin_lifetimes(
        result.restored, result.truth.archive_end);
  }
  {
    const auto span = tracer.span("lifetimes.op");
    result.op = pl::lifetimes::build_op_lifetimes(result.op_world.activity,
                                                  config.op_timeout_days);
  }
  {
    const auto span = tracer.span("joint.classify");
    result.taxonomy = pl::joint::classify(result.admin, result.op);
  }
  return study;
}

}  // namespace perfbench
