// The Fig. 1 study: `pipeline::run_simulated` as users call it, and the same
// pipeline composed stage by stage from each layer's public functions so the
// traced run can time every layer from the benchmark's own code.
#pragma once

#include <cstdint>

#include "bench/trace.hpp"
#include "pipeline/pipeline.hpp"

namespace perfbench {

/// The library's default study configuration (scale 1.0, text interchange,
/// the process-wide worker count) with the run's world seed.
pl::pipeline::Config study_config(std::uint64_t world_seed);

/// Outputs of the composed study, plus the per-layer counts the traced run
/// reports.
struct ComposedStudy {
  pl::pipeline::Result result;  ///< truth, op world, restored, admin, op,
                                ///< taxonomy; report and timings left empty
  std::int64_t archive_bytes = 0;  ///< encoded interchange, all registries
  std::int64_t restored_spans = 0;
};

/// Run the study stage by stage, each layer call inside a span of `tracer`:
/// rirsim.world, bgpsim.op_world, rirsim.render_encode, restore.registries,
/// restore.reconcile, lifetimes.admin, lifetimes.op, joint.classify. The
/// outputs equal `run_simulated(config)`'s for a chaos-free config.
ComposedStudy run_composed_study(const pl::pipeline::Config& config,
                                 Tracer& tracer);

}  // namespace perfbench
