// Per-registry administrative report: what a policy analyst would pull from
// the restored archive — allocation trends, reuse behaviour, the 16->32-bit
// transition, deallocation lag, and dataset exports (Listing-1 JSON + CSV).
//
// Run:  ./rir_report [rir] [scale] [seed]     (rir: afrinic|apnic|arin|
//                                              lacnic|ripencc)
#include <cstdlib>
#include <fstream>
#include <iostream>

#include "bgpsim/route_gen.hpp"
#include "joint/birdseye.hpp"
#include "joint/utilization.hpp"
#include "lifetimes/dataset_io.hpp"
#include "restore/pipeline.hpp"
#include "rirsim/inject.hpp"
#include "rirsim/world.hpp"
#include "util/stats.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace pl;
  const asn::Rir rir =
      argc > 1 ? asn::parse_rir(argv[1]).value_or(asn::Rir::kRipeNcc)
               : asn::Rir::kRipeNcc;
  const double scale = argc > 2 ? std::atof(argv[2]) : 0.2;
  const std::uint64_t seed = argc > 3 ? std::strtoull(argv[3], nullptr, 10)
                                      : 7;

  const rirsim::GroundTruth truth =
      rirsim::build_world(rirsim::WorldConfig::test_scale(seed, scale));
  bgpsim::OpWorldConfig op_config;
  op_config.behavior.seed = seed + 1;
  op_config.attacks.scale = scale;
  op_config.misconfigs.scale = scale;
  const bgpsim::OpWorld op_world = bgpsim::build_op_world(truth, op_config);

  rirsim::InjectorConfig injector;
  injector.seed = seed + 4;
  injector.scale = scale;
  const rirsim::SimulatedArchive archive(truth, injector);
  std::array<std::unique_ptr<dele::ArchiveStream>, asn::kRirCount> streams;
  for (asn::Rir r : asn::kAllRirs)
    streams[asn::index_of(r)] = archive.stream(r);
  const restore::RestoredArchive restored = restore::restore_archive(
      std::move(streams), restore::RestoreConfig{}, &truth.erx,
      [&](asn::Asn a) { return truth.iana.owner(a); }, truth.archive_begin,
      &op_world.activity);
  const lifetimes::AdminDataset admin =
      lifetimes::build_admin_lifetimes(restored, truth.archive_end);
  const lifetimes::OpDataset op =
      lifetimes::build_op_lifetimes(op_world.activity);
  const joint::Taxonomy taxonomy = joint::classify(admin, op);

  std::cout << "===== " << asn::display_name(rir)
            << " administrative report =====\n\n";

  // Census over the era.
  const joint::DailyCensus census = joint::compute_census(
      admin, op, truth.archive_begin, truth.archive_end);
  const std::size_t r = asn::index_of(rir);
  std::cout << "alive allocations at archive end: "
            << util::with_commas(census.admin_per_rir[r].back())
            << " (of which alive in BGP: "
            << util::with_commas(census.op_per_rir[r].back()) << ")\n";

  // Reuse behaviour.
  const joint::LivesPerAsnTable lives = joint::compute_lives_per_asn(admin,
                                                                     op);
  std::cout << "ASNs with 1/2/>2 administrative lives: "
            << util::percent(lives.admin[r].one) << " / "
            << util::percent(lives.admin[r].two) << " / "
            << util::percent(lives.admin[r].more) << "\n";

  // 16/32-bit split today.
  const joint::WidthCensus width = joint::compute_width_census(
      admin, truth.archive_begin, truth.archive_end);
  std::cout << "16-bit vs 32-bit allocated today: "
            << util::with_commas(width.bits16[r].back()) << " vs "
            << util::with_commas(width.bits32[r].back()) << "\n";

  // Deallocation lag.
  const joint::UtilizationAnalysis utilization =
      joint::analyze_utilization(taxonomy, admin, op);
  std::cout << "median days from last BGP activity to deallocation: "
            << static_cast<int>(util::median(
                   utilization.dealloc_lag_days[r]))
            << "\n";
  std::cout << "median days from allocation to first BGP activity: "
            << static_cast<int>(util::median(
                   utilization.activation_delay_days[r]))
            << "\n\n";

  // Quarterly births for the last 5 years.
  const joint::QuarterlySeries quarterly = joint::compute_quarterly(
      admin, util::make_day(2016, 1, 1), truth.archive_end);
  util::TextTable table({"quarter", "births", "balance"});
  for (std::size_t q = 0; q < quarterly.quarter_index.size(); q += 2) {
    const int index = quarterly.quarter_index[q];
    table.add_row({std::to_string(index / 4) + "Q" +
                       std::to_string(index % 4 + 1),
                   util::with_commas(quarterly.births[r][q]),
                   util::with_commas(quarterly.balance[r][q])});
  }
  table.print(std::cout);

  // Dataset export, restricted to this registry.
  lifetimes::AdminDataset subset;
  for (const lifetimes::AdminLifetime& life : admin.lifetimes)
    if (life.registry == rir) subset.lifetimes.push_back(life);
  subset.index();
  const std::string json_path =
      std::string(asn::file_token(rir)) + "_admin.jsonl";
  const std::string csv_path =
      std::string(asn::file_token(rir)) + "_admin.csv";
  {
    std::ofstream json(json_path);
    const pl::Status json_saved = lifetimes::save_admin_json(json, subset);
    std::ofstream csv(csv_path);
    const pl::Status csv_saved = lifetimes::save_admin_csv(csv, subset);
    if (!json_saved.ok() || !csv_saved.ok()) {
      std::cerr << "export failed: "
                << (!json_saved.ok() ? json_saved : csv_saved).to_string()
                << "\n";
      return 1;
    }
  }
  std::cout << "\nexported "
            << util::with_commas(static_cast<std::int64_t>(
                   subset.lifetimes.size()))
            << " lifetimes to " << json_path << " and " << csv_path << "\n";
  std::cout << "rir_report OK\n";
  return 0;
}
