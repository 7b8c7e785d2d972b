// Delegation-file round trip: renders real NRO-format text files from the
// simulated registry state, writes them to disk, re-parses them, and feeds
// them back through the archive adapter — exercising the exact file formats
// the RIRs publish.
//
// Run:  ./delegation_files_demo [output_dir]
#include <filesystem>
#include <fstream>
#include <iostream>

#include "delegation/archive.hpp"
#include "rirsim/inject.hpp"
#include "rirsim/world.hpp"
#include "util/strings.hpp"

int main(int argc, char** argv) {
  using namespace pl;
  const std::filesystem::path out_dir =
      argc > 1 ? argv[1] : "delegated-files";
  std::filesystem::create_directories(out_dir);

  // Small world, render a week of RIPE NCC extended files as real text.
  const rirsim::GroundTruth truth =
      rirsim::build_world(rirsim::WorldConfig::test_scale(3, 0.01));
  rirsim::InjectorConfig injector;
  injector.scale = 0.01;
  const rirsim::SimulatedArchive archive(truth, injector);

  const asn::Rir rir = asn::Rir::kRipeNcc;
  const util::Day week_start = util::make_day(2015, 6, 1);

  // Accumulate the file content from the day-delta stream.
  auto stream = archive.stream(rir);
  dele::SnapshotTable table;
  std::optional<dele::DayObservation> observation;
  std::vector<std::pair<util::Day, dele::DelegationFile>> files;
  while ((observation = stream->next())) {
    if (observation->extended.condition == dele::FileCondition::kPresent)
      table.apply(observation->extended.changes);
    if (observation->day < week_start || observation->day >= week_start + 7)
      continue;

    // Build a DelegationFile from the current snapshot.
    dele::DelegationFile file;
    file.extended = true;
    file.header.registry = rir;
    file.header.serial = observation->day;
    file.header.start_date = util::make_day(1984, 1, 1);
    file.header.end_date = observation->day - 1;
    file.header.utc_offset = "+0200";
    for (const auto& [asn_value, state] : table.records()) {
      dele::AsnRecord record;
      record.registry = rir;
      record.first = asn::Asn{asn_value};
      record.count = 1;
      record.status = state.status;
      record.country = state.country;
      record.date = state.registration_date;
      record.opaque_id = state.opaque_id;
      file.asn_records.push_back(record);
    }
    file.header.record_count =
        static_cast<std::int64_t>(file.asn_records.size());

    const std::string name = "delegated-ripencc-extended-" +
                             util::format_compact(observation->day);
    const std::filesystem::path path = out_dir / name;
    std::ofstream(path) << dele::serialize(file);
    files.emplace_back(observation->day, std::move(file));
    std::cout << "wrote " << path.string() << " ("
              << util::with_commas(files.back().second.header.record_count)
              << " ASN records)\n";
  }

  // Re-read from disk and verify the round trip.
  std::size_t verified = 0;
  for (const auto& [day, original] : files) {
    const std::filesystem::path path =
        out_dir / ("delegated-ripencc-extended-" + util::format_compact(day));
    std::ifstream in(path);
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    const dele::ParseResult parsed = dele::parse_delegation_file(text);
    if (!parsed.ok) {
      std::cerr << "parse failed for " << path << ": " << parsed.error
                << "\n";
      return 1;
    }
    if (!(parsed.file.asn_records == original.asn_records)) {
      std::cerr << "round-trip mismatch for " << path << "\n";
      return 1;
    }
    ++verified;
  }
  std::cout << "\nround-trip verified for " << verified << " files\n";

  // Feed the parsed files back through the day-delta adapter.
  if (!files.empty()) {
    const auto observations = dele::observations_from_files(
        rir, files, {}, files.front().first, files.back().first);
    std::size_t present = 0;
    std::size_t changes = 0;
    for (const dele::DayObservation& day_observation : observations) {
      if (day_observation.extended.condition ==
          dele::FileCondition::kPresent)
        ++present;
      changes += day_observation.extended.changes.size();
    }
    std::cout << "archive adapter: " << present << " present days, "
              << changes << " record changes across the week "
              << "(first day carries the full snapshot)\n";
  }
  std::cout << "delegation_files_demo OK\n";
  return 0;
}
