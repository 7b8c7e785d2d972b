// Misconfiguration scanner: the paper's "practical relevance" use case —
// validate the day's BGP table against the delegation data. Every origin
// ASN that was never delegated is flagged and classified (prepending typo,
// one-digit typo, internal-use leak), exactly the 6.4 analysis as an
// operational filter.
//
// Run:  ./misconfig_scan [scale] [seed]
#include <cstdlib>
#include <iostream>
#include <set>

#include "bgp/sanitizer.hpp"
#include "bgpsim/route_gen.hpp"
#include "joint/outside.hpp"
#include "restore/pipeline.hpp"
#include "rirsim/inject.hpp"
#include "rirsim/world.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace pl;
  const double scale = argc > 1 ? std::atof(argv[1]) : 0.2;
  const std::uint64_t seed = argc > 2 ? std::strtoull(argv[2], nullptr, 10)
                                      : 7;

  const rirsim::GroundTruth truth =
      rirsim::build_world(rirsim::WorldConfig::test_scale(seed, scale));
  bgpsim::OpWorldConfig op_config;
  op_config.behavior.seed = seed + 1;
  op_config.attacks.scale = scale;
  op_config.misconfigs.seed = seed + 3;
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

  // The set of ASNs ever delegated (the filter the paper proposes
  // operators could apply).
  std::set<std::uint32_t> delegated;
  for (const lifetimes::AdminLifetime& life : admin.lifetimes)
    delegated.insert(life.asn.value);

  // Scan one day of the (sanitized) global table.
  const util::Day day = util::make_day(2018, 6, 15);
  const bgp::CollectorInfrastructure infra =
      bgp::make_default_infrastructure();
  const bgpsim::RouteGenerator generator(op_world, infra, seed + 5);
  const bgp::Sanitizer sanitizer;
  bgp::SanitizeStats stats;

  // Aggregate per origin, applying the paper's >1-peer visibility rule so
  // single-peer spurious sightings (noise) are not flagged.
  struct OriginInfo {
    std::int64_t elements = 0;
    std::set<std::uint32_t> peers;
    std::uint32_t first_hop = 0;
  };
  std::map<std::uint32_t, OriginInfo> observed;
  std::int64_t routes = 0;
  for (const bgp::Element& element : generator.elements_for_day(day)) {
    if (!sanitizer.accept(element, stats)) continue;
    ++routes;
    const auto origin = element.path.origin();
    if (!origin || asn::is_bogon(*origin)) continue;
    if (delegated.contains(origin->value)) continue;
    auto& entry = observed[origin->value];
    ++entry.elements;
    entry.peers.insert(element.peer.value);
    if (const auto hop = element.path.first_hop())
      entry.first_hop = hop->value;
  }
  std::map<std::uint32_t, std::pair<std::int64_t, std::uint32_t>> flagged;
  std::int64_t spurious = 0;
  for (const auto& [origin, info] : observed) {
    if (info.peers.size() < 2) {
      ++spurious;
      continue;
    }
    flagged[origin] = {info.elements, info.first_hop};
  }

  std::cout << "scanned " << util::with_commas(routes)
            << " sanitized route elements on " << util::format_iso(day)
            << " (discarded: " << stats.prefix_too_long << " long prefixes, "
            << stats.prefix_too_short << " short, " << stats.path_loops
            << " loops; " << spurious
            << " single-peer spurious origins ignored)\n\n";

  // Classify each flagged origin the way 6.4 does.
  std::set<std::uint32_t> allocated_set(delegated.begin(), delegated.end());
  int max_digits = 1;
  for (const std::uint32_t a : allocated_set)
    max_digits = std::max(max_digits, asn::digit_count(asn::Asn{a}));

  util::TextTable table({"origin ASN", "elements", "first hop",
                         "classification"});
  std::size_t shown = 0;
  for (const auto& [origin, info] : flagged) {
    if (shown++ == 15) break;
    std::string kind = "unclassified";
    const asn::Asn bogus{origin};
    // Prepend typo?
    const std::string spelling = asn::to_string(bogus);
    bool matched = false;
    if (spelling.size() % 2 == 0) {
      const auto half = asn::parse_asn(spelling.substr(0, spelling.size() /
                                                              2));
      if (half && allocated_set.contains(half->value) &&
          asn::is_doubled_spelling(bogus, *half)) {
        kind = "prepending typo of AS" + asn::to_string(*half);
        matched = true;
      }
    }
    if (!matched && allocated_set.contains(info.second) &&
        asn::spelling_distance(bogus, asn::Asn{info.second}) == 1) {
      kind = "one-digit typo of AS" + std::to_string(info.second) +
             " (MOAS risk)";
      matched = true;
    }
    if (!matched && asn::digit_count(bogus) > max_digits)
      kind = "internal-use ASN leaking via AS" + std::to_string(info.second);
    table.add_row({asn::to_string(bogus), std::to_string(info.first),
                   "AS" + std::to_string(info.second), kind});
  }
  std::cout << "origins announcing without any delegation ("
            << flagged.size() << " flagged):\n";
  table.print(std::cout);

  std::cout << "\nfiltering all never-delegated origins would have dropped "
            << flagged.size()
            << " bogus origins from this day's table — the RPKI-style "
               "mitigation the paper argues for in 9.\n";
  std::cout << "misconfig_scan OK\n";
  return 0;
}
