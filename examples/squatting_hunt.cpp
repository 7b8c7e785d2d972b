// Squatting hunt: the paper's 6.1.2/6.4 workflow as a tool — driven off the
// serving layer.
//
// The detectors already ran when the snapshot was built: every op life
// carries its dormant-awakening / outside-delegation verdict, and every ASN
// row ORs them into flag bits. So the hunt is now a scan over the snapshot
// for flagged ASNs, followed by the semi-automatic inspection the paper did:
// daily prefix-origination counts and the upstream ASN in the announcements,
// looking for known hijack factories.
//
// Run:  ./squatting_hunt [scale] [seed]
#include <cstdlib>
#include <iostream>
#include <unordered_set>
#include <utility>

#include "bgpsim/route_gen.hpp"
#include "history/store.hpp"
#include "serve/query.hpp"
#include "serve/serving.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace pl;
  const double scale = argc > 1 ? std::atof(argv[1]) : 0.2;
  const std::uint64_t seed = argc > 2 ? std::strtoull(argv[2], nullptr, 10)
                                      : 7;

  // --- Build both dimensions and freeze them into a serving snapshot.
  pipeline::Config config;
  config.seed = seed;
  config.scale = scale;
  serve::ServingWorld world = serve::run_simulated_serving(config);
  const bgpsim::OpWorld& op_world = world.result.op_world;
  serve::QueryService service(std::move(world.snapshot));

  // --- Find the candidates: one full-range scan, filtered on the detector
  // flag bits the snapshot build stamped on each row.
  std::vector<asn::Asn> dormant;
  std::vector<asn::Asn> outside;
  const pl::StatusOr<serve::QueryResult> scan =
      service.query(serve::Query::scan(serve::ScanQuery{}));
  if (!scan.ok()) {
    std::cerr << "scan failed: " << scan.status().to_string() << "\n";
    return 1;
  }
  for (const serve::AsnAnswer& answer : scan->lookups) {
    if (answer.dormant_squat) dormant.push_back(answer.asn);
    if (answer.outside_activity) outside.push_back(answer.asn);
  }
  std::cout << "flagged " << dormant.size()
            << " dormant awakenings and " << outside.size()
            << " outside-delegation lives\n\n";

  // --- Inspect candidates: prefix counts + upstream via route elements.
  const bgp::CollectorInfrastructure infra =
      bgp::make_default_infrastructure();
  const bgpsim::RouteGenerator generator(op_world, infra, seed + 5);
  const std::unordered_set<std::uint32_t> factories = {
      bgpsim::kHijackFactoryAsn, bgpsim::kBitcanalAsn,
      bgpsim::kSpammerUpstreamAsn};

  // Ground-truth labels, playing the role of NANOG/Spamhaus/BGPmon
  // cross-validation.
  std::unordered_set<std::uint32_t> labelled;
  for (const bgpsim::SquatEvent& event : op_world.attacks.events)
    labelled.insert(event.asn.value);

  const serve::Snapshot& snapshot = service.snapshot();
  util::TextTable table({"ASN", "awakening", "life (d)", "prefixes/day",
                         "upstream", "verdict"});
  int shown = 0;
  int confirmed = 0;
  std::unordered_set<std::uint32_t> counted;
  const auto inspect = [&](asn::Asn candidate) {
    const serve::AsnRow* row = snapshot.find(candidate);
    if (row == nullptr) return;
    // Probe the flagged op life (there can be several; take the first one
    // the detectors marked).
    const serve::OpLifeRow* suspect = nullptr;
    for (const serve::OpLifeRow& op : snapshot.op_lives(*row))
      if (op.dormant_squat || op.outside_activity) {
        suspect = &op;
        break;
      }
    if (suspect == nullptr) return;
    const lifetimes::OpLifetime& life = suspect->life;
    const util::Day probe =
        life.days.first + static_cast<util::Day>(life.days.length() / 2);
    const std::unordered_set<std::uint32_t> watch = {candidate.value};
    std::int64_t prefixes = 0;
    std::uint32_t upstream = 0;
    for (const bgp::Element& element :
         generator.elements_for_day(probe, &watch)) {
      ++prefixes;
      if (const auto hop = element.path.first_hop()) upstream = hop->value;
    }
    const bool factory_upstream = factories.contains(upstream);
    const bool is_labelled = labelled.contains(candidate.value);
    if (is_labelled && counted.insert(candidate.value).second) ++confirmed;
    if (shown < 12 && (factory_upstream || prefixes > 20)) {
      ++shown;
      table.add_row({asn::to_string(candidate),
                     util::format_iso(life.days.first),
                     std::to_string(life.days.length()),
                     std::to_string(prefixes),
                     "AS" + std::to_string(upstream),
                     is_labelled ? "CONFIRMED (ground truth)"
                                 : factory_upstream ? "suspicious upstream"
                                                    : "benign?"});
    }
  };
  for (const asn::Asn candidate : dormant) inspect(candidate);
  for (const asn::Asn candidate : outside) inspect(candidate);

  std::cout << "most suspicious candidates (high prefix volume or known "
               "hijack-factory upstream):\n";
  table.print(std::cout);

  std::cout << "\n" << confirmed << " of "
            << dormant.size() + outside.size()
            << " flagged ASNs are ground-truth malicious — like the paper, "
               "the filter surfaces squats but most candidates are benign "
               "irregular operations.\n";

  // --- When did each candidate turn bad? A history store over the trailing
  // weeks lets first_flip() pin the first recorded day an ASN's admin
  // classification became outside-delegation — the squat's onset, to the
  // day, without re-running the study per day.
  const util::Day end = snapshot.archive_end();
  auto history = history::HistoryStore::build(
      world.result.restored, op_world.activity, end - 14, end);
  if (history.ok()) {
    service.attach_history(&*history);
    int dated = 0;
    for (const asn::Asn candidate : outside) {
      const auto flip =
          service.first_flip(candidate, joint::Category::kOutsideDelegation);
      if (!flip.ok()) continue;  // kNotFound: flipped before the window
      std::cout << "  " << asn::to_string(candidate)
                << " first classified outside-delegation on "
                << util::format_iso(*flip) << "\n";
      if (++dated == 5) break;
    }
    if (dated == 0)
      std::cout << "  (no candidate flipped to outside-delegation within "
                   "the last 14 recorded days)\n";
  }
  std::cout << "squatting_hunt OK\n";
  return 0;
}
