// Prefix-informed lifetimes (paper 8, Limitations): compare the plain
// 30-day-timeout operational lifetimes with the prefix-continuity-aware
// builder, and show the taxonomy impact.
#include <set>
#include <unordered_set>

#include "common.hpp"
#include "lifetimes/prefix_informed.hpp"

int main() {
  using namespace pl;
  bench::print_banner("Prefix-informed lifetimes",
                      "timeout-only vs prefix-continuity op lifetimes");

  const bench::Pipeline& p = bench::Pipeline::instance();
  const bgp::CollectorInfrastructure infra =
      bgp::make_default_infrastructure();
  const bgpsim::RouteGenerator generator(p.op_world, infra, p.seed + 19);

  // Prefix provider: probe the middle day of a run through the route
  // generator (cached per (asn, run start) to bound work).
  std::map<std::pair<std::uint32_t, util::Day>, std::set<bgp::Prefix>> cache;
  const lifetimes::PrefixSetProvider provider =
      [&](asn::Asn asn, const util::DayInterval& run) {
        const auto key = std::make_pair(asn.value, run.first);
        const auto it = cache.find(key);
        if (it != cache.end()) return it->second;
        const util::Day probe =
            run.first + static_cast<util::Day>(run.length() / 2);
        const std::unordered_set<std::uint32_t> watch = {asn.value};
        std::set<bgp::Prefix> prefixes;
        for (const bgp::Element& element :
             generator.elements_for_day(probe, &watch))
          prefixes.insert(element.prefix);
        cache.emplace(key, prefixes);
        return prefixes;
      };

  // Restrict the comparison to ASNs with more than one activity run (the
  // only place the builders can disagree) to keep the probe count sane.
  bgp::ActivityTable multi_run;
  std::int64_t single_run_asns = 0;
  for (const auto& [asn, days] : p.op_world.activity.entries()) {
    if (days.run_count() < 2) {
      ++single_run_asns;
      continue;
    }
    for (const util::DayInterval& run : days.runs())
      multi_run.mark_active(asn, run);
  }

  const lifetimes::OpDataset plain =
      lifetimes::build_op_lifetimes(multi_run, 30);
  const lifetimes::OpDataset informed =
      lifetimes::build_prefix_informed_lifetimes(multi_run, provider);

  util::TextTable table({"builder", "op lifetimes (multi-run ASNs)",
                         "lives/ASN"});
  const auto rate = [](const lifetimes::OpDataset& dataset) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.3f",
                  dataset.lifetimes.empty()
                      ? 0.0
                      : static_cast<double>(dataset.lifetimes.size()) /
                            static_cast<double>(dataset.asn_count()));
    return std::string(buf);
  };
  table.add_row({"30-day timeout (paper 4.2)",
                 bench::fmt_count(static_cast<std::int64_t>(
                     plain.lifetimes.size())),
                 rate(plain)});
  table.add_row({"prefix-informed (8)",
                 bench::fmt_count(static_cast<std::int64_t>(
                     informed.lifetimes.size())),
                 rate(informed)});
  table.print(std::cout);
  std::cout << "(" << bench::fmt_count(single_run_asns)
            << " single-run ASNs are identical under both builders and "
               "excluded)\n";

  // Where they disagree: count merges (outage continuity) and splits
  // (prefix-set changes inside the timeout).
  std::int64_t merges = 0;
  std::int64_t splits = 0;
  for (std::size_t i = 0; i < plain.lifetimes.size();) {
    const auto plain_run =
        lifetimes::asn_run(plain.lifetimes, plain.lifetimes[i].asn);
    i += plain_run.size();
    const auto plain_count = plain_run.size();
    const auto informed_count =
        lifetimes::asn_run(informed.lifetimes, plain_run.front().asn).size();
    if (informed_count == 0) continue;
    if (informed_count < plain_count) merges += static_cast<std::int64_t>(
        plain_count - informed_count);
    if (informed_count > plain_count) splits += static_cast<std::int64_t>(
        informed_count - plain_count);
  }
  std::cout << "\nprefix continuity merged " << bench::fmt_count(merges)
            << " over-timeout outage gaps and split "
            << bench::fmt_count(splits)
            << " sub-timeout lives whose announced space changed — the two "
               "refinements 8 predicts prefix data would enable.\n";

  // Squatted awakenings announce victim space: verify the informed builder
  // never merges a malicious awakening into the preceding benign life.
  std::int64_t checked = 0;
  std::int64_t kept_separate = 0;
  for (const bgpsim::SquatEvent& event : p.op_world.attacks.events) {
    for (const lifetimes::OpLifetime& life :
         lifetimes::asn_run(informed.lifetimes, event.asn)) {
      if (!life.days.overlaps(event.days)) continue;
      ++checked;
      if (life.days.first >= event.days.first - 1) ++kept_separate;
    }
  }
  if (checked > 0)
    std::cout << "\nmalicious awakenings kept as separate lives: "
              << kept_separate << "/" << checked << "\n";
  return 0;
}
