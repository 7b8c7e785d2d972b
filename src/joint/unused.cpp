#include "joint/unused.hpp"

#include <algorithm>
#include <set>
#include <unordered_map>
#include <unordered_set>

namespace pl::joint {

UnusedAnalysis analyze_unused(const Taxonomy& taxonomy,
                              const lifetimes::AdminDataset& admin,
                              const lifetimes::OpDataset& op) {
  UnusedAnalysis analysis;

  // Organizations (opaque ids) with at least one ASN active in BGP.
  std::unordered_set<std::uint64_t> active_orgs;
  for (std::size_t a = 0; a < admin.lifetimes.size(); ++a)
    if (taxonomy.admin_category[a] != Category::kUnused &&
        admin.lifetimes[a].opaque_id != 0)
      active_orgs.insert(admin.lifetimes[a].opaque_id);

  std::map<std::uint16_t, CountryUnusedRow> by_country_map;
  const auto country_key = [](asn::CountryCode cc) {
    // Pack via string to avoid exposing internals.
    const std::string s = cc.to_string();
    return static_cast<std::uint16_t>((s[0] << 8) | s[1]);
  };

  std::set<std::uint32_t> unused_asns;
  std::set<std::uint32_t> used_asns;
  std::array<std::int64_t, asn::kRirCount> short_32bit{};

  for (std::size_t a = 0; a < admin.lifetimes.size(); ++a) {
    const lifetimes::AdminLifetime& life = admin.lifetimes[a];
    auto& row = by_country_map[country_key(life.country)];
    row.country = life.country;
    ++row.total_lives;

    if (taxonomy.admin_category[a] != Category::kUnused) {
      used_asns.insert(life.asn.value);
      continue;
    }
    ++analysis.unused_lives;
    unused_asns.insert(life.asn.value);
    ++row.unused_lives;

    const std::size_t rir = asn::index_of(life.registry);
    analysis.durations[rir].push_back(
        static_cast<double>(life.days.length()));

    if (life.opaque_id != 0 && active_orgs.contains(life.opaque_id))
      ++analysis.unused_with_active_sibling;

    if (life.days.length() <= 31) {
      ++analysis.short_unused_count[rir];
      if (life.asn.is_32bit_only()) ++short_32bit[rir];
    }
  }

  analysis.unused_asns = static_cast<std::int64_t>(unused_asns.size());
  for (const std::uint32_t asn : unused_asns)
    if (!used_asns.contains(asn) &&
        lifetimes::asn_run(op.lifetimes, asn::Asn{asn}).empty())
      ++analysis.never_seen_asns;

  for (std::size_t r = 0; r < asn::kRirCount; ++r)
    analysis.short_unused_32bit_share[r] =
        analysis.short_unused_count[r] == 0
            ? 0
            : static_cast<double>(short_32bit[r]) /
                  static_cast<double>(analysis.short_unused_count[r]);

  analysis.by_country.reserve(by_country_map.size());
  for (auto& [key, row] : by_country_map) analysis.by_country.push_back(row);
  std::sort(analysis.by_country.begin(), analysis.by_country.end(),
            [](const CountryUnusedRow& a, const CountryUnusedRow& b) {
              return a.unused_lives > b.unused_lives;
            });
  return analysis;
}

}  // namespace pl::joint
