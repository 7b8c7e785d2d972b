#include "bench/inputs.hpp"

#include <algorithm>
#include <cmath>
#include <set>

namespace perfbench {

namespace {

std::uint64_t country_key(const pl::asn::CountryCode& country) {
  std::uint64_t key = 0;
  for (const char c : country.to_string())
    key = (key << 8) | static_cast<unsigned char>(c);
  return key;
}

}  // namespace

std::uint64_t derive_seed(std::uint64_t run_seed, std::string_view stream) {
  std::uint64_t name = 0xcbf29ce484222325ULL;
  for (const char c : stream) {
    name ^= static_cast<unsigned char>(c);
    name *= 0x100000001b3ULL;
  }
  std::uint64_t state = run_seed ^ name;
  return pl::util::splitmix64(state);
}

void InputHash::mix(const pl::serve::DayDelta& delta) {
  mix(static_cast<std::uint64_t>(delta.day));
  mix(delta.delegation.size());
  for (const pl::serve::DelegationFact& fact : delta.delegation) {
    mix(fact.asn.value);
    mix(static_cast<std::uint64_t>(fact.registry));
    mix(static_cast<std::uint64_t>(fact.state.status));
    mix(fact.state.registration_date
            ? 1 + static_cast<std::uint64_t>(*fact.state.registration_date)
            : 0);
    mix(country_key(fact.state.country));
    mix(fact.state.opaque_id);
  }
  mix(delta.active.size());
  for (const pl::asn::Asn asn : delta.active) mix(asn.value);
}

void InputHash::mix(const std::vector<pl::asn::Asn>& asns) {
  mix(asns.size());
  for (const pl::asn::Asn asn : asns) mix(asn.value);
}

void InputHash::mix(const pl::serve::ScanQuery& scan) {
  mix(scan.first.value);
  mix(scan.last.value);
  mix(scan.registry ? 1 + static_cast<std::uint64_t>(*scan.registry) : 0);
  mix(scan.country ? 1 + country_key(*scan.country) : 0);
}

std::vector<pl::asn::Asn> key_universe(const pl::serve::Snapshot& snapshot,
                                       const pl::lifetimes::AdminDataset& admin,
                                       const pl::lifetimes::OpDataset& op) {
  std::set<std::uint32_t> keys;
  for (const pl::serve::AsnRow& row : snapshot.rows()) keys.insert(row.asn.value);
  for (const pl::lifetimes::AdminLifetime& life : admin.lifetimes)
    keys.insert(life.asn.value);
  for (const pl::lifetimes::OpLifetime& life : op.lifetimes)
    keys.insert(life.asn.value);
  std::vector<pl::asn::Asn> universe;
  universe.reserve(keys.size());
  for (const std::uint32_t key : keys) universe.push_back(pl::asn::Asn{key});
  return universe;
}

ZipfKeys::ZipfKeys(std::vector<pl::asn::Asn> universe, double s,
                   pl::util::Rng& rng)
    : ranked_(std::move(universe)) {
  std::shuffle(ranked_.begin(), ranked_.end(), rng);
  cdf_.reserve(ranked_.size());
  double total = 0;
  for (std::size_t rank = 1; rank <= ranked_.size(); ++rank) {
    total += 1.0 / std::pow(static_cast<double>(rank), s);
    cdf_.push_back(total);
  }
  for (double& value : cdf_) value /= total;
}

pl::asn::Asn ZipfKeys::next(pl::util::Rng& rng) const {
  const double u = rng.uniform01();
  const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
  const std::size_t rank = std::min<std::size_t>(
      static_cast<std::size_t>(it - cdf_.begin()), ranked_.size() - 1);
  return ranked_[rank];
}

std::vector<pl::asn::Asn> ZipfKeys::draw(std::size_t count,
                                         pl::util::Rng& rng) const {
  std::vector<pl::asn::Asn> keys;
  keys.reserve(count);
  for (std::size_t i = 0; i < count; ++i) keys.push_back(next(rng));
  return keys;
}

std::vector<pl::asn::Asn> uniform_keys(
    const std::vector<pl::asn::Asn>& universe, std::size_t count,
    pl::util::Rng& rng) {
  std::vector<pl::asn::Asn> keys;
  keys.reserve(count);
  const auto last = static_cast<std::int64_t>(universe.size()) - 1;
  for (std::size_t i = 0; i < count; ++i)
    keys.push_back(universe[static_cast<std::size_t>(rng.uniform(0, last))]);
  return keys;
}

std::vector<pl::serve::ScanQuery> scan_mix(const pl::serve::Snapshot& snapshot,
                                           std::size_t countries,
                                           pl::util::Rng& rng) {
  std::vector<pl::serve::ScanQuery> scans;
  for (const pl::asn::Rir rir : pl::asn::kAllRirs) {
    pl::serve::ScanQuery scan;
    scan.registry = rir;
    scans.push_back(scan);
  }
  // Largest countries by row count; ties broken by code so the list is a
  // function of the snapshot alone.
  std::vector<std::pair<std::size_t, pl::asn::CountryCode>> by_size;
  for (const auto& [country, rows] : snapshot.rows_by_country())
    by_size.emplace_back(rows.size(), country);
  std::sort(by_size.begin(), by_size.end(), [](const auto& a, const auto& b) {
    return a.first != b.first ? a.first > b.first : a.second < b.second;
  });
  for (std::size_t i = 0; i < countries && i < by_size.size(); ++i) {
    pl::serve::ScanQuery scan;
    scan.country = by_size[i].second;
    scans.push_back(scan);
  }
  std::shuffle(scans.begin(), scans.end(), rng);
  return scans;
}

std::vector<pl::util::Day> as_of_days(pl::util::Day base_day,
                                      pl::util::Day last_day, int interval,
                                      std::size_t count, pl::util::Rng& rng) {
  std::vector<pl::util::Day> days;
  if (interval < 2 || count == 0 || last_day <= base_day) return days;
  for (std::size_t i = 0; i < count; ++i) {
    // Keyframe distances spread evenly over 1 .. interval-1.
    const auto distance = static_cast<pl::util::Day>(
        1 + (2 * i + 1) * static_cast<std::size_t>(interval - 1) /
                (2 * count));
    if (base_day + distance > last_day) continue;
    const pl::util::Day windows =
        (last_day - base_day - distance) / interval + 1;
    const auto window = static_cast<pl::util::Day>(rng.uniform(0, windows - 1));
    days.push_back(base_day + window * interval + distance);
  }
  std::sort(days.begin(), days.end(), std::greater<>());
  return days;
}

}  // namespace perfbench
