#include "joint/birdseye.hpp"

#include <algorithm>
#include <map>

namespace pl::joint {

namespace {

using util::Day;
using util::DayInterval;

/// Difference-array accumulator over a day window.
class DiffSeries {
 public:
  DiffSeries(Day begin, Day end)
      : begin_(begin), end_(end),
        delta_(static_cast<std::size_t>(end - begin + 2), 0) {}

  void add(const DayInterval& interval) {
    const DayInterval clipped =
        interval.intersect(DayInterval{begin_, end_});
    if (clipped.empty()) return;
    delta_[static_cast<std::size_t>(clipped.first - begin_)] += 1;
    delta_[static_cast<std::size_t>(clipped.last - begin_) + 1] -= 1;
  }

  std::vector<std::int32_t> counts() const {
    std::vector<std::int32_t> out(delta_.size() - 1);
    std::int32_t running = 0;
    for (std::size_t i = 0; i + 1 < delta_.size(); ++i) {
      running += delta_[i];
      out[i] = running;
    }
    return out;
  }

 private:
  Day begin_;
  Day end_;
  std::vector<std::int32_t> delta_;
};

}  // namespace

DailyCensus compute_census(const lifetimes::AdminDataset& admin,
                           const lifetimes::OpDataset& op, Day begin,
                           Day end) {
  DailyCensus census;
  census.begin = begin;
  census.end = end;

  std::vector<DiffSeries> admin_series(asn::kRirCount,
                                       DiffSeries(begin, end));
  std::vector<DiffSeries> op_series(asn::kRirCount, DiffSeries(begin, end));
  DiffSeries admin_all(begin, end);
  DiffSeries op_all(begin, end);

  for (const lifetimes::AdminLifetime& life : admin.lifetimes) {
    admin_series[asn::index_of(life.registry)].add(life.days);
    admin_all.add(life.days);
  }

  // An op life counts toward the registry of its ASN's first admin life.
  for (const lifetimes::OpLifetime& life : op.lifetimes) {
    op_all.add(life.days);
    const auto admin_run = lifetimes::asn_run(admin.lifetimes, life.asn);
    if (!admin_run.empty())
      op_series[asn::index_of(admin_run.front().registry)].add(life.days);
  }

  for (std::size_t r = 0; r < asn::kRirCount; ++r) {
    census.admin_per_rir[r] = admin_series[r].counts();
    census.op_per_rir[r] = op_series[r].counts();
  }
  census.admin_overall = admin_all.counts();
  census.op_overall = op_all.counts();
  return census;
}

Day crossover_day(const std::vector<std::int32_t>& a,
                  const std::vector<std::int32_t>& b, Day begin) {
  // Last day where a <= b, then the crossover is the next day (if any).
  std::size_t last_not_ahead = 0;
  bool ever_behind = false;
  for (std::size_t i = 0; i < a.size() && i < b.size(); ++i)
    if (a[i] <= b[i]) {
      last_not_ahead = i;
      ever_behind = true;
    }
  if (!ever_behind) return begin;  // ahead the whole time
  if (last_not_ahead + 1 >= a.size()) return -1;  // never stays ahead
  return begin + static_cast<Day>(last_not_ahead) + 1;
}

WidthCensus compute_width_census(const lifetimes::AdminDataset& admin,
                                 Day begin, Day end) {
  WidthCensus census;
  census.begin = begin;
  census.end = end;
  std::vector<DiffSeries> series16(asn::kRirCount, DiffSeries(begin, end));
  std::vector<DiffSeries> series32(asn::kRirCount, DiffSeries(begin, end));
  for (const lifetimes::AdminLifetime& life : admin.lifetimes) {
    const std::size_t r = asn::index_of(life.registry);
    (life.asn.is_16bit() ? series16 : series32)[r].add(life.days);
  }
  for (std::size_t r = 0; r < asn::kRirCount; ++r) {
    census.bits16[r] = series16[r].counts();
    census.bits32[r] = series32[r].counts();
  }
  return census;
}

QuarterlySeries compute_quarterly(const lifetimes::AdminDataset& admin,
                                  Day begin, Day end) {
  QuarterlySeries series;
  const int first_quarter = util::quarter_index(begin);
  const int last_quarter = util::quarter_index(end);
  const auto quarters = static_cast<std::size_t>(last_quarter -
                                                 first_quarter + 1);
  series.quarter_index.resize(quarters);
  for (std::size_t q = 0; q < quarters; ++q)
    series.quarter_index[q] = first_quarter + static_cast<int>(q);
  for (std::size_t r = 0; r < asn::kRirCount; ++r) {
    series.births[r].assign(quarters, 0);
    series.balance[r].assign(quarters, 0);
  }

  for (const lifetimes::AdminLifetime& life : admin.lifetimes) {
    const std::size_t r = asn::index_of(life.registry);
    const int birth_quarter = util::quarter_index(life.days.first);
    if (birth_quarter >= first_quarter && birth_quarter <= last_quarter) {
      const auto q = static_cast<std::size_t>(birth_quarter - first_quarter);
      ++series.births[r][q];
      ++series.balance[r][q];
    }
    if (!life.open_ended) {
      const int death_quarter = util::quarter_index(life.days.last);
      if (death_quarter >= first_quarter && death_quarter <= last_quarter)
        --series.balance[r][static_cast<std::size_t>(death_quarter -
                                                     first_quarter)];
    }
  }
  return series;
}

namespace {

/// ASN counts with 1, 2 and 3+ lives, per registry.
using LifeBuckets = std::array<std::array<std::int64_t, 3>, asn::kRirCount>;

void add_asn(LifeBuckets& buckets, std::size_t registry, std::size_t lives) {
  ++buckets[registry][lives == 1 ? 0 : lives == 2 ? 1 : 2];
}

void tally_lives(const LifeBuckets& buckets,
                 std::array<LivesPerAsnRow, asn::kRirCount>& rows,
                 LivesPerAsnRow& total) {
  std::array<std::int64_t, 3> total_buckets{};
  for (std::size_t r = 0; r < asn::kRirCount; ++r) {
    for (std::size_t b = 0; b < 3; ++b) total_buckets[b] += buckets[r][b];
    const std::int64_t n =
        buckets[r][0] + buckets[r][1] + buckets[r][2];
    rows[r].asns = n;
    if (n == 0) continue;
    rows[r].one = static_cast<double>(buckets[r][0]) / static_cast<double>(n);
    rows[r].two = static_cast<double>(buckets[r][1]) / static_cast<double>(n);
    rows[r].more = static_cast<double>(buckets[r][2]) / static_cast<double>(n);
  }
  const std::int64_t n =
      total_buckets[0] + total_buckets[1] + total_buckets[2];
  total.asns = n;
  if (n != 0) {
    total.one = static_cast<double>(total_buckets[0]) / static_cast<double>(n);
    total.two = static_cast<double>(total_buckets[1]) / static_cast<double>(n);
    total.more = static_cast<double>(total_buckets[2]) / static_cast<double>(n);
  }
}

}  // namespace

LivesPerAsnTable compute_lives_per_asn(const lifetimes::AdminDataset& admin,
                                       const lifetimes::OpDataset& op) {
  LivesPerAsnTable table;

  // Each ASN is one run of each list, counted under the registry of its
  // first admin life.
  LifeBuckets admin_buckets{};
  for (std::size_t i = 0; i < admin.lifetimes.size();) {
    const auto run =
        lifetimes::asn_run(admin.lifetimes, admin.lifetimes[i].asn);
    i += run.size();
    add_asn(admin_buckets, asn::index_of(run.front().registry), run.size());
  }
  tally_lives(admin_buckets, table.admin, table.admin_total);

  LifeBuckets op_buckets{};
  for (std::size_t i = 0; i < op.lifetimes.size();) {
    const auto run = lifetimes::asn_run(op.lifetimes, op.lifetimes[i].asn);
    i += run.size();
    const auto admin_run = lifetimes::asn_run(admin.lifetimes, run.front().asn);
    if (admin_run.empty()) continue;  // never allocated: no RIR row
    add_asn(op_buckets, asn::index_of(admin_run.front().registry), run.size());
  }
  tally_lives(op_buckets, table.op, table.op_total);
  return table;
}

std::vector<CountryShareRow> country_shares_on(
    const lifetimes::AdminDataset& admin, asn::Rir rir, Day day,
    std::size_t top_n) {
  std::map<std::string, CountryShareRow> rows;
  std::int64_t total = 0;
  for (const lifetimes::AdminLifetime& life : admin.lifetimes) {
    if (life.registry != rir || !life.days.contains(day)) continue;
    auto& row = rows[life.country.to_string()];
    row.country = life.country;
    ++row.count;
    ++total;
  }
  std::vector<CountryShareRow> out;
  out.reserve(rows.size());
  for (auto& [name, row] : rows) {
    row.share = total == 0 ? 0
                           : static_cast<double>(row.count) /
                                 static_cast<double>(total);
    out.push_back(row);
  }
  std::sort(out.begin(), out.end(),
            [](const CountryShareRow& a, const CountryShareRow& b) {
              return a.count > b.count;
            });
  if (out.size() > top_n) out.resize(top_n);
  return out;
}

std::array<std::vector<double>, asn::kRirCount> durations_per_rir(
    const lifetimes::AdminDataset& admin) {
  std::array<std::vector<double>, asn::kRirCount> out;
  for (const lifetimes::AdminLifetime& life : admin.lifetimes)
    out[asn::index_of(life.registry)].push_back(
        static_cast<double>(life.days.length()));
  return out;
}

BirthYearStats compute_birth_year_stats(const lifetimes::AdminDataset& admin,
                                        int first_year, int last_year) {
  BirthYearStats stats;
  stats.first_year = first_year;
  const auto years = static_cast<std::size_t>(last_year - first_year + 1);
  for (std::size_t r = 0; r < asn::kRirCount; ++r) {
    stats.durations[r].resize(years);
    stats.births[r].assign(years, 0);
  }
  for (const lifetimes::AdminLifetime& life : admin.lifetimes) {
    const int year = util::year_of(life.days.first);
    if (year < first_year || year > last_year) continue;
    const std::size_t r = asn::index_of(life.registry);
    const auto y = static_cast<std::size_t>(year - first_year);
    stats.durations[r][y].push_back(
        static_cast<double>(life.days.length()));
    ++stats.births[r][y];
  }
  return stats;
}

}  // namespace pl::joint
