#include "joint/squat.hpp"

#include <algorithm>

namespace pl::joint {

bool is_dormant_awakening(std::int64_t dormancy, std::int64_t op_days,
                          std::int64_t admin_days,
                          const SquatDetectorConfig& config) noexcept {
  return dormancy >= config.dormancy_days &&
         static_cast<double>(op_days) / static_cast<double>(admin_days) <=
             config.max_relative_duration;
}

std::vector<SquatCandidate> detect_dormant_squats(
    const Taxonomy& taxonomy, const lifetimes::AdminDataset& admin,
    const lifetimes::OpDataset& op, const SquatDetectorConfig& config) {
  std::vector<SquatCandidate> candidates;

  for (std::size_t a = 0; a < admin.lifetimes.size(); ++a) {
    if (taxonomy.admin_category[a] != Category::kCompleteOverlap) continue;
    const lifetimes::AdminLifetime& life = admin.lifetimes[a];

    std::vector<std::size_t> contained;
    for (const std::size_t o : taxonomy.admin_to_ops[a])
      if (life.days.contains(op.lifetimes[o].days)) contained.push_back(o);
    std::sort(contained.begin(), contained.end(),
              [&](std::size_t x, std::size_t y) {
                return op.lifetimes[x].days.first <
                       op.lifetimes[y].days.first;
              });

    util::Day previous_end = life.days.first - 1;  // allocation start
    for (const std::size_t o : contained) {
      const lifetimes::OpLifetime& op_life = op.lifetimes[o];
      const std::int64_t dormancy =
          static_cast<std::int64_t>(op_life.days.first) - previous_end - 1;
      const double relative =
          static_cast<double>(op_life.days.length()) /
          static_cast<double>(life.days.length());
      if (is_dormant_awakening(dormancy, op_life.days.length(),
                               life.days.length(), config))
        candidates.push_back(
            SquatCandidate{life.asn, o, a, dormancy, relative});
      previous_end = op_life.days.last;
    }
  }
  return candidates;
}

void flag_asn_squats(std::span<const lifetimes::AdminLifetime> admin,
                     std::span<const lifetimes::OpLifetime> op,
                     const AsnClassification& cls,
                     const SquatDetectorConfig& config, AsnSquatFlags& out) {
  out.dormant.assign(op.size(), false);
  out.outside.assign(op.size(), false);

  // Dormant awakenings: walk each complete-overlap admin life's contained
  // op lives in start order, measuring dormancy from the allocation start
  // or the previous contained op life's end — the same walk as
  // detect_dormant_squats, restricted to one ASN.
  for (std::size_t a = 0; a < admin.size(); ++a) {
    if (cls.admin_category[a] != Category::kCompleteOverlap) continue;
    const lifetimes::AdminLifetime& life = admin[a];
    util::Day previous_end = life.days.first - 1;  // allocation start
    for (const auto& [overlap_admin, o] : cls.overlaps) {
      if (overlap_admin != a || !life.days.contains(op[o].days)) continue;
      const std::int64_t dormancy =
          static_cast<std::int64_t>(op[o].days.first) - previous_end - 1;
      out.dormant[o] = is_dormant_awakening(dormancy, op[o].days.length(),
                                            life.days.length(), config);
      previous_end = op[o].days.last;
    }
  }

  // Outside-delegation activity: the global detector emits one candidate
  // per outside-category op life whose ASN has at least one admin life (an
  // outside life overlaps none of them, so a closest gap always exists).
  for (std::size_t o = 0; o < op.size(); ++o)
    if (cls.op_category[o] == Category::kOutsideDelegation && !admin.empty())
      out.outside[o] = true;
}

std::vector<SquatCandidate> detect_outside_delegation_activity(
    const Taxonomy& taxonomy, const lifetimes::AdminDataset& admin,
    const lifetimes::OpDataset& op) {
  std::vector<SquatCandidate> candidates;
  for (std::size_t o = 0; o < op.lifetimes.size(); ++o) {
    if (taxonomy.op_category[o] != Category::kOutsideDelegation) continue;
    const lifetimes::OpLifetime& op_life = op.lifetimes[o];
    const auto admin_run = lifetimes::asn_run(admin.lifetimes, op_life.asn);
    if (admin_run.empty()) continue;  // never allocated

    // Distance to the closest admin life and to the previous op life.
    std::int64_t closest_admin_gap = -1;
    const lifetimes::AdminLifetime* closest_admin = nullptr;
    for (const lifetimes::AdminLifetime& admin_life : admin_run) {
      const auto& admin_days = admin_life.days;
      std::int64_t gap;
      if (admin_days.last < op_life.days.first)
        gap = op_life.days.first - admin_days.last;
      else if (op_life.days.last < admin_days.first)
        gap = admin_days.first - op_life.days.last;
      else
        continue;  // would overlap; not this category
      if (closest_admin_gap < 0 || gap < closest_admin_gap) {
        closest_admin_gap = gap;
        closest_admin = &admin_life;
      }
    }
    if (closest_admin == nullptr) continue;

    std::int64_t dormancy = 0;
    for (const lifetimes::OpLifetime& prior :
         lifetimes::asn_run(op.lifetimes, op_life.asn)) {
      if (&prior == &op_life) continue;
      if (prior.days.last < op_life.days.first)
        dormancy = op_life.days.first - prior.days.last - 1;
    }

    SquatCandidate candidate;
    candidate.asn = op_life.asn;
    candidate.op_index = o;
    candidate.admin_index =
        static_cast<std::size_t>(closest_admin - admin.lifetimes.data());
    candidate.dormancy = dormancy;
    candidate.relative_duration =
        static_cast<double>(op_life.days.length()) /
        static_cast<double>(closest_admin->days.length());
    candidates.push_back(candidate);
  }
  return candidates;
}

}  // namespace pl::joint
