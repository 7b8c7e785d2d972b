#include "joint/taxonomy.hpp"

#include <algorithm>
#include <set>

#include "check/contracts.hpp"

namespace pl::joint {

namespace {

constexpr std::string_view kCategoryNames[] = {
    "complete-overlap", "partial-overlap", "unused-admin",
    "outside-delegation"};

}  // namespace

std::string_view category_name(Category category) noexcept {
  return kCategoryNames[static_cast<std::size_t>(category)];
}

AsnClassification classify_asn(std::span<const lifetimes::AdminLifetime> admin,
                               std::span<const lifetimes::OpLifetime> op) {
  AsnClassification cls;
  cls.admin_category.assign(admin.size(), Category::kUnused);
  cls.op_category.assign(op.size(), Category::kOutsideDelegation);
  cls.op_to_admin.assign(op.size(), -1);
  cls.admin_to_ops.resize(admin.size());

  std::vector<bool> admin_has_partial(admin.size(), false);
  std::vector<bool> admin_has_inside(admin.size(), false);

  for (std::size_t o = 0; o < op.size(); ++o) {
    const lifetimes::OpLifetime& op_life = op[o];
    std::int64_t best_admin = -1;
    std::int64_t best_overlap = 0;
    bool inside = false;
    for (std::size_t a = 0; a < admin.size(); ++a) {
      const lifetimes::AdminLifetime& admin_life = admin[a];
      const std::int64_t overlap =
          util::overlap_days(admin_life.days, op_life.days);
      if (overlap <= 0) continue;
      const bool contains = admin_life.days.contains(op_life.days);
      cls.admin_to_ops[a].push_back(o);
      if (contains)
        admin_has_inside[a] = true;
      else
        admin_has_partial[a] = true;
      if (overlap > best_overlap) {
        best_overlap = overlap;
        best_admin = static_cast<std::int64_t>(a);
        inside = contains;
      }
    }
    cls.op_to_admin[o] = best_admin;
    if (best_admin < 0)
      cls.op_category[o] = Category::kOutsideDelegation;
    else
      cls.op_category[o] =
          inside ? Category::kCompleteOverlap : Category::kPartialOverlap;
  }

  for (std::size_t a = 0; a < admin.size(); ++a) {
    if (admin_has_partial[a])
      cls.admin_category[a] = Category::kPartialOverlap;
    else if (admin_has_inside[a])
      cls.admin_category[a] = Category::kCompleteOverlap;
    else
      cls.admin_category[a] = Category::kUnused;
  }
  return cls;
}

Taxonomy classify(const lifetimes::AdminDataset& admin,
                  const lifetimes::OpDataset& op) {
  PL_EXPECT(([&] {
              for (const auto& [asn, indices] : admin.by_asn)
                for (const std::size_t index : indices)
                  if (index >= admin.lifetimes.size() ||
                      admin.lifetimes[index].asn.value != asn)
                    return false;
              return true;
            })(),
            "classify() requires a freshly indexed AdminDataset (by_asn "
            "entries must point at lifetimes of the same ASN)");
  Taxonomy taxonomy;
  taxonomy.admin_category.assign(admin.lifetimes.size(), Category::kUnused);
  taxonomy.op_category.assign(op.lifetimes.size(),
                              Category::kOutsideDelegation);
  taxonomy.op_to_admin.assign(op.lifetimes.size(), -1);
  taxonomy.admin_to_ops.resize(admin.lifetimes.size());

  // Classification only relates lives of the same ASN. A life whose ASN has
  // no lives on the other side keeps the default assigned above (unused /
  // outside-delegation), so only ASNs present in both indexes are walked;
  // within one, ops run in start order, as in classify_asn.
  std::vector<unsigned char> has_partial;
  std::vector<unsigned char> has_inside;
  auto o_it = op.by_asn.begin();
  for (const auto& [asn, a_idx] : admin.by_asn) {
    while (o_it != op.by_asn.end() && o_it->first < asn) ++o_it;
    if (o_it == op.by_asn.end()) break;
    if (o_it->first != asn) continue;
    has_partial.assign(a_idx.size(), 0);
    has_inside.assign(a_idx.size(), 0);
    for (const std::size_t oi : o_it->second) {
      const lifetimes::OpLifetime& op_life = op.lifetimes[oi];
      std::int64_t best_admin = -1;
      std::int64_t best_overlap = 0;
      bool inside = false;
      for (std::size_t a = 0; a < a_idx.size(); ++a) {
        const lifetimes::AdminLifetime& admin_life = admin.lifetimes[a_idx[a]];
        const std::int64_t overlap =
            util::overlap_days(admin_life.days, op_life.days);
        if (overlap <= 0) continue;
        const bool contains = admin_life.days.contains(op_life.days);
        taxonomy.admin_to_ops[a_idx[a]].push_back(oi);
        if (contains)
          has_inside[a] = 1;
        else
          has_partial[a] = 1;
        if (overlap > best_overlap) {
          best_overlap = overlap;
          best_admin = static_cast<std::int64_t>(a);
          inside = contains;
        }
      }
      if (best_admin >= 0) {
        taxonomy.op_to_admin[oi] = static_cast<std::int64_t>(
            a_idx[static_cast<std::size_t>(best_admin)]);
        taxonomy.op_category[oi] = inside ? Category::kCompleteOverlap
                                          : Category::kPartialOverlap;
      }
    }
    for (std::size_t a = 0; a < a_idx.size(); ++a) {
      if (has_partial[a] != 0)
        taxonomy.admin_category[a_idx[a]] = Category::kPartialOverlap;
      else if (has_inside[a] != 0)
        taxonomy.admin_category[a_idx[a]] = Category::kCompleteOverlap;
    }
  }

  for (const Category c : taxonomy.admin_category)
    ++taxonomy.admin_counts[static_cast<std::size_t>(c)];
  for (const Category c : taxonomy.op_category)
    ++taxonomy.op_counts[static_cast<std::size_t>(c)];
  PL_ENSURE(([&] {
              std::int64_t admin_total = 0;
              for (const std::int64_t n : taxonomy.admin_counts)
                admin_total += n;
              std::int64_t op_total = 0;
              for (const std::int64_t n : taxonomy.op_counts) op_total += n;
              return admin_total ==
                         static_cast<std::int64_t>(admin.lifetimes.size()) &&
                     op_total ==
                         static_cast<std::int64_t>(op.lifetimes.size());
            })(),
            "taxonomy tallies must conserve the input lifetime counts "
            "(every life lands in exactly one class)");
  return taxonomy;
}

OutsideSplit split_outside(const Taxonomy& taxonomy,
                           const lifetimes::AdminDataset& admin,
                           const lifetimes::OpDataset& op) {
  OutsideSplit split;
  std::set<std::uint32_t> ever;
  std::set<std::uint32_t> never;
  for (std::size_t o = 0; o < op.lifetimes.size(); ++o) {
    if (taxonomy.op_category[o] != Category::kOutsideDelegation) continue;
    const std::uint32_t asn = op.lifetimes[o].asn.value;
    if (asn::is_bogon(asn::Asn{asn})) continue;  // operators filter bogons
    if (admin.by_asn.contains(asn))
      ever.insert(asn);
    else
      never.insert(asn);
  }
  for (const std::uint32_t asn : ever)
    split.ever_allocated.push_back(asn::Asn{asn});
  for (const std::uint32_t asn : never)
    split.never_allocated.push_back(asn::Asn{asn});
  return split;
}

void record_metrics(const Taxonomy& taxonomy, obs::Registry& metrics) {
  const auto tally = [&](std::string_view side, std::string_view cls,
                         Category category,
                         const std::array<std::int64_t, 4>& counts) {
    metrics
        .counter("pl_taxonomy_" + std::string(side) + "{class=\"" +
                 std::string(cls) + "\"}")
        .add(counts[static_cast<std::size_t>(category)]);
  };
  tally("admin", "complete_overlap", Category::kCompleteOverlap,
        taxonomy.admin_counts);
  tally("admin", "partial_overlap", Category::kPartialOverlap,
        taxonomy.admin_counts);
  tally("admin", "unused", Category::kUnused, taxonomy.admin_counts);
  tally("op", "complete_overlap", Category::kCompleteOverlap,
        taxonomy.op_counts);
  tally("op", "partial_overlap", Category::kPartialOverlap,
        taxonomy.op_counts);
  tally("op", "outside_delegation", Category::kOutsideDelegation,
        taxonomy.op_counts);
}

}  // namespace pl::joint
