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

void classify_asn(std::span<const lifetimes::AdminLifetime> admin,
                  std::span<const lifetimes::OpLifetime> op,
                  AsnClassification& out) {
  out.admin_category.assign(admin.size(), Category::kUnused);
  out.op_category.assign(op.size(), Category::kOutsideDelegation);
  out.op_to_admin.assign(op.size(), -1);
  out.overlaps.clear();

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
      out.overlaps.emplace_back(static_cast<std::uint32_t>(a),
                                static_cast<std::uint32_t>(o));
      // Any crossing op life makes the admin life partial; otherwise an
      // inside one makes it complete.
      Category& admin_class = out.admin_category[a];
      if (!contains)
        admin_class = Category::kPartialOverlap;
      else if (admin_class == Category::kUnused)
        admin_class = Category::kCompleteOverlap;
      if (overlap > best_overlap) {
        best_overlap = overlap;
        best_admin = static_cast<std::int64_t>(a);
        inside = contains;
      }
    }
    out.op_to_admin[o] = best_admin;
    if (best_admin >= 0)
      out.op_category[o] =
          inside ? Category::kCompleteOverlap : Category::kPartialOverlap;
  }
}

Taxonomy classify(const lifetimes::AdminDataset& admin,
                  const lifetimes::OpDataset& op) {
  PL_EXPECT(std::is_sorted(admin.lifetimes.begin(), admin.lifetimes.end(),
                           lifetimes::AsnStartOrder{}) &&
                std::is_sorted(op.lifetimes.begin(), op.lifetimes.end(),
                               lifetimes::AsnStartOrder{}),
            "classify() requires both datasets sorted by (asn, start): that "
            "order is the per-ASN index");
  Taxonomy taxonomy;
  taxonomy.admin_category.assign(admin.lifetimes.size(), Category::kUnused);
  taxonomy.op_category.assign(op.lifetimes.size(),
                              Category::kOutsideDelegation);
  taxonomy.op_to_admin.assign(op.lifetimes.size(), -1);
  taxonomy.admin_to_ops.resize(admin.lifetimes.size());

  // Classification only relates lives of the same ASN, and each ASN's lives
  // are one contiguous run of each list. Merge-walk the two lists and
  // classify every ASN with lives on both sides; a life whose ASN has none
  // on the other side keeps the default assigned above (unused /
  // outside-delegation), which is what classify_asn gives it too.
  const std::span<const lifetimes::AdminLifetime> admins = admin.lifetimes;
  const std::span<const lifetimes::OpLifetime> ops = op.lifetimes;
  AsnClassification cls;  // reused across ASNs
  for (std::size_t a = 0, o = 0; a < admins.size() && o < ops.size();) {
    if (admins[a].asn < ops[o].asn) {
      ++a;
      continue;
    }
    if (ops[o].asn < admins[a].asn) {
      ++o;
      continue;
    }
    const asn::Asn asn = admins[a].asn;
    const std::size_t a_begin = a;
    const std::size_t o_begin = o;
    while (a < admins.size() && admins[a].asn == asn) ++a;
    while (o < ops.size() && ops[o].asn == asn) ++o;
    classify_asn(admins.subspan(a_begin, a - a_begin),
                 ops.subspan(o_begin, o - o_begin), cls);
    for (std::size_t i = 0; i < cls.admin_category.size(); ++i)
      taxonomy.admin_category[a_begin + i] = cls.admin_category[i];
    // Pairs come op-major, so each admin life's list stays ascending.
    for (const auto& [local_admin, local_op] : cls.overlaps)
      taxonomy.admin_to_ops[a_begin + local_admin].push_back(o_begin +
                                                             local_op);
    for (std::size_t i = 0; i < cls.op_category.size(); ++i) {
      taxonomy.op_category[o_begin + i] = cls.op_category[i];
      if (cls.op_to_admin[i] >= 0)
        taxonomy.op_to_admin[o_begin + i] =
            static_cast<std::int64_t>(a_begin) + cls.op_to_admin[i];
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
    if (!lifetimes::asn_run(admin.lifetimes, asn::Asn{asn}).empty())
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
