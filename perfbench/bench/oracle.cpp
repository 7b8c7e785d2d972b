#include "bench/oracle.hpp"

namespace perfbench {

namespace {

class Fnv {
 public:
  void mix(std::uint64_t value) {
    hash_ ^= value;
    hash_ *= 0x100000001b3ULL;
  }
  std::uint64_t value() const noexcept { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

const pl::serve::AsnRow* scan_for_row(const pl::serve::Snapshot& snapshot,
                                      pl::asn::Asn asn) {
  for (const pl::serve::AsnRow& row : snapshot.rows())
    if (row.asn == asn) return &row;
  return nullptr;
}

bool covers(const pl::util::DayInterval& days, pl::util::Day day) {
  return days.first <= day && day <= days.last;
}

}  // namespace

std::uint64_t study_fingerprint(const pl::lifetimes::AdminDataset& admin,
                                const pl::lifetimes::OpDataset& op,
                                const pl::joint::Taxonomy& taxonomy,
                                const pl::robust::RobustnessReport& robustness) {
  Fnv fnv;
  fnv.mix(admin.lifetimes.size());
  for (const pl::lifetimes::AdminLifetime& life : admin.lifetimes) {
    fnv.mix(life.asn.value);
    fnv.mix(static_cast<std::uint64_t>(life.days.first));
    fnv.mix(static_cast<std::uint64_t>(life.days.last));
    fnv.mix(static_cast<std::uint64_t>(life.registration_date));
    fnv.mix(static_cast<std::uint64_t>(life.registry));
    fnv.mix(life.opaque_id);
    fnv.mix(life.open_ended ? 1 : 0);
    fnv.mix(life.transferred ? 1 : 0);
  }
  fnv.mix(op.lifetimes.size());
  for (const pl::lifetimes::OpLifetime& life : op.lifetimes) {
    fnv.mix(life.asn.value);
    fnv.mix(static_cast<std::uint64_t>(life.days.first));
    fnv.mix(static_cast<std::uint64_t>(life.days.last));
  }
  for (const std::int64_t count : taxonomy.admin_counts)
    fnv.mix(static_cast<std::uint64_t>(count));
  for (const std::int64_t count : taxonomy.op_counts)
    fnv.mix(static_cast<std::uint64_t>(count));
  for (const std::int64_t link : taxonomy.op_to_admin)
    fnv.mix(static_cast<std::uint64_t>(link));
  fnv.mix(static_cast<std::uint64_t>(robustness.days_applied));
  fnv.mix(static_cast<std::uint64_t>(robustness.days_delivered));
  return fnv.value();
}

pl::serve::AsnAnswer expected_answer(const pl::serve::Snapshot& snapshot,
                                     pl::asn::Asn asn) {
  pl::serve::AsnAnswer answer;
  answer.asn = asn;
  const pl::serve::AsnRow* row = scan_for_row(snapshot, asn);
  if (row == nullptr) return answer;
  answer.known = true;
  answer.admin_life_count = row->admin_count;
  answer.op_life_count = row->op_count;
  answer.transferred = (row->flags & pl::serve::kFlagTransferred) != 0;
  answer.dormant_squat = (row->flags & pl::serve::kFlagDormantSquat) != 0;
  answer.outside_activity =
      (row->flags & pl::serve::kFlagOutsideActivity) != 0;
  const pl::util::Day end = snapshot.archive_end();
  const auto admin = snapshot.admin_lives(*row);
  if (!admin.empty()) {
    answer.admin_span = pl::util::DayInterval{admin.front().life.days.first,
                                              admin.back().life.days.last};
    const pl::serve::AdminLifeRow& latest = admin.back();
    answer.latest_registry = latest.life.registry;
    answer.latest_country = latest.life.country;
    answer.latest_registration = latest.life.registration_date;
    answer.latest_admin_category = latest.category;
    for (const pl::serve::AdminLifeRow& life : admin)
      answer.currently_allocated |= covers(life.life.days, end);
  }
  const auto op = snapshot.op_lives(*row);
  if (!op.empty()) {
    answer.op_span = pl::util::DayInterval{op.front().life.days.first,
                                           op.back().life.days.last};
    for (const pl::serve::OpLifeRow& life : op)
      answer.currently_active |= covers(life.life.days, end);
  }
  return answer;
}

pl::serve::AliveAnswer expected_alive(const pl::serve::Snapshot& snapshot,
                                      pl::asn::Asn asn, pl::util::Day day) {
  pl::serve::AliveAnswer answer;
  answer.asn = asn;
  const pl::serve::AsnRow* row = scan_for_row(snapshot, asn);
  if (row == nullptr) return answer;
  for (const pl::serve::AdminLifeRow& life : snapshot.admin_lives(*row))
    answer.admin_alive |= covers(life.life.days, day);
  for (const pl::serve::OpLifeRow& life : snapshot.op_lives(*row))
    answer.op_alive |= covers(life.life.days, day);
  return answer;
}

std::vector<pl::asn::Asn> expected_scan(const pl::serve::Snapshot& snapshot,
                                        const pl::serve::ScanQuery& scan) {
  std::vector<pl::asn::Asn> asns;
  for (const pl::serve::AsnRow& row : snapshot.rows()) {
    if (row.asn < scan.first || scan.last < row.asn) continue;
    bool registry = !scan.registry.has_value();
    bool country = !scan.country.has_value();
    for (const pl::serve::AdminLifeRow& life : snapshot.admin_lives(row)) {
      registry |= scan.registry && life.life.registry == *scan.registry;
      country |= scan.country && life.life.country == *scan.country;
    }
    if (registry && country) asns.push_back(row.asn);
  }
  return asns;
}

bool answers_match(const pl::serve::Snapshot& snapshot,
                   const std::vector<pl::asn::Asn>& asns,
                   const std::vector<pl::serve::AsnAnswer>& answers) {
  if (answers.size() != asns.size()) return false;
  for (std::size_t i = 0; i < asns.size(); ++i)
    if (!(answers[i] == expected_answer(snapshot, asns[i]))) return false;
  return true;
}

}  // namespace perfbench
