// Correctness oracles the benchmark checks the program's outputs against.
// Each one is independent of the code path it checks: the fingerprint
// folds the study's outputs field by field, and the answer oracles find
// rows by linear scan instead of the snapshot's binary search and indexes.
#pragma once

#include <cstdint>
#include <vector>

#include "joint/taxonomy.hpp"
#include "lifetimes/admin.hpp"
#include "lifetimes/op.hpp"
#include "robust/error.hpp"
#include "serve/query.hpp"
#include "serve/snapshot.hpp"

namespace perfbench {

/// The study's output fingerprint at scale 1.0 and world seed 42.
inline constexpr std::uint64_t kReferenceFingerprint = 0x27d029edaaa3d797ULL;
inline constexpr std::uint64_t kReferenceSeed = 42;

/// FNV-1a over the fields that define a study's output: every admin and op
/// life, the taxonomy tallies and links, and the ingestion books.
std::uint64_t study_fingerprint(const pl::lifetimes::AdminDataset& admin,
                                const pl::lifetimes::OpDataset& op,
                                const pl::joint::Taxonomy& taxonomy,
                                const pl::robust::RobustnessReport& robustness);

/// What `QueryService` must answer for `asn` on `snapshot`, found by a
/// linear scan of the snapshot rows.
pl::serve::AsnAnswer expected_answer(const pl::serve::Snapshot& snapshot,
                                     pl::asn::Asn asn);

/// What an alive query must answer, by linear scan.
pl::serve::AliveAnswer expected_alive(const pl::serve::Snapshot& snapshot,
                                      pl::asn::Asn asn, pl::util::Day day);

/// ASNs a registry/country scan must return, ascending, by linear scan.
std::vector<pl::asn::Asn> expected_scan(const pl::serve::Snapshot& snapshot,
                                        const pl::serve::ScanQuery& scan);

/// True when `answers` are the expected answers for `asns`, in order.
bool answers_match(const pl::serve::Snapshot& snapshot,
                   const std::vector<pl::asn::Asn>& asns,
                   const std::vector<pl::serve::AsnAnswer>& answers);

}  // namespace perfbench
