// Dormant-ASN squatting detection (paper 6.1.2): flag operational lives
// that follow a long period of in-allocation dormancy and are short relative
// to their administrative life. The paper uses 1000 days of dormancy and a
// 5% relative duration, finding 3,051 candidate lives of which at least 76
// were confirmed malicious.
#pragma once

#include <vector>

#include "joint/taxonomy.hpp"

namespace pl::joint {

struct SquatDetectorConfig {
  /// Minimum inactivity (days) before the awakening, measured from the
  /// allocation start or the previous op life's end.
  std::int64_t dormancy_days = 1000;
  /// Maximum op-life duration as a fraction of the admin life's duration.
  double max_relative_duration = 0.05;

  friend bool operator==(const SquatDetectorConfig&,
                         const SquatDetectorConfig&) = default;
};

struct SquatCandidate {
  asn::Asn asn;
  std::size_t op_index;      ///< index into the op dataset
  std::size_t admin_index;   ///< containing admin life
  std::int64_t dormancy = 0; ///< days of inactivity before awakening
  double relative_duration = 0;
};

/// The 6.1.2 verdict for one op life inside a complete-overlap admin life:
/// `dormancy` days of inactivity before it, and its `op_days` short next
/// to the admin life's `admin_days`. Both detectors below and the serving
/// layer's day fold (which re-checks it as open lives grow) decide through
/// this one rule.
bool is_dormant_awakening(std::int64_t dormancy, std::int64_t op_days,
                          std::int64_t admin_days,
                          const SquatDetectorConfig& config) noexcept;

/// Run the detector over complete-overlap lives.
std::vector<SquatCandidate> detect_dormant_squats(
    const Taxonomy& taxonomy, const lifetimes::AdminDataset& admin,
    const lifetimes::OpDataset& op, const SquatDetectorConfig& config = {});

/// Post-deallocation squat surface (6.4): op lives entirely outside any
/// admin life, for ASNs that *were* allocated at some point. `min_gap`
/// filters to lives far from the previous activity (the paper's events are
/// thousands of days from the last BGP life).
std::vector<SquatCandidate> detect_outside_delegation_activity(
    const Taxonomy& taxonomy, const lifetimes::AdminDataset& admin,
    const lifetimes::OpDataset& op);

/// Per-op-life detector verdicts for one ASN, indices local to the ASN's
/// start-ordered life lists (matching joint::AsnClassification).
struct AsnSquatFlags {
  /// Op life flagged by the dormant-awakening detector (6.1.2).
  std::vector<bool> dormant;
  /// Op life is outside-delegation activity of an ever-allocated ASN (6.4).
  std::vector<bool> outside;

  friend bool operator==(const AsnSquatFlags&, const AsnSquatFlags&) = default;
};

/// Per-ASN mirror of the two detectors above, used by the serving layer to
/// stamp detector flags onto snapshot rows. For every ASN the set of
/// flagged op lives equals what the global detectors emit for that ASN (the
/// serve oracle test cross-checks the two implementations). Writes into
/// `out`, replacing its contents and reusing its buffers.
void flag_asn_squats(std::span<const lifetimes::AdminLifetime> admin,
                     std::span<const lifetimes::OpLifetime> op,
                     const AsnClassification& cls,
                     const SquatDetectorConfig& config, AsnSquatFlags& out);

}  // namespace pl::joint
