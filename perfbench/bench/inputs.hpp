// Seeded input generation. Every input the benchmark feeds the program —
// the world seed, the Zipf rank order, the burst keys, the scan filters and
// the as_of day sequence — derives from the run's `--seed` through
// `derive_seed`, so the same seed always yields the same inputs, and
// `InputHash` fingerprints what was generated so two runs can be shown to
// have used the same inputs.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "asn/asn.hpp"
#include "asn/country.hpp"
#include "asn/rir.hpp"
#include "lifetimes/admin.hpp"
#include "lifetimes/op.hpp"
#include "serve/query.hpp"
#include "serve/snapshot.hpp"
#include "util/rng.hpp"

namespace perfbench {

/// Seed of one named input stream: FNV-1a of the stream name folded into
/// the run seed through splitmix64. Streams are independent of each other.
std::uint64_t derive_seed(std::uint64_t run_seed, std::string_view stream);

/// The simulated world's seed. The identity, so `--seed 42` reproduces the
/// repository's reference world (pipeline fingerprint 0x27d029edaaa3d797).
inline std::uint64_t world_seed(std::uint64_t run_seed) { return run_seed; }

/// FNV-1a over everything generated, in generation order.
class InputHash {
 public:
  void mix(std::uint64_t value) {
    hash_ ^= value;
    hash_ *= 0x100000001b3ULL;
  }
  void mix(const pl::serve::DayDelta& delta);
  void mix(const std::vector<pl::asn::Asn>& asns);
  void mix(const pl::serve::ScanQuery& scan);
  std::uint64_t value() const noexcept { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

/// Keys a query stream draws from, in ascending order: every ASN the
/// served snapshot knows, plus every ASN the world's lifetimes know that
/// the snapshot does not. Those were first delegated or first seen in BGP
/// after the snapshot's day; asking for them is what a user does who saw an
/// ASN in today's routing or delegation files, and it runs the not-found
/// path. The world fixes the share of such keys; no parameter does.
std::vector<pl::asn::Asn> key_universe(const pl::serve::Snapshot& snapshot,
                                       const pl::lifetimes::AdminDataset& admin,
                                       const pl::lifetimes::OpDataset& op);

/// Zipf(s) sampler over a seeded rank order of a key universe: rank r is
/// drawn with probability proportional to 1 / r^s.
class ZipfKeys {
 public:
  ZipfKeys(std::vector<pl::asn::Asn> universe, double s, pl::util::Rng& rng);
  pl::asn::Asn next(pl::util::Rng& rng) const;
  std::vector<pl::asn::Asn> draw(std::size_t count, pl::util::Rng& rng) const;
  const std::vector<pl::asn::Asn>& ranked() const noexcept { return ranked_; }

 private:
  std::vector<pl::asn::Asn> ranked_;  ///< rank order (seeded permutation)
  std::vector<double> cdf_;
};

/// `count` keys drawn uniformly (with replacement) from `universe`.
std::vector<pl::asn::Asn> uniform_keys(
    const std::vector<pl::asn::Asn>& universe, std::size_t count,
    pl::util::Rng& rng);

/// Scan filters: one per registry and one per each of the snapshot's
/// `countries` largest countries, in seeded order. The set of filters is a
/// function of the world alone, so the median scan size is the same in
/// every run.
std::vector<pl::serve::ScanQuery> scan_mix(const pl::serve::Snapshot& snapshot,
                                           std::size_t countries,
                                           pl::util::Rng& rng);

/// Recorded days for as_of queries over a history whose keyframes sit at
/// `base_day + k * interval`. Stratified: `count` keyframe distances spread
/// evenly over 1 .. interval-1, each placed in a seeded keyframe window that
/// keeps the day in [base_day, last_day], returned newest first so no query
/// can reuse the previous one's reconstruction. Every run thus pays the same
/// spread of delta folds.
std::vector<pl::util::Day> as_of_days(pl::util::Day base_day,
                                      pl::util::Day last_day, int interval,
                                      std::size_t count, pl::util::Rng& rng);

}  // namespace perfbench
