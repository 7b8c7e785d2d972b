// The query mix: read-only traffic over the live snapshot, with no advances
// and no history attached. Each round is a burst of Zipf-skewed point
// lookups (a hot set that fits the answer cache, plus ASNs the snapshot
// does not know yet for the not-found path), one batch and one alive-batch
// query, one registry or country scan and one census.
//
// Rounds are spread over the whole run — a slice after every day fold,
// recovery and as_of query — so the mix samples the same stretch of time
// as everything else instead of one short window of it.
#pragma once

#include "bench/deploy.hpp"
#include "bench/run.hpp"

namespace perfbench {

class QueryMix {
 public:
  /// Generates the run's query inputs (seeded) against the live snapshot.
  QueryMix(Run& run, Deployment& deployment);

  /// Run whole rounds for about `ms` milliseconds (at least one).
  void run_for(double ms);

  /// Top up to `run.sizes.lookup_seconds` in total, ending on a whole
  /// cycle of the scan mix, then report batch_qps and scan_ms_p50 — plus
  /// lookup_us_p50/_us_tail when `report_lookups` — or, traced, the
  /// serve.batch/alive/scan/census metrics — plus serve.lookup_ns and the
  /// cache metrics when `report_lookups`.
  void finish(bool report_lookups);

 private:
  struct Round {
    std::vector<pl::asn::Asn> points;
    std::vector<pl::asn::Asn> batch;
    std::vector<pl::asn::Asn> alive;
    pl::util::Day day = 0;  ///< alive-batch and census day
  };

  void round();

  Run& run_;
  pl::serve::QueryService& service_;
  std::vector<Round> pool_;
  std::vector<pl::serve::ScanQuery> scans_;
  std::size_t rounds_ = 0;
  double busy_ms_ = 0;  ///< time spent in rounds so far

  Samples point_us_;
  Samples batch_qps_;  ///< per round: batch + alive-batch ASNs / their time
  Samples scan_ms_;
  Samples census_us_;
  double point_ms_ = 0;
  double batch_ms_ = 0;
  double alive_ms_ = 0;
  std::size_t points_ = 0;
  std::size_t batch_asns_ = 0;
  std::size_t alive_asns_ = 0;
};

}  // namespace perfbench
