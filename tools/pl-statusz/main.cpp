// pl-statusz: render serving observability artifacts from files.
//
// The serving layer leaves two kinds of artifact behind: pl-obs JSON
// reports (trace + metrics + latency histograms, written via PL_TRACE or
// QueryService::report()) and pl-flight/1 flight-recorder dumps (written by
// DurableService on crash / quarantine / degradation, or by the pipeline
// via PL_FLIGHT). This tool is the human front-end: counters and gauges,
// latency percentiles (p50/p90/p99/p999) and the tail of the flight
// timeline — a plain-text /statusz for a process that is no longer running.
//
//   pl-statusz --obs report.json            # metrics + latency percentiles
//   pl-statusz --flight dump.plflight       # flight-recorder tail
//   pl-statusz --tail 16 --flight d.plflight
//   pl-statusz --selftest                   # exercise the formats in-process
//
// --selftest round-trips both formats (including damaged-file salvage) and
// exits non-zero on any mismatch; the verify matrix runs it in every build
// configuration, including -DPL_OBS_OFF, so the readers stay honest even
// when recording is compiled out.
#include <cstdio>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "obs/export.hpp"
#include "obs/flight.hpp"
#include "obs/latency.hpp"
#include "obs/metrics.hpp"

namespace {

std::optional<std::string> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) return std::nullopt;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return std::move(buffer).str();
}

void print_latency(const std::string& name,
                   const pl::obs::LatencyHistoSnapshot& latency) {
  std::cout << "latency " << name << "\n"
            << "  count=" << latency.count << " sum=" << latency.sum
            << " p50=" << latency.percentile(0.50)
            << " p90=" << latency.percentile(0.90)
            << " p99=" << latency.percentile(0.99)
            << " p999=" << latency.percentile(0.999) << "\n";
}

int render_obs(const std::string& path) {
  const std::optional<std::string> json = read_file(path);
  if (!json.has_value()) {
    std::cerr << "pl-statusz: cannot read " << path << "\n";
    return 1;
  }
  const std::optional<pl::obs::Report> report = pl::obs::from_json(*json);
  if (!report.has_value()) {
    std::cerr << "pl-statusz: " << path << " is not a pl-obs document\n";
    return 1;
  }
  std::cout << "== metrics (" << path << ") ==\n";
  for (const auto& [name, value] : report->metrics.counters)
    std::cout << "counter " << name << " = " << value << "\n";
  for (const auto& [name, value] : report->metrics.gauges)
    std::cout << "gauge " << name << " = " << value << "\n";
  for (const auto& [name, latency] : report->metrics.latencies)
    print_latency(name, latency);
  return 0;
}

int render_flight(const std::string& path, std::size_t tail) {
  const pl::obs::FlightRead read = pl::obs::read_flight(path);
  if (read.status == pl::obs::FlightIoStatus::kNotFound) {
    std::cerr << "pl-statusz: no flight dump at " << path << "\n";
    return 1;
  }
  if (read.status == pl::obs::FlightIoStatus::kIoError) {
    std::cerr << "pl-statusz: cannot read " << path << "\n";
    return 1;
  }
  std::cout << "== flight (" << path << ") ==\n"
            << pl::obs::render_flight_text(read, tail);
  // kDataLoss still rendered (salvaged prefix) but reported on the exit
  // code so scripts notice the damage.
  return read.ok() ? 0 : 1;
}

#define SELF_CHECK(cond)                                                   \
  do {                                                                     \
    if (!(cond)) {                                                         \
      std::cerr << "pl-statusz selftest failed at " << __FILE__ << ":"     \
                << __LINE__ << ": " #cond "\n";                            \
      return 1;                                                            \
    }                                                                      \
  } while (0)

/// In-process exercise of both file formats. Everything here uses the
/// mode-independent half of the obs API, so the selftest passes — and means
/// the same thing — under -DPL_OBS_OFF.
int selftest() {
  using namespace pl::obs;

  // Slot math: every sample lands in a slot whose bound is >= the sample
  // and within the documented 12.5% relative error.
  for (std::int64_t v : {std::int64_t{0}, std::int64_t{1}, std::int64_t{7},
                         std::int64_t{8}, std::int64_t{100},
                         std::int64_t{4096}, std::int64_t{123456789},
                         std::int64_t{1} << 40}) {
    const std::size_t slot = latency_slot(v);
    SELF_CHECK(slot < kLatencySlots);
    const std::int64_t bound = latency_slot_bound(slot);
    SELF_CHECK(bound >= v);
    SELF_CHECK(static_cast<double>(bound - v) <=
               0.125 * static_cast<double>(v) + 1.0);
  }

  // Percentile + merge on hand-built snapshots: exact integer semantics.
  LatencyHistoSnapshot a;
  a.slots = {static_cast<std::uint32_t>(latency_slot(100))};
  a.counts = {9};
  a.count = 9;
  a.sum = 900;
  LatencyHistoSnapshot b;
  b.slots = {static_cast<std::uint32_t>(latency_slot(1000000))};
  b.counts = {1};
  b.count = 1;
  b.sum = 1000000;
  a.merge(b);
  SELF_CHECK(a.count == 10);
  SELF_CHECK(a.sum == 1000900);
  SELF_CHECK(a.percentile(0.50) == latency_slot_bound(latency_slot(100)));
  SELF_CHECK(a.percentile(0.999) ==
             latency_slot_bound(latency_slot(1000000)));

  // pl-obs JSON round trip with a latency histogram attached.
  Report report;
  report.metrics.counters["pl_statusz_selftest"] = 1;
  report.metrics.latencies["pl_statusz_latency"] = a;
  const std::string json = to_json(report);
  const std::optional<Report> parsed = from_json(json);
  SELF_CHECK(parsed.has_value());
  SELF_CHECK(parsed->metrics.latencies == report.metrics.latencies);

  // pl-flight/1 round trip through a real file in the working directory.
  const std::string path = "pl-statusz-selftest.plflight";
  const std::vector<FlightEvent> events = {
      {derive_request_id(kQueryStream, 0, 0).value,
       static_cast<std::uint32_t>(EventKind::kLookup),
       query_detail(kCacheMiss, 3, 0, true), 42, 0},
      {0, static_cast<std::uint32_t>(EventKind::kCheckpoint), 0, 7, 1},
  };
  SELF_CHECK(write_flight_events(path, events, 2, 0) == FlightIoStatus::kOk);
  const FlightRead read = read_flight(path);
  SELF_CHECK(read.ok());
  SELF_CHECK(read.events == events);
  SELF_CHECK(render_flight_text(read).find("lookup") != std::string::npos);

  // Damage the file: truncate away the CRC trailer and the second event so
  // exactly one whole event remains. The reader must salvage that prefix
  // and report kDataLoss, never crash.
  const std::optional<std::string> bytes = read_file(path);
  SELF_CHECK(bytes.has_value());
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes->data(),
              static_cast<std::streamsize>(bytes->size() - 36));
  }
  const FlightRead damaged = read_flight(path);
  SELF_CHECK(damaged.status == FlightIoStatus::kDataLoss);
  SELF_CHECK(damaged.events.size() == 1);
  SELF_CHECK(damaged.events[0] == events[0]);
  std::remove(path.c_str());

  std::cout << "pl-statusz selftest: ok\n";
  return 0;
}

int usage() {
  std::cerr << "usage: pl-statusz [--obs report.json] "
               "[--flight dump.plflight] [--tail N] [--selftest]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string obs_path;
  std::string flight_path;
  std::size_t tail = 32;
  bool run_selftest = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--selftest") {
      run_selftest = true;
    } else if (arg == "--obs" && i + 1 < argc) {
      obs_path = argv[++i];
    } else if (arg == "--flight" && i + 1 < argc) {
      flight_path = argv[++i];
    } else if (arg == "--tail" && i + 1 < argc) {
      tail = static_cast<std::size_t>(std::stoul(argv[++i]));
    } else {
      return usage();
    }
  }
  if (run_selftest) return selftest();
  if (obs_path.empty() && flight_path.empty())
    return usage();

  int rc = 0;
  if (!obs_path.empty()) rc |= render_obs(obs_path);
  if (!flight_path.empty()) rc |= render_flight(flight_path, tail);
  return rc;
}
