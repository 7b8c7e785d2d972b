// Shared harness for the reproduction benches: builds the full paper-scale
// pipeline once per binary and offers the printing conventions all benches
// share (paper reference value next to the measured one).
//
// Environment knobs:
//   PL_BENCH_SCALE  world scale (default 1.0 = paper scale)
//   PL_BENCH_SEED   world seed  (default 42)
#pragma once

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "joint/birdseye.hpp"
#include "obs/latency.hpp"
#include "joint/outside.hpp"
#include "joint/partial.hpp"
#include "joint/squat.hpp"
#include "joint/unused.hpp"
#include "joint/utilization.hpp"
#include "lifetimes/sensitivity.hpp"
#include "pipeline/pipeline.hpp"
#include "util/stats.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

namespace pl::bench {

/// The whole pipeline at paper scale, built once. A thin adapter over
/// `pipeline::run_simulated` — the five-stage wiring (seed offsets,
/// ERX/IANA hooks, BGP duplicate hint) lives only in pl_pipeline, so the
/// benches can never drift from what the tests and deployments run.
struct Pipeline {
  double scale = 1.0;
  std::uint64_t seed = 42;
  rirsim::GroundTruth truth;
  bgpsim::OpWorld op_world;
  restore::RestoredArchive restored;
  lifetimes::AdminDataset admin;
  lifetimes::OpDataset op;
  joint::Taxonomy taxonomy;

  static const Pipeline& instance() {
    static const Pipeline pipeline = build();
    return pipeline;
  }

  static Pipeline build() {
    Pipeline p;
    if (const char* env = std::getenv("PL_BENCH_SCALE"))
      p.scale = std::atof(env);
    if (const char* env = std::getenv("PL_BENCH_SEED"))
      p.seed = std::strtoull(env, nullptr, 10);

    std::cerr << "[bench] building world: scale=" << p.scale
              << " seed=" << p.seed << "\n";
    pipeline::Config config;
    config.seed = p.seed;
    config.scale = p.scale;
    pipeline::Result result = pipeline::run_simulated(config);
    p.truth = std::move(result.truth);
    p.op_world = std::move(result.op_world);
    p.restored = std::move(result.restored);
    p.admin = std::move(result.admin);
    p.op = std::move(result.op);
    p.taxonomy = std::move(result.taxonomy);
    std::cerr << "[bench] pipeline ready: "
              << util::with_commas(static_cast<std::int64_t>(
                     p.admin.lifetimes.size()))
              << " admin lives, "
              << util::with_commas(static_cast<std::int64_t>(
                     p.op.lifetimes.size()))
              << " op lives\n";
    return p;
  }
};

/// FNV-1a over the fields that define a pipeline run's output, so
/// "bit-identical" is one comparable number instead of a field-by-field
/// diff. At scale 1.0 / seed 42 it reads 0x27d029edaaa3d797, which
/// tests/bench_common_test.cpp pins.
inline std::uint64_t fingerprint(const pipeline::Result& result) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  const auto mix = [&hash](std::uint64_t value) {
    hash ^= value;
    hash *= 0x100000001b3ULL;
  };
  mix(result.admin.lifetimes.size());
  for (const lifetimes::AdminLifetime& life : result.admin.lifetimes) {
    mix(life.asn.value);
    mix(static_cast<std::uint64_t>(life.days.first));
    mix(static_cast<std::uint64_t>(life.days.last));
    mix(static_cast<std::uint64_t>(life.registration_date));
    mix(static_cast<std::uint64_t>(life.registry));
    mix(life.opaque_id);
    mix(life.open_ended ? 1 : 0);
    mix(life.transferred ? 1 : 0);
  }
  mix(result.op.lifetimes.size());
  for (const lifetimes::OpLifetime& life : result.op.lifetimes) {
    mix(life.asn.value);
    mix(static_cast<std::uint64_t>(life.days.first));
    mix(static_cast<std::uint64_t>(life.days.last));
  }
  for (const std::int64_t count : result.taxonomy.admin_counts)
    mix(static_cast<std::uint64_t>(count));
  for (const std::int64_t count : result.taxonomy.op_counts)
    mix(static_cast<std::uint64_t>(count));
  for (const std::int64_t link : result.taxonomy.op_to_admin)
    mix(static_cast<std::uint64_t>(link));
  mix(static_cast<std::uint64_t>(result.robustness.days_applied));
  mix(static_cast<std::uint64_t>(result.robustness.days_delivered));
  return hash;
}

inline std::string fmt_count(std::int64_t value) {
  return util::with_commas(value);
}

inline std::string fmt_pct(double fraction, int decimals = 1) {
  return util::percent(fraction, decimals);
}

/// Header every bench prints: which paper artifact it regenerates.
inline void print_banner(const std::string& artifact,
                         const std::string& description) {
  std::cout << "== " << artifact << " — " << description << " ==\n";
  std::cout << "(reproduction of 'The parallel lives of Autonomous Systems: "
               "ASN Allocations vs. BGP', IMC '21; synthetic world, shapes "
               "comparable, absolute numbers scale with PL_BENCH_SCALE)\n\n";
}

/// Minimal JSON emitter for the machine-readable bench artifacts
/// (BENCH_*.json). Tracks nesting and comma placement so callers never
/// hand-place separators; `pretty` adds two-space-indented newlines. Keys
/// and string values are escaped per RFC 8259 (the artifacts are re-parsed
/// by obs::from_json-style tooling and by the dashboards).
class JsonWriter {
 public:
  explicit JsonWriter(bool pretty = true) : pretty_(pretty) {}

  JsonWriter& begin_object() { return open('{'); }
  JsonWriter& end_object() { return close('}'); }
  JsonWriter& begin_array() { return open('['); }
  JsonWriter& end_array() { return close(']'); }

  JsonWriter& key(std::string_view name) {
    element();
    quote(name);
    out_ += ": ";
    after_key_ = true;
    return *this;
  }

  JsonWriter& value(std::string_view v) {
    element();
    quote(v);
    return *this;
  }
  JsonWriter& value(const char* v) { return value(std::string_view(v)); }
  JsonWriter& value(std::int64_t v) {
    element();
    out_ += std::to_string(v);
    return *this;
  }
  JsonWriter& value(int v) { return value(static_cast<std::int64_t>(v)); }
  JsonWriter& value(std::uint64_t v) {
    element();
    out_ += std::to_string(v);
    return *this;
  }
  JsonWriter& value(bool v) {
    element();
    out_ += v ? "true" : "false";
    return *this;
  }
  JsonWriter& value(double v, int decimals = 3) {
    element();
    char buffer[64];
    std::snprintf(buffer, sizeof(buffer), "%.*f", decimals, v);
    out_ += buffer;
    return *this;
  }

  /// The finished document (call after the outermost container closes).
  const std::string& str() const noexcept { return out_; }

 private:
  JsonWriter& open(char bracket) {
    element();
    out_ += bracket;
    first_.push_back(true);
    return *this;
  }

  JsonWriter& close(char bracket) {
    const bool was_empty = first_.back();
    first_.pop_back();
    if (pretty_ && !was_empty) {
      out_ += '\n';
      out_.append(2 * first_.size(), ' ');
    }
    out_ += bracket;
    return *this;
  }

  /// Comma/indent bookkeeping before every element (key, value, or nested
  /// container start). A value directly after `key()` attaches in place.
  void element() {
    if (after_key_) {
      after_key_ = false;
      return;
    }
    if (first_.empty()) return;
    if (!first_.back()) out_ += ',';
    first_.back() = false;
    if (pretty_) {
      out_ += '\n';
      out_.append(2 * first_.size(), ' ');
    }
  }

  void quote(std::string_view text) {
    out_ += '"';
    for (const char c : text) {
      switch (c) {
        case '"': out_ += "\\\""; break;
        case '\\': out_ += "\\\\"; break;
        case '\n': out_ += "\\n"; break;
        case '\t': out_ += "\\t"; break;
        case '\r': out_ += "\\r"; break;
        default:
          if (static_cast<unsigned char>(c) < 0x20) {
            char buffer[8];
            std::snprintf(buffer, sizeof(buffer), "\\u%04x", c);
            out_ += buffer;
          } else {
            out_ += c;
          }
      }
    }
    out_ += '"';
  }

  bool pretty_;
  bool after_key_ = false;
  std::string out_;
  std::vector<bool> first_;  ///< per open container: no elements yet
};

/// Down-sample a daily series to at most `points` + 1 values for
/// sparklines. The stride rounds up so long series cannot overshoot the
/// budget, and the final day is always included so the tail of the series
/// is never dropped.
inline std::vector<double> downsample(const std::vector<std::int32_t>& series,
                                      std::size_t points = 60) {
  std::vector<double> out;
  if (series.empty() || points == 0) return out;
  const std::size_t stride = (series.size() + points - 1) / points;
  for (std::size_t i = 0; i < series.size(); i += stride)
    out.push_back(series[i]);
  if ((series.size() - 1) % stride != 0) out.push_back(series.back());
  return out;
}

/// Shared percentile-summary block for BENCH_*.json artifacts: every bench
/// that reports a latency distribution emits the same shape (count, sum,
/// p50/p90/p99/p999 in the histogram's native unit), so trajectory tooling
/// can diff serve and pipeline runs with one parser. The quantiles are the
/// deterministic upper-bound reading of the log2 histogram (DESIGN.md §14.3),
/// never an interpolation. Under PL_OBS_OFF the snapshot is empty and every
/// field reads zero — the block stays present so the schema is stable.
inline void emit_latency_summary(JsonWriter& json,
                                 const obs::LatencyHistoSnapshot& latency) {
  json.begin_object();
  json.key("count").value(latency.count);
  json.key("sum").value(latency.sum);
  json.key("p50").value(latency.percentile(0.50));
  json.key("p90").value(latency.percentile(0.90));
  json.key("p99").value(latency.percentile(0.99));
  json.key("p999").value(latency.percentile(0.999));
  json.end_object();
}

}  // namespace pl::bench
