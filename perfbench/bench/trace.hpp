// In-memory span recorder for the traced run (`--trace 1`).
//
// Spans are recorded by the benchmark's own code around each call into a
// layer's public functions: name, start, end and the span that was open
// when it started (its parent). They stay in memory and are written out
// once, after the run. A span name is `<layer>.<what>`; the layer is the
// part before the first dot, and names without a dot belong to the
// benchmark itself. Single-threaded by design: only the benchmark's main
// thread opens spans.
#pragma once

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "bench/stats.hpp"

namespace perfbench {

class Tracer {
 public:
  struct Span {
    const char* name = "";
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::int32_t parent = -1;  ///< index into spans(), -1 for a root
  };

  /// RAII handle for one span; closes it on destruction. Inert when the
  /// tracer is disabled.
  class Scope {
   public:
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    ~Scope();

   private:
    friend class Tracer;
    Scope(Tracer* tracer, std::int32_t index) : tracer_(tracer), index_(index) {}
    Tracer* tracer_;
    std::int32_t index_;
  };

  explicit Tracer(bool enabled) : enabled_(enabled), epoch_(Clock::now()) {}

  bool enabled() const noexcept { return enabled_; }

  /// Open a span named `name` (a string literal: only the pointer is kept)
  /// as a child of the innermost open span.
  [[nodiscard]] Scope span(const char* name);

  const std::vector<Span>& spans() const noexcept { return spans_; }

  /// Durations (ms) of every closed span with this name, in order.
  Samples durations_ms(const std::string& name) const;

  /// Self time (ms) per layer: each span's duration minus the part of it
  /// its child spans cover, summed by the layer prefix of its name.
  std::map<std::string, double> self_ms_by_layer() const;

  /// Every span as one JSON object per line (name, start/end ns since the
  /// tracer was created, parent index).
  void write_jsonl(std::ostream& out) const;

 private:
  std::int64_t now_ns() const;

  bool enabled_;
  Clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<std::int32_t> open_;  ///< stack of open span indices
};

/// The layer a span name belongs to: the part before the first dot, or
/// "bench" when there is none.
std::string layer_of(const std::string& name);

}  // namespace perfbench
