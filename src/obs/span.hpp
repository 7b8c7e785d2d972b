// Hierarchical trace spans for the Fig. 1 pipeline.
//
// A `Trace` owns a tree of timed nodes; an `obs::Span` is the RAII handle
// that opens a node, attaches integer notes (the per-stage ledger: records
// restored, class tallies, drop reasons), and closes the clock when it is
// finished or destroyed. The pipeline opens one root span per run, a child
// per Fig. 1 stage, and grandchildren for substages (per-registry
// restoration, sanitization-step counters, taxonomy tallies) — the tree the
// JSON exporter dumps and `pipeline::StageTimings` is derived from.
//
// Threading discipline: every Span operation locks the owning Trace, so
// spans may be handed to worker threads (the pipeline pre-creates one
// per-registry span serially, then lets each restore shard finish its own).
// Children must be created by the thread that owns the parent span at that
// moment; sibling spans are fully independent. Span *timings* are real wall
// clock and therefore never part of the determinism contract — only note
// and metric values are (see metrics.hpp).
//
// Under -DPL_OBS_OFF both types collapse to empty no-op shells and
// `Trace::tree()` returns an empty node.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#ifndef PL_OBS_OFF
#include <chrono>
#include <deque>
#include <mutex>
#endif

namespace pl::obs {

/// Value-type snapshot of one trace node; `Trace::tree()` returns the root.
struct TraceNode {
  std::string name;
  double start_ms = 0;    ///< offset from the trace epoch
  double elapsed_ms = 0;  ///< wall clock from open to finish
  /// Integer ledger attached via Span::note(), in insertion order.
  std::vector<std::pair<std::string, std::int64_t>> notes;
  std::vector<TraceNode> children;

  /// First direct child with `name`; nullptr when absent. The pointer is
  /// into this node, so calling it on a temporary (say, a `report()`
  /// returned by value) does not compile.
  const TraceNode* child(std::string_view child_name) const& noexcept {
    for (const TraceNode& node : children)
      if (node.name == child_name) return &node;
    return nullptr;
  }
  const TraceNode* child(std::string_view child_name) const&& = delete;

  /// Value of one note (0 when absent).
  std::int64_t note_value(std::string_view key) const noexcept {
    for (const auto& [note_key, value] : notes)
      if (note_key == key) return value;
    return 0;
  }
};

#ifndef PL_OBS_OFF

class Trace;

/// RAII handle on one open trace node. Move-only; the destructor finishes
/// the node. A default-constructed (or moved-from, or finished) Span is
/// inert: child() returns another inert span, note()/finish() are no-ops.
class Span {
 public:
  Span() = default;
  ~Span() { finish(); }

  Span(Span&& other) noexcept : trace_(other.trace_), index_(other.index_) {
    other.trace_ = nullptr;
  }
  Span& operator=(Span&& other) noexcept {
    if (this != &other) {
      finish();
      trace_ = other.trace_;
      index_ = other.index_;
      other.trace_ = nullptr;
    }
    return *this;
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Open a child node (its clock starts now).
  Span child(std::string name);

  /// Attach one integer to this node's ledger.
  void note(std::string key, std::int64_t value);

  /// Stop the clock. Idempotent; the span is inert afterwards.
  void finish();

 private:
  friend class Trace;
  Span(Trace* trace, std::size_t index) : trace_(trace), index_(index) {}

  Trace* trace_ = nullptr;
  std::size_t index_ = 0;
};

class Trace {
 public:
  // pl-lint: det-ok(the epoch stamp is the point of a trace)
  Trace() : epoch_(Clock::now()) {}
  Trace(const Trace&) = delete;
  Trace& operator=(const Trace&) = delete;

  /// Open the root span. Later calls open further top-level nodes, but
  /// `tree()` returns only the first — one run, one root.
  Span root(std::string name) {
    return Span(this, add_node(std::move(name), kNoParent));
  }

  /// Snapshot the tree (empty node when no root was opened). Nodes still
  /// running report elapsed-so-far.
  TraceNode tree() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (nodes_.empty()) return {};
    return snapshot_node(0);
  }

 private:
  friend class Span;
  using Clock = std::chrono::steady_clock;
  static constexpr std::size_t kNoParent = static_cast<std::size_t>(-1);

  struct Node {
    std::string name;
    Clock::time_point start;
    double elapsed_ms = -1;  ///< < 0 while running
    std::vector<std::pair<std::string, std::int64_t>> notes;
    std::vector<std::size_t> children;
  };

  // pl-lint: det-ok(span start stamps are observability metadata only)
  std::size_t add_node(std::string name, std::size_t parent) {
    const std::lock_guard<std::mutex> lock(mutex_);
    const std::size_t index = nodes_.size();
    Node& node = nodes_.emplace_back();
    node.name = std::move(name);
    node.start = Clock::now();
    if (parent != kNoParent) nodes_[parent].children.push_back(index);
    return index;
  }

  void add_note(std::size_t index, std::string key, std::int64_t value) {
    const std::lock_guard<std::mutex> lock(mutex_);
    nodes_[index].notes.emplace_back(std::move(key), value);
  }

  void close(std::size_t index) {
    const std::lock_guard<std::mutex> lock(mutex_);
    Node& node = nodes_[index];
    if (node.elapsed_ms < 0) node.elapsed_ms = ms_since(node.start);
  }

  // pl-lint: det-ok(elapsed-time readout feeds only the trace report)
  static double ms_since(Clock::time_point start) {
    return std::chrono::duration<double, std::milli>(Clock::now() - start)
        .count();
  }

  TraceNode snapshot_node(std::size_t index) const {  // mutex_ held
    const Node& node = nodes_[index];
    TraceNode out;
    out.name = node.name;
    out.start_ms =
        std::chrono::duration<double, std::milli>(node.start - epoch_)
            .count();
    out.elapsed_ms = node.elapsed_ms >= 0 ? node.elapsed_ms
                                          : ms_since(node.start);
    out.notes = node.notes;
    out.children.reserve(node.children.size());
    for (const std::size_t child : node.children)
      out.children.push_back(snapshot_node(child));
    return out;
  }

  Clock::time_point epoch_;
  mutable std::mutex mutex_;
  std::deque<Node> nodes_;  // arena: stable across growth
};

inline Span Span::child(std::string name) {
  if (trace_ == nullptr) return {};
  return Span(trace_, trace_->add_node(std::move(name), index_));
}

inline void Span::note(std::string key, std::int64_t value) {
  if (trace_ != nullptr) trace_->add_note(index_, std::move(key), value);
}

inline void Span::finish() {
  if (trace_ == nullptr) return;
  trace_->close(index_);
  trace_ = nullptr;
}

#else  // PL_OBS_OFF

class Span {
 public:
  Span child(std::string) noexcept { return {}; }
  void note(std::string, std::int64_t) noexcept {}
  void finish() noexcept {}
};

class Trace {
 public:
  Trace() = default;
  Trace(const Trace&) = delete;
  Trace& operator=(const Trace&) = delete;

  Span root(std::string) noexcept { return {}; }
  TraceNode tree() const { return {}; }
};

#endif  // PL_OBS_OFF

}  // namespace pl::obs
