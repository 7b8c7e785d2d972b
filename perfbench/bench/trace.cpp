#include "bench/trace.hpp"

namespace perfbench {

Tracer::Scope::~Scope() {
  if (tracer_ == nullptr) return;
  tracer_->spans_[static_cast<std::size_t>(index_)].end_ns = tracer_->now_ns();
  tracer_->open_.pop_back();
}

Tracer::Scope Tracer::span(const char* name) {
  if (!enabled_) return Scope(nullptr, -1);
  const std::int32_t parent = open_.empty() ? -1 : open_.back();
  const auto index = static_cast<std::int32_t>(spans_.size());
  spans_.push_back(Span{name, now_ns(), 0, parent});
  open_.push_back(index);
  return Scope(this, index);
}

std::int64_t Tracer::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              epoch_)
      .count();
}

Samples Tracer::durations_ms(const std::string& name) const {
  Samples samples;
  for (const Span& span : spans_)
    if (name == span.name)
      samples.add(static_cast<double>(span.end_ns - span.start_ns) / 1e6);
  return samples;
}

std::map<std::string, double> Tracer::self_ms_by_layer() const {
  std::vector<std::int64_t> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i)
    self[i] = spans_[i].end_ns - spans_[i].start_ns;
  // Children run strictly inside their parent on one thread, so the part
  // of the parent they cover is exactly the sum of their durations.
  for (const Span& span : spans_)
    if (span.parent >= 0)
      self[static_cast<std::size_t>(span.parent)] -= span.end_ns - span.start_ns;
  std::map<std::string, double> by_layer;
  for (std::size_t i = 0; i < spans_.size(); ++i)
    by_layer[layer_of(spans_[i].name)] += static_cast<double>(self[i]) / 1e6;
  return by_layer;
}

void Tracer::write_jsonl(std::ostream& out) const {
  for (const Span& span : spans_)
    out << "{\"name\":\"" << span.name << "\",\"start_ns\":" << span.start_ns
        << ",\"end_ns\":" << span.end_ns << ",\"parent\":" << span.parent
        << "}\n";
}

std::string layer_of(const std::string& name) {
  const std::size_t dot = name.find('.');
  return dot == std::string::npos ? "bench" : name.substr(0, dot);
}

}  // namespace perfbench
