#include "bench/stats.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace perfbench {

std::size_t rank_index(std::size_t n, double p) {
  if (n == 0) return 0;
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(n)));
  return std::clamp<std::size_t>(rank, 1, n) - 1;
}

std::size_t samples_beyond(std::size_t n, double p) {
  return n == 0 ? 0 : n - rank_index(n, p) - 1;
}

std::optional<double> tail_percentile(std::size_t n) {
  for (const double p : kTailLadder)
    if (samples_beyond(n, p) >= kTailMinBeyond) return p;
  return std::nullopt;
}

double Samples::sum() const {
  return std::accumulate(values_.begin(), values_.end(), 0.0);
}

double Samples::mean() const {
  return values_.empty() ? 0.0 : sum() / static_cast<double>(values_.size());
}

double Samples::median() const {
  if (values_.empty()) return 0.0;
  std::vector<double> sorted = values_;
  const std::size_t mid = sorted.size() / 2;
  std::nth_element(sorted.begin(), sorted.begin() + mid, sorted.end());
  const double upper = sorted[mid];
  if (sorted.size() % 2 == 1) return upper;
  const double lower = *std::max_element(sorted.begin(), sorted.begin() + mid);
  return (lower + upper) / 2.0;
}

double Samples::percentile(double p) const {
  if (values_.empty()) return 0.0;
  std::vector<double> sorted = values_;
  const std::size_t index = rank_index(sorted.size(), p);
  std::nth_element(sorted.begin(), sorted.begin() + index, sorted.end());
  return sorted[index];
}

std::optional<Samples::Tail> Samples::tail() const {
  const std::optional<double> p = tail_percentile(values_.size());
  if (!p) return std::nullopt;
  return Tail{*p, percentile(*p), samples_beyond(values_.size(), *p)};
}

}  // namespace perfbench
