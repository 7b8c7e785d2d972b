#include "bench/host.hpp"

#include <algorithm>
#include <numeric>

namespace perfbench {

namespace {

// The kernel mixes what the program spends its time on: dependent loads
// that miss the private caches (index and hash lookups) and a comparison
// sort (building sorted tables). It runs on the calling thread only: on a
// shared host, work spread over one thread per processor can slow several
// times more than any of the program's timings do (NOTES.md, Steadiness),
// and scaling by it would read them too fast. The buffers are allocated
// and touched once, so the program's heap state never reaches the kernel.
constexpr std::size_t kRingSlots = std::size_t{1} << 21;  // 8 MiB of uint32
constexpr std::size_t kPieces = 6;
constexpr std::size_t kChaseSteps = 25000;               // per piece
constexpr std::size_t kSortKeys = std::size_t{1} << 14;  // per piece

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

HostSpeed::HostSpeed() {
  std::uint64_t state = 0x5eed0f4057ULL;
  // Sattolo's shuffle: a single cycle through every slot.
  ring_.resize(kRingSlots);
  std::iota(ring_.begin(), ring_.end(), 0u);
  for (std::size_t i = kRingSlots - 1; i > 0; --i)
    std::swap(ring_[i], ring_[splitmix64(state) % i]);
  keys_.resize(kSortKeys);
  for (std::uint64_t& key : keys_) key = splitmix64(state);
  work_.resize(kSortKeys);
  checksum_ = pass();
}

std::uint64_t HostSpeed::pass() {
  std::uint64_t result = 0;
  for (std::size_t piece = 0; piece < kPieces; ++piece) {
    std::copy(keys_.begin(), keys_.end(), work_.begin());
    std::sort(work_.begin(), work_.end());
    auto at = static_cast<std::uint32_t>(piece);
    for (std::size_t step = 0; step < kChaseSteps; ++step) at = ring_[at];
    result = result * 31 + (work_[piece] ^ at);
  }
  return result;
}

void HostSpeed::sample() {
  const Clock::time_point start = Clock::now();
  const std::uint64_t result = pass();
  samples_.add(elapsed_ms(start));
  checksum_ = result;
}

double HostSpeed::slowdown() const {
  return samples_.empty() ? 1.0 : samples_.median() / kReferenceMs;
}

bool is_time_unit(std::string_view unit) {
  return unit == "s" || unit == "ms" || unit == "us" || unit == "ns";
}

bool is_rate_unit(std::string_view unit) { return unit == "1/s"; }

}  // namespace perfbench
