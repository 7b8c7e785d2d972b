// Tests for the serial exec shim the benchmark program still calls:
// parallel_for covers its range once, on the calling thread; an empty range
// calls nothing; and there are never any workers to report.
#include "exec/pool.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <vector>

namespace pl::exec {
namespace {

TEST(SerialShim, ParallelForCoversTheRangeOnceInline) {
  std::vector<int> hits(1000, 0);
  int calls = 0;
  parallel_for(
      hits.size(),
      [&](std::size_t begin, std::size_t end) {
        ++calls;
        for (std::size_t i = begin; i < end; ++i) ++hits[i];
      },
      /*grain=*/64);
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(hits, std::vector<int>(1000, 1));
}

TEST(SerialShim, EmptyRangeCallsNothing) {
  bool called = false;
  parallel_for(0, [&](std::size_t, std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(SerialShim, ThereAreNeverWorkers) {
  for (const int threads : {4, 1, 0, -1}) {
    set_global_threads(threads);
    EXPECT_EQ(current_threads(), 0) << "after set_global_threads(" << threads
                                    << ")";
  }
}

}  // namespace
}  // namespace pl::exec
