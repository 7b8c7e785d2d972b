// Serial bodies for the three calls the benchmark program (perfbench/)
// makes, so it builds and reports unchanged. Nothing in src/ calls them:
// every stage of the library is a plain loop on the calling thread. The
// next change to perfbench drops its calls, and this layer with them.
#pragma once

#include <cstddef>
#include <functional>

namespace pl::exec {

/// Runs `body(0, count)` on the calling thread; nothing when `count` is 0.
/// `grain` is ignored.
void parallel_for(std::size_t count,
                  const std::function<void(std::size_t, std::size_t)>& body,
                  std::size_t grain = 1);

/// Does nothing: there are no workers to set.
void set_global_threads(int threads);

/// Always 0: every call runs inline.
int current_threads();

}  // namespace pl::exec
