#include "exec/pool.hpp"

namespace pl::exec {

void parallel_for(std::size_t count,
                  const std::function<void(std::size_t, std::size_t)>& body,
                  std::size_t /*grain*/) {
  if (count != 0) body(0, count);
}

void set_global_threads(int /*threads*/) {}

int current_threads() { return 0; }

}  // namespace pl::exec
