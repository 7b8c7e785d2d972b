// Compile-time probe for StatusOr's rvalue accessors (util/status.hpp).
//
// Built twice. The plain build is an ordinary test: reading through a
// temporary StatusOr yields the value itself, moved out, so a range-for over
// a member of `*make()` or `make().value()` is safe. With
// PL_PROBE_DANGLING defined the file also uses `make()->rows` in a range-for
// — the pattern that read a destroyed temporary under C++20 lifetime rules —
// and must fail to compile; ctest builds that variant and expects failure.
#include <cstdlib>
#include <string>
#include <vector>

#include "util/status.hpp"

namespace {

struct Answer {
  std::vector<std::string> rows;
};

pl::StatusOr<Answer> make() { return Answer{{"a", "bb", "ccc"}}; }

}  // namespace

int main() {
  std::size_t total = 0;
  for (const std::string& row : (*make()).rows) total += row.size();
  for (const std::string& row : make().value().rows) total += row.size();
#ifdef PL_PROBE_DANGLING
  for (const std::string& row : make()->rows) total += row.size();
#endif
  return total == 12 ? EXIT_SUCCESS : EXIT_FAILURE;
}
