// Executable contracts for the pipeline's sanitization invariants.
//
// The paper's restoration guarantees (§3.1 steps i–vi) and the lifetime
// algebra (§4.1 gap-free transfer merging) rest on structural invariants —
// spans sorted by start day, interval runs disjoint and non-adjacent,
// taxonomy tallies conserving the input counts. By default these macros
// compile to no-op shells (the condition is never evaluated, so hot paths
// cost nothing); building with -DPL_CHECKED=ON (CMake option PL_CHECKED)
// arms them: a violated contract prints
//
//   file:line: contract PL_EXPECT(expr) violated: message
//
// to stderr and aborts, which the checked leg of scripts/verify-matrix.sh
// turns into a test failure. tests/check_contracts_test.cpp locks in both
// halves: no-op (and non-evaluating) when disarmed, fatal when armed.
//
//   PL_EXPECT(cond, msg)          precondition
//   PL_ENSURE(cond, msg)          postcondition
//   PL_ASSERT_SORTED(range, less, what)
//                                 adjacent elements satisfy !less(b, a)
//   PL_ASSERT_DISJOINT(range, what)
//                                 DayInterval-like runs: each non-empty,
//                                 sorted, pairwise disjoint, separated by
//                                 at least one uncovered day
#pragma once

#if defined(PL_CHECKED) && PL_CHECKED

#include <cstdio>
#include <cstdlib>
#include <iterator>

namespace pl::check {

[[noreturn]] inline void fail(const char* kind, const char* expr,
                              const char* message, const char* file,
                              int line) {
  std::fprintf(stderr, "%s:%d: contract %s(%s) violated: %s\n", file, line,
               kind, expr, message);
  std::fflush(stderr);
  std::abort();
}

template <typename Range, typename Less>
// pl-lint: allow(dead-public-api) reached only through PL_ASSERT_SORTED
// macro expansion, which the token-level reference scan cannot see; the
// interval_set, snapshot, and lifetimes TUs all expand it
void assert_sorted(const Range& range, Less less, const char* what,
                   const char* file, int line) {
  auto it = std::begin(range);
  const auto end = std::end(range);
  if (it == end) return;
  auto prev = it;
  for (++it; it != end; ++it, ++prev)
    if (less(*it, *prev))
      fail("PL_ASSERT_SORTED", what, "range is not sorted", file, line);
}

template <typename Runs>
// pl-lint: allow(dead-public-api) reached only through PL_ASSERT_DISJOINT
// macro expansion, which the token-level reference scan cannot see; the
// interval_set and lifetimes TUs expand it
void assert_disjoint(const Runs& runs, const char* what, const char* file,
                     int line) {
  auto it = std::begin(runs);
  const auto end = std::end(runs);
  if (it == end) return;
  if (it->last < it->first)
    fail("PL_ASSERT_DISJOINT", what, "empty run in interval set", file, line);
  auto prev = it;
  for (++it; it != end; ++it, ++prev) {
    if (it->last < it->first)
      fail("PL_ASSERT_DISJOINT", what, "empty run in interval set", file,
           line);
    // Non-adjacent: at least one uncovered day between consecutive runs.
    if (it->first <= prev->last + 1)
      fail("PL_ASSERT_DISJOINT", what,
           "runs overlap or touch (must be disjoint with a gap >= 1 day)",
           file, line);
  }
}

}  // namespace pl::check

#define PL_EXPECT(cond, msg)                                               \
  do {                                                                     \
    if (!(cond))                                                           \
      ::pl::check::fail("PL_EXPECT", #cond, (msg), __FILE__, __LINE__);    \
  } while (false)

#define PL_ENSURE(cond, msg)                                               \
  do {                                                                     \
    if (!(cond))                                                           \
      ::pl::check::fail("PL_ENSURE", #cond, (msg), __FILE__, __LINE__);    \
  } while (false)

#define PL_ASSERT_SORTED(range, less, what)                                \
  ::pl::check::assert_sorted((range), (less), (what), __FILE__, __LINE__)

#define PL_ASSERT_DISJOINT(range, what)                                    \
  ::pl::check::assert_disjoint((range), (what), __FILE__, __LINE__)

#else  // contracts disarmed: never evaluated, dead-stripped, but still
       // compiled — so a contract cannot silently rot out of date.

#define PL_EXPECT(cond, msg)   \
  do {                         \
    if (false) {               \
      (void)(cond);            \
      (void)(msg);             \
    }                          \
  } while (false)

#define PL_ENSURE(cond, msg)   \
  do {                         \
    if (false) {               \
      (void)(cond);            \
      (void)(msg);             \
    }                          \
  } while (false)

#define PL_ASSERT_SORTED(range, less, what) \
  do {                                      \
    if (false) {                            \
      (void)(range);                        \
      (void)(less);                         \
      (void)(what);                         \
    }                                       \
  } while (false)

#define PL_ASSERT_DISJOINT(range, what) \
  do {                                  \
    if (false) {                        \
      (void)(range);                    \
      (void)(what);                     \
    }                                   \
  } while (false)

#endif  // PL_CHECKED
