#!/usr/bin/env bash
# verify-matrix.sh — the repo's full verification matrix in one command.
#
# Nine legs, one line of output each, exit 0 iff every leg passes:
#
#   plain      tier-1 build (with -Werror) + full ctest suite
#   asan       PL_SANITIZE build (ASan+UBSan) + full suite (chaos suites
#              and the example smoke runs included)
#   tsan       PL_TSAN build + concurrency-labelled suites
#   obs-off    PL_OBS_OFF build + full suite (kill-switch stays buildable)
#   checked    PL_CHECKED build + full suite (contracts armed, death tests)
#   lint       pl-lint over src/ tests/ tools/ bench/ examples/ plus the
#              rule-fixture suite (ctest -L lint)
#   serve      serving-layer suites under contracts armed (ctest -L serve)
#   durability crash-injection + WAL/snapshot chaos under contracts armed
#              (ctest -L durability)
#   history    snapshot-history reconstruction + time-travel queries under
#              contracts armed (ctest -L history)
#
# Usage: scripts/verify-matrix.sh [jobs]
# Build trees live in build-matrix-<leg>/ so they never collide with the
# developer's own build/. Every leg's full log lands in
# build-matrix-<leg>/verify-<leg>.log for post-mortems.

set -u

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
JOBS="${1:-$(nproc 2>/dev/null || echo 2)}"
FAILED=0

run_leg() {
  local name="$1" cmake_flags="$2" ctest_args="$3" tree="${4:-$1}"
  local dir="$ROOT/build-matrix-$tree"
  local log="$dir/verify-$name.log"
  local started ended
  started=$(date +%s)
  mkdir -p "$dir"
  : > "$log"
  if cmake -B "$dir" -S "$ROOT" $cmake_flags >>"$log" 2>&1 &&
     cmake --build "$dir" -j "$JOBS" >>"$log" 2>&1 &&
     (cd "$dir" && ctest --output-on-failure -j "$JOBS" $ctest_args >>"$log" 2>&1); then
    ended=$(date +%s)
    printf 'PASS  %-8s (%ss)\n' "$name" "$((ended - started))"
  else
    ended=$(date +%s)
    printf 'FAIL  %-8s (%ss)  log: %s\n' "$name" "$((ended - started))" "$log"
    FAILED=1
  fi
}

# plain doubles as the warning gate: tier-1 flags plus -Werror.
run_leg plain   "-DPL_WERROR=ON"                 ""
run_leg asan    "-DPL_SANITIZE=ON"               ""
run_leg tsan    "-DPL_TSAN=ON"                   "-L concurrency"
run_leg obs-off "-DPL_OBS_OFF=ON"                ""
run_leg checked "-DPL_CHECKED=ON -DPL_WERROR=ON" ""
# lint reuses the plain tree: pl-lint is already built there, so this leg
# is pure analysis time.
run_leg lint    "-DPL_WERROR=ON"                 "-L lint" plain
# serve reuses the checked tree: the oracle fuzz + advance-vs-rebuild
# suites run with contracts armed, which is where snapshot indexing bugs
# would trip PL_ASSERT_SORTED and friends.
run_leg serve   "-DPL_CHECKED=ON -DPL_WERROR=ON" "-L serve" checked
# durability also reuses the checked tree: the crash matrix and the file
# corruptors run with contracts armed, so a recovery that rebuilds bad
# indexes dies loudly instead of comparing-unequal later.
run_leg durability "-DPL_CHECKED=ON -DPL_WERROR=ON" "-L durability" checked
# history reuses the checked tree too: the reconstruct/cut-vs-rebuild fuzz
# and the as_of oracle suites run with contracts armed, so a delta fold or
# a cut that leaves a snapshot index unsorted dies there, not at the compare.
run_leg history "-DPL_CHECKED=ON -DPL_WERROR=ON" "-L history" checked

if [ "$FAILED" -ne 0 ]; then
  echo "verify matrix: FAILED"
  exit 1
fi
echo "verify matrix: all legs passed"
