#!/usr/bin/env sh
# Tier-1 verification (see ROADMAP.md): configure, build, fail on any
# compiler warning the build printed, check that no test case is named by
# raw parameter bytes, run the full test suite,
# then the end-to-end serving harnesses (protocol smoke test, socket
# serving smoke, and crash-recovery/fault-injection) and the wave-closure
# and offline-preprocessing perf smoke tests. Extra arguments are passed
# to ctest.
set -eu

ROOT=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
BUILD="$ROOT/build"

cmake -B "$BUILD" -S "$ROOT"
# A GCC 12 build of the tree prints no warnings, so any compiler or
# linker `warning:` line in the build output is new (make's own warnings,
# such as clock skew, are not counted). Only recompiled files print
# theirs: a clean build directory checks every file.
BUILD_LOG="$BUILD/tier1-build.log"
BUILD_STATUS=0
cmake --build "$BUILD" -j >"$BUILD_LOG" 2>&1 || BUILD_STATUS=$?
cat "$BUILD_LOG"
if [ "$BUILD_STATUS" -ne 0 ]; then
  exit "$BUILD_STATUS"
fi
WARNINGS=$(grep 'warning:' "$BUILD_LOG" |
  grep -Ev '^g?make(\[[0-9]+\])?:' || true)
if [ -n "$WARNINGS" ]; then
  echo "tier1: the build printed compiler warnings:" >&2
  echo "$WARNINGS" >&2
  exit 1
fi
# gtest names a parameterized case by its parameter's raw bytes unless the
# parameter type has a PrintTo; those names (padding included) change with
# every field added, so every such case must have one.
if (cd "$BUILD" && ctest -N) | grep -q 'byte object'; then
  echo "tier1: cases named by raw parameter bytes (add a PrintTo):" >&2
  (cd "$BUILD" && ctest -N) | grep 'byte object' >&2
  exit 1
fi
(cd "$BUILD" && ctest --output-on-failure -j "$@")
"$ROOT/scripts/serve_smoke.sh" "$BUILD"
"$ROOT/scripts/net_smoke.sh" "$BUILD"
"$ROOT/scripts/repl_smoke.sh" "$BUILD"
"$ROOT/scripts/retract_smoke.sh" "$BUILD"
"$ROOT/scripts/crash_recovery.sh" "$BUILD"
"$ROOT/scripts/metrics_smoke.sh" "$BUILD"
"$ROOT/scripts/perf_smoke.sh" "$BUILD"
"$ROOT/scripts/preprocess_smoke.sh" "$BUILD"
