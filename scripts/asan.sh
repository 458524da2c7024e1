#!/usr/bin/env bash
# Builds the serve subsystem under AddressSanitizer and runs the
# snapshot, query-engine, read-view, WAL, and fault-injection tests plus
# the scserved end-to-end smoke and crash-recovery scripts.
#
# The snapshot loader and the WAL replayer consume untrusted bytes, so
# every bounds bug in them is memory-unsafe by definition; this script is
# the check that the byte-flip/truncation fuzzing in snapshot_test.cpp
# and the torn-tail/failpoint cases in fault_test.cpp really exercise
# clean failure paths. Uses a dedicated build directory so the
# instrumented build never mixes with the normal one.
#
# Usage: scripts/asan.sh [extra ctest args...]
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR=build-asan
cmake -B "$BUILD_DIR" -S . -DPOCE_SANITIZE=address
cmake --build "$BUILD_DIR" -j --target serve_tests core_tests scserved \
  scsolve scnetcat
(cd "$BUILD_DIR" && ctest --output-on-failure \
  -R '(Snapshot|QueryEngine|ReadView|ByteStream|Wal|FailPoint|Status|Expected|Budget|WarmRecovery|Metrics|Histogram|Percentile|Trace|Telemetry)' \
  "$@")
scripts/serve_smoke.sh "$BUILD_DIR"
# The socket layer parses untrusted network bytes (framing, size limits)
# — run its end-to-end smoke under ASan too.
scripts/net_smoke.sh "$BUILD_DIR"
# Replication ships raw snapshot bytes and WAL records over that same
# socket layer and replays them into a live engine — bootstrap, catch-up,
# kill -9 failover, and promote all under ASan.
scripts/repl_smoke.sh "$BUILD_DIR"
# Retraction rewrites live graph state in place (cone scrub + replay) and
# appends a new WAL record kind — its torn-record and replay paths are
# exactly the untrusted-byte surface this script exists for.
scripts/retract_smoke.sh "$BUILD_DIR"
scripts/crash_recovery.sh "$BUILD_DIR"
scripts/metrics_smoke.sh "$BUILD_DIR"
# The offline pass rewrites the constraint stream before the solver sees
# it — run its equivalence smoke under ASan so every index the
# substitution map hands back is bounds-checked in anger.
scripts/preprocess_smoke.sh "$BUILD_DIR"
