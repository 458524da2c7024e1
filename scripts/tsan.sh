#!/usr/bin/env bash
# Builds the parallel and network tests under ThreadSanitizer and runs
# them.
#
# The parallel least-solution pass and the batch-solve API are designed to
# be TSan-clean (all cross-thread visibility goes through the pool's wave
# mutex), and so is the whole socket serving stack — event loop, writer
# lane, read-wave pool, and RCU view publishing, exercised end to end over
# loopback by net_tests; this script is the check. Published views share
# rows, names and term text with the views the writer builds after them;
# ReadViewTest.ReadersKeepAnOldViewWhileTheWriterPublishes (in net_tests)
# queries an old view from reader threads while the writer publishes. Uses a dedicated build
# directory so the instrumented build never mixes with the normal one.
#
# Usage: scripts/tsan.sh [extra ctest args...]
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR=build-tsan
cmake -B "$BUILD_DIR" -S . -DPOCE_SANITIZE=thread
cmake --build "$BUILD_DIR" -j --target parallel_tests core_tests net_tests
cd "$BUILD_DIR"
# HistogramTest.ConcurrentRecordsAllLand checks the registry's lock-free
# increments are TSan-clean alongside the pool's wave protocol; the Net
# suites drive concurrent socket clients against the epoll server.
ctest --output-on-failure \
  -R '(ThreadPool|Determinism|BatchSolve|Histogram|MetricsRegistry|Net|ReadView)' "$@"
