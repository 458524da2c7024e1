#!/usr/bin/env bash
# End-to-end smoke test of the observability layer: start scserved with
# --metrics-out and POCE_TRACE armed, exercise queries/adds/checkpoints,
# then check (1) the `metrics` verb emits Prometheus series for every
# layer (solver, cache, WAL, latency histogram) framed by "# EOF",
# (2) the JSON metrics dump landed and parses structurally, and (3) the
# Chrome trace file holds the expected spans.
#
# Usage: scripts/metrics_smoke.sh [build-dir]   (default: build)
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR=${1:-build}
SCSERVED="$BUILD_DIR/src/driver/scserved"
if [ ! -x "$SCSERVED" ]; then
  cmake -B "$BUILD_DIR" -S .
  cmake --build "$BUILD_DIR" -j --target scserved
fi

WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT
SNAP="$WORK/metrics.snap"
WAL="$WORK/metrics.wal"
DUMP="$WORK/metrics.json"
TRACE="$WORK/trace.json"

check() { # check <file> <pattern>...
  local file=$1
  shift
  for pattern in "$@"; do
    if ! grep -qF -- "$pattern" "$file"; then
      echo "FAIL: expected '$pattern' in $file:" >&2
      cat "$file" >&2
      exit 1
    fi
  done
}

# Solve, query, add through the WAL, checkpoint, and scrape. The metrics
# dump fires every 2 requests and once more at exit.
"$SCSERVED" --config=if-online --wal="$WAL" \
  --metrics-out="$DUMP" --metrics-every=2 \
  examples/data/swap.scs > "$WORK/s1.out" 2> "$WORK/s1.err" << EOF
pts P
pts Q
alias P Q
add var M1
add P <= M1
save $SNAP
checkpoint $SNAP
metrics
quit
EOF

# (1) Prometheus exposition from the `metrics` verb.
check "$WORK/s1.out" \
  "ok metrics" \
  "# TYPE poce_solver_work gauge" \
  "poce_solver_cycles_collapsed" \
  "# TYPE poce_query_latency_us histogram" \
  "poce_query_latency_us_bucket{le=\"+Inf\"}" \
  "poce_query_latency_us_count" \
  "poce_query_requests_total" \
  "poce_query_cache_misses_total" \
  "# TYPE poce_wal_append_us histogram" \
  "poce_wal_append_us_count" \
  "poce_checkpoint_us_count" \
  "poce_snapshot_serialize_us_count" \
  "# EOF"

# The latency histogram must have counted the three queries, and the
# read counter beside it the same reads (one meter, both series).
LAT_COUNT=$(grep "^poce_query_latency_us_count" "$WORK/s1.out" | awk '{print $2}')
[ "$LAT_COUNT" -ge 3 ] || {
  echo "FAIL: expected >=3 latency samples, got '$LAT_COUNT'" >&2
  exit 1
}
READS=$(grep "^poce_query_requests_total" "$WORK/s1.out" | awk '{print $2}')
[ "$READS" = "$LAT_COUNT" ] || {
  echo "FAIL: read counter '$READS' != latency samples '$LAT_COUNT'" >&2
  exit 1
}

# (2) The JSON dump landed with all three sections.
[ -s "$DUMP" ] || { echo "FAIL: --metrics-out dump missing" >&2; exit 1; }
check "$DUMP" '"counters"' '"gauges"' '"histograms"' \
  '"poce_query_latency_us"' '"p50"' '"p99"'

# (3) POCE_TRACE produces Chrome trace-event JSON with serve spans.
POCE_TRACE="$TRACE" "$SCSERVED" --snapshot="$SNAP" > "$WORK/s2.out" << EOF
pts P
pts M1
quit
EOF
[ -s "$TRACE" ] || { echo "FAIL: POCE_TRACE wrote nothing" >&2; exit 1; }
check "$TRACE" '"traceEvents"' '"serve.query"' '"snapshot.load"' '"ph": "X"'

echo "metrics_smoke: OK"
