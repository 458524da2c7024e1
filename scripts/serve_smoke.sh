#!/usr/bin/env bash
# End-to-end smoke test of scserved: solve a corpus system, answer
# queries over the newline protocol, add constraints through the online
# closure, snapshot the warm graph, then restart from the snapshot and
# check both the old answers and the incremental additions survived.
#
# Usage: scripts/serve_smoke.sh [build-dir]   (default: build)
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
SNAP="$WORK/swap.snap"

check() { # check <transcript> <pattern>...
  local transcript=$1
  shift
  for pattern in "$@"; do
    if ! grep -qF -- "$pattern" "$transcript"; then
      echo "FAIL: expected '$pattern' in:" >&2
      cat "$transcript" >&2
      exit 1
    fi
  done
}

# Session 1: solve swap.scs, query, extend, snapshot.
"$SCSERVED" --config=if-online examples/data/swap.scs > "$WORK/s1.out" << EOF
pts P
pts Q
alias P Q
alias X Y
ls X
add var Z
add P <= Z
pts Z
save $SNAP
stats
counters
quit
EOF
check "$WORK/s1.out" \
  "ok ready config=IF-Online" \
  "ok { nx, ny }" \
  "ok true" \
  "ok false" \
  "ok added" \
  "ok saved $SNAP" \
  "cycles_collapsed=" \
  "budget_aborts=0" \
  "p99_us="
# The collapsed T/P/Q cycle makes both pointers see both locations.
[ "$(grep -c "ok { nx, ny }" "$WORK/s1.out")" -ge 2 ] || {
  echo "FAIL: expected pts P and pts Q to both be { nx, ny }" >&2
  exit 1
}

# Session 2: warm start from the snapshot; the added variable Z and its
# constraint must still be there, with the same answers. Also probe the
# structured error taxonomy: unknown verb, unknown variable, oversized
# request.
LONG_LINE=$(printf 'x%.0s' $(seq 1 300))
"$SCSERVED" --snapshot="$SNAP" --threads=8 --max-request=200 > "$WORK/s2.out" << EOF
pts P
pts Z
alias Z P
err-on-purpose
pts NoSuchVar
$LONG_LINE
quit
EOF
check "$WORK/s2.out" \
  "ok ready config=IF-Online vars=6" \
  "ok { nx, ny }" \
  "ok true" \
  "err invalid_argument unknown verb 'err-on-purpose'" \
  "err not_found unknown variable 'NoSuchVar'" \
  "err too_large request is 300 bytes"
# Z inherited P's whole solution through the added constraint.
[ "$(grep -c "ok { nx, ny }" "$WORK/s2.out")" -ge 2 ] || {
  echo "FAIL: expected pts Z == pts P == { nx, ny } after warm start" >&2
  exit 1
}

# A last request without its newline is still answered at EOF.
printf 'pts P' | "$SCSERVED" --config=if-online examples/data/swap.scs \
  > "$WORK/eof.out"
[ "$(tail -n 1 "$WORK/eof.out")" = "ok { nx, ny }" ] || {
  echo "FAIL: the unterminated last line got no reply:" >&2
  cat "$WORK/eof.out" >&2
  exit 1
}

# --net-lanes is ignored (socket reads run on the event-loop thread) but
# still parsed, so a negative count stays a usage error, refused at parse
# time.
code=0
"$SCSERVED" --net-lanes=-1 examples/data/swap.scs < /dev/null \
  > "$WORK/neg.out" 2>&1 || code=$?
[ "$code" -eq 1 ] || {
  echo "FAIL: --net-lanes=-1 exited $code, want 1" >&2
  exit 1
}
check "$WORK/neg.out" "--net-lanes must not be negative"

# A truncated snapshot must be rejected with an actionable message.
head -c 40 "$SNAP" > "$WORK/short.snap"
if "$SCSERVED" --snapshot="$WORK/short.snap" < /dev/null > "$WORK/s3.out" 2>&1; then
  echo "FAIL: truncated snapshot was accepted" >&2
  exit 1
fi
grep -q "truncated" "$WORK/s3.out" || {
  echo "FAIL: expected a truncation error, got:" >&2
  cat "$WORK/s3.out" >&2
  exit 1
}

echo "serve_smoke: OK"
