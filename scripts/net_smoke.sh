#!/usr/bin/env bash
# End-to-end smoke of the socket serving layer: a scserved on a
# Unix-domain socket serving mixed concurrent clients (queries + adds via
# scnetcat), the graceful drain paths (shutdown verb, SIGTERM), and the
# durability story under a simulated kill -9 mid-batch — the crash is
# injected with the wal.append.mid failpoint (_exit(137) in place, the
# same SIGKILL stand-in the crash_recovery harness uses, so the cut
# lands deterministically inside a record). Warm recovery from the
# snapshot + torn WAL must be byte-identical to an oracle that replays
# the dumped WAL lines by hand.
#
# Usage: scripts/net_smoke.sh [build-dir]   (default: build)
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR=${1:-build}
SCSERVED="$BUILD_DIR/src/driver/scserved"
SCNETCAT="$BUILD_DIR/src/driver/scnetcat"
if [ ! -x "$SCSERVED" ] || [ ! -x "$SCNETCAT" ]; then
  cmake -B "$BUILD_DIR" -S .
  cmake --build "$BUILD_DIR" -j --target scserved scnetcat
fi

WORK=$(mktemp -d)
SRV=""
cleanup() {
  [ -n "$SRV" ] && kill -9 "$SRV" 2> /dev/null || true
  rm -rf "$WORK"
}
trap cleanup EXIT

fail() {
  echo "FAIL: $*" >&2
  exit 1
}

# Clients connect with scnetcat --retry-ms (jittered exponential backoff
# in net/Client.cpp) instead of polling the server's log for its
# listening line — no startup race, no fixed sleeps.
NC() { "$SCNETCAT" --retry-ms=10000 "$@"; }

# Base snapshot: the solved swap system (via stdin mode).
BASE="$WORK/base.snap"
"$SCSERVED" --config=if-online examples/data/swap.scs > "$WORK/base.out" << EOF
save $BASE
quit
EOF
grep -q "ok saved $BASE" "$WORK/base.out" || fail "could not create base snapshot"

#--- Mixed concurrent clients over a Unix socket --------------------------

SOCK="$WORK/poce.sock"
SNAP="$WORK/mixed.snap" WAL="$WORK/mixed.wal"
cp "$BASE" "$SNAP"
# --net-lanes=2 is the benchmark's command line: the flag is ignored
# (reads run on the event-loop thread) but must keep starting the server.
"$SCSERVED" --snapshot="$SNAP" --wal="$WAL" --unix="$SOCK" --net-lanes=2 \
  > "$WORK/mixed.srv.out" 2> "$WORK/mixed.srv.err" &
SRV=$!

# Two query clients and one writer client, concurrently. The writer's
# trailing query proves read-your-writes across the socket: its `ok
# added` ack precedes view publication, never follows it.
{ for _ in $(seq 25); do printf 'pts P\nalias P Q\nalias X Y\n'; done; } |
  NC --unix "$SOCK" > "$WORK/mixed.c1.out" &
C1=$!
{ for _ in $(seq 25); do printf 'pts P\nalias P Q\nalias X Y\n'; done; } |
  NC --unix "$SOCK" > "$WORK/mixed.c2.out" &
C2=$!
NC --unix "$SOCK" > "$WORK/mixed.w.out" << EOF
add var Z
add P <= Z
pts Z
EOF
wait "$C1" "$C2"

[ "$(grep -c '^ok { nx, ny }$' "$WORK/mixed.c1.out")" -eq 25 ] ||
  fail "mixed: query client 1 lost replies"
[ "$(grep -c '^ok true$' "$WORK/mixed.c2.out")" -eq 25 ] ||
  fail "mixed: query client 2 lost replies"
grep -q '^err' "$WORK/mixed.c1.out" "$WORK/mixed.c2.out" &&
  fail "mixed: a query client saw an error"
[ "$(grep -c '^ok added$' "$WORK/mixed.w.out")" -eq 2 ] ||
  fail "mixed: writer adds were not both acknowledged"
grep -q '^ok { nx, ny }$' "$WORK/mixed.w.out" ||
  fail "mixed: read-your-writes failed (pts Z after P <= Z)"

# Socket reads land in the same read meter as stdin reads: `counters`
# and `metrics` count the 151 queries above. The rows those reads came
# from were built into the views the writer published.
printf 'counters\nmetrics\nquit\n' | NC --unix "$SOCK" > "$WORK/mixed.m.out"
QUERIES=$(grep -o '^ok queries=[0-9]*' "$WORK/mixed.m.out" | cut -d= -f2)
[ "${QUERIES:-0}" -ge 151 ] ||
  fail "mixed: counters reports queries=${QUERIES:-none}, want >= 151"
ROWS=$(grep -o ' rows_built=[0-9]*' "$WORK/mixed.m.out" | cut -d= -f2)
[ "${ROWS:-0}" -gt 0 ] ||
  fail "mixed: counters reports rows_built=${ROWS:-none}, want > 0"
grep -q '^poce_query_requests_total' "$WORK/mixed.m.out" ||
  fail "mixed: metrics reply lacks the read counter"

# Graceful drain via the shutdown verb: exit 0, socket unlinked, and the
# acknowledged adds durable in the WAL.
printf 'shutdown\n' | NC --unix "$SOCK" > "$WORK/mixed.s.out"
grep -q '^ok shutting_down$' "$WORK/mixed.s.out" ||
  fail "mixed: shutdown verb not acknowledged"
wait "$SRV" && code=0 || code=$?
SRV=""
[ "$code" -eq 0 ] || fail "mixed: shutdown exit $code, want 0"
[ ! -e "$SOCK" ] || fail "mixed: drain left the socket file behind"
"$SCSERVED" --dump-wal="$WAL" > "$WORK/mixed.wal_lines"
grep -qxF "var Z" "$WORK/mixed.wal_lines" &&
  grep -qxF "P <= Z" "$WORK/mixed.wal_lines" ||
  fail "mixed: acknowledged adds missing from the WAL after drain"
echo "net_smoke: mixed clients OK"

#--- SIGTERM drain --------------------------------------------------------

"$SCSERVED" --snapshot="$SNAP" --unix="$SOCK" \
  > "$WORK/term.srv.out" 2> /dev/null &
SRV=$!
printf 'pts P\n' | NC --unix "$SOCK" > "$WORK/term.c.out"
grep -q '^ok { nx, ny }$' "$WORK/term.c.out" || fail "term: query failed"
kill -TERM "$SRV"
wait "$SRV" && code=0 || code=$?
SRV=""
[ "$code" -eq 0 ] || fail "term: SIGTERM exit $code, want 0"
[ ! -e "$SOCK" ] || fail "term: SIGTERM drain left the socket file behind"
echo "net_smoke: SIGTERM drain OK"

#--- kill -9 mid-batch, then warm recovery --------------------------------

CSNAP="$WORK/crash.snap" CWAL="$WORK/crash.wal"
cp "$BASE" "$CSNAP"
POCE_FAILPOINTS="wal.append.mid=crash@2" \
  "$SCSERVED" --snapshot="$CSNAP" --wal="$CWAL" --unix="$SOCK" \
  > "$WORK/crash.srv.out" 2> /dev/null &
SRV=$!
# The second add dies mid-record; the client loses its connection.
NC --unix "$SOCK" > "$WORK/crash.w.out" 2> /dev/null << EOF || true
add var Z
add P <= Z
EOF
wait "$SRV" && code=0 || code=$?
SRV=""
[ "$code" -eq 137 ] || fail "crash: expected exit 137, got $code"

# ack => durable: every add acknowledged over the socket is an intact
# WAL record (the torn second record was never acknowledged).
acked=$(grep -c '^ok added$' "$WORK/crash.w.out" || true)
"$SCSERVED" --dump-wal="$CWAL" \
  > "$WORK/crash.wal_lines" 2> "$WORK/crash.wal_err"
grep -q "torn" "$WORK/crash.wal_err" ||
  fail "crash: --dump-wal did not report the torn tail"
[ "$acked" -le "$(wc -l < "$WORK/crash.wal_lines")" ] ||
  fail "crash: more acks than durable WAL records"
[ "$acked" -lt 1 ] || grep -qxF "var Z" "$WORK/crash.wal_lines" ||
  fail "crash: acknowledged line 'var Z' lost from the WAL"

# Warm recovery must be byte-identical to an oracle fed the dumped lines.
"$SCSERVED" --snapshot="$CSNAP" --wal="$CWAL" > "$WORK/crash.rec.out" << EOF
save $WORK/crash.recovered.snap
quit
EOF
grep -q "ok saved" "$WORK/crash.rec.out" || fail "crash: recovery failed"
{
  while IFS= read -r line; do echo "add $line"; done < "$WORK/crash.wal_lines"
  echo "save $WORK/crash.oracle.snap"
  echo "quit"
} | "$SCSERVED" --snapshot="$CSNAP" > "$WORK/crash.oracle.out"
grep -q "ok saved" "$WORK/crash.oracle.out" || fail "crash: oracle failed"
cmp -s "$WORK/crash.recovered.snap" "$WORK/crash.oracle.snap" ||
  fail "crash: recovered state differs from the snapshot+WAL oracle"
echo "net_smoke: crash recovery OK (acked=$acked, byte-identical)"

echo "net_smoke: OK"
