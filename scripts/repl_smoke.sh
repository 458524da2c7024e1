#!/usr/bin/env bash
# End-to-end smoke of WAL-shipping replication and failover: a primary
# scserved on a Unix socket, a follower bootstrapping from its snapshot
# (cold, over the `replicate` handshake), catch-up under live writes with
# checksum-verified convergence (`verify`), follower kill -9 + restart
# resuming the tail from its local WAL cursor, and finally primary
# kill -9 + `promote` — where the acid test is that the promoted
# follower's state checksum equals what an oracle recovers from the dead
# primary's own snapshot + WAL: zero acknowledged-but-lost lines across
# the failover.
#
# Usage: scripts/repl_smoke.sh [build-dir]   (default: build)
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
PRIM=""
FOL=""
cleanup() {
  [ -n "$PRIM" ] && kill -9 "$PRIM" 2> /dev/null || true
  [ -n "$FOL" ] && kill -9 "$FOL" 2> /dev/null || true
  rm -rf "$WORK"
}
trap cleanup EXIT

fail() {
  echo "FAIL: $*" >&2
  exit 1
}

PSOCK="$WORK/prim.sock" FSOCK="$WORK/fol.sock"
# Connect with backoff instead of racing startup with sleeps.
ncp() { "$SCNETCAT" --unix "$PSOCK" --retry-ms=10000; }
ncf() { "$SCNETCAT" --unix "$FSOCK" --retry-ms=10000; }

# Extracts the checksum=... token of a `verify` reply on stdin.
vsum() { grep -o 'checksum=[0-9a-f]*' || true; }

# Polls until primary and follower `verify` replies agree (checksum,
# base id, and record count all equal); echoes the shared checksum.
converge() {
  for _ in $(seq 400); do
    pv=$(printf 'verify\n' | ncp)
    fv=$(printf 'verify\n' | ncf)
    if [ -n "$pv" ] && [ "$pv" = "$fv" ]; then
      echo "$pv" | vsum
      return 0
    fi
    sleep 0.05
  done
  fail "primary and follower did not converge (primary: $pv follower: $fv)"
}

# Base snapshot: the solved swap system (via stdin mode).
BASE="$WORK/base.snap"
"$SCSERVED" --config=if-online examples/data/swap.scs > "$WORK/base.out" << EOF
save $BASE
quit
EOF
grep -q "ok saved $BASE" "$WORK/base.out" || fail "could not create base snapshot"

#--- Bootstrap and catch-up under live writes -----------------------------

PSNAP="$WORK/prim.snap" PWAL="$WORK/prim.wal"
FSNAP="$WORK/fol.snap" FWAL="$WORK/fol.wal"
cp "$BASE" "$PSNAP"
# checkpoint-every=5 makes the primary re-stamp its base mid-stream, so
# the follower's tail also exercises live `rebase` events.
"$SCSERVED" --snapshot="$PSNAP" --wal="$PWAL" --unix="$PSOCK" \
  --checkpoint-every=5 > "$WORK/prim.out" 2> "$WORK/prim.err" &
PRIM=$!

# The follower's snapshot does not exist: it must cold-bootstrap over the
# socket before serving.
"$SCSERVED" --snapshot="$FSNAP" --wal="$FWAL" --unix="$FSOCK" \
  --follow="$PSOCK" > "$WORK/fol.out" 2> "$WORK/fol.err" &
FOL=$!

printf 'pts P\n' | ncf > "$WORK/boot.q.out"
grep -q '^ok { nx, ny }$' "$WORK/boot.q.out" ||
  fail "bootstrap: follower does not serve the primary's base state"
grep -q 'replication: bootstrapped from the primary' "$WORK/fol.err" ||
  fail "bootstrap: follower did not report the snapshot bootstrap"
grep -q '^ok listening.*role=follower' "$WORK/fol.out" ||
  fail "bootstrap: follower did not announce its role"

# Writes on the follower are refused with a pointer at the primary.
printf 'add cons nope\n' | ncf > "$WORK/ro.out"
grep -q '^err read_only ' "$WORK/ro.out" ||
  fail "follower accepted a write (or refused it with the wrong code)"

# Live writes stream to the primary while a reader hammers the follower.
{
  while :; do printf 'pts P\n'; sleep 0.01; done |
    ncf > "$WORK/reader.out" 2> /dev/null || true
} &
READER=$!
# The writer starts only once the reader holds its first reply (scnetcat
# flushes each one), so at least one read predates every live write and
# must see the base state.
for _ in $(seq 200); do
  [ -s "$WORK/reader.out" ] && break
  sleep 0.05
done
[ -s "$WORK/reader.out" ] ||
  fail "catch-up: the follower reader got no first reply within 10 s"
{
  for k in $(seq 0 24); do
    printf 'add cons w%s\nadd w%s <= P\n' "$k" "$k"
  done
} | ncp > "$WORK/writer.out"
[ "$(grep -c '^ok added$' "$WORK/writer.out")" -eq 50 ] ||
  fail "catch-up: primary did not acknowledge all live writes"

SUM1=$(converge)
kill "$READER" 2> /dev/null || true
wait "$READER" 2> /dev/null || true
grep -q '^err' "$WORK/reader.out" &&
  fail "catch-up: a follower read errored during live writes"
grep -q '^ok { nx, ny }$' "$WORK/reader.out" ||
  fail "catch-up: the follower reader never got an answer"
printf 'pts P\n' | ncf | grep -q 'w24' ||
  fail "catch-up: follower is missing the last streamed add"
echo "repl_smoke: bootstrap + catch-up OK ($SUM1)"

#--- Follower kill -9, restart, tail resume -------------------------------

{ kill -9 "$FOL" && wait "$FOL"; } 2> /dev/null || true
FOL=""
# More writes land while the follower is down.
printf 'add cons down0\nadd down0 <= P\n' | ncp > "$WORK/down.w.out"
[ "$(grep -c '^ok added$' "$WORK/down.w.out")" -eq 2 ] ||
  fail "follower-restart: primary refused writes while the follower was down"

"$SCSERVED" --snapshot="$FSNAP" --wal="$FWAL" --unix="$FSOCK" \
  --follow="$PSOCK" > "$WORK/fol2.out" 2> "$WORK/fol2.err" &
FOL=$!
SUM2=$(converge)
# The restart recovered from its own snapshot + WAL and resumed the tail
# from its cursor — no snapshot re-ship.
grep -q 'replication: tailing from base=' "$WORK/fol2.err" ||
  fail "follower-restart: follower did not resume the tail from its cursor"
grep -q 'replication: bootstrapped' "$WORK/fol2.err" &&
  fail "follower-restart: follower re-bootstrapped instead of resuming"
printf 'pts P\n' | ncf | grep -q 'down0' ||
  fail "follower-restart: follower is missing the writes it slept through"
echo "repl_smoke: follower kill -9 + tail resume OK ($SUM2)"

#--- Primary kill -9, failover promotion ----------------------------------

# Converged first, so the surviving follower's checksum must equal what
# the dead primary's own disk pair recovers to.
SUM3=$(converge)
{ kill -9 "$PRIM" && wait "$PRIM"; } 2> /dev/null || true
PRIM=""

# The follower keeps serving reads through the outage...
printf 'pts P\n' | ncf | grep -q 'down0' ||
  fail "failover: follower stopped serving after the primary died"
# ...and promotion flips it writable with a re-stamped WAL lineage.
printf 'promote\n' | ncf > "$WORK/promote.out"
grep -q '^ok promoted base=' "$WORK/promote.out" ||
  fail "failover: promote was not acknowledged"
printf 'add cons post\nadd post <= P\npts P\n' | ncf > "$WORK/post.out"
[ "$(grep -c '^ok added$' "$WORK/post.out")" -eq 2 ] ||
  fail "failover: promoted follower refused writes"
grep -q 'post' "$WORK/post.out" ||
  fail "failover: promoted follower lost its own write"

# Zero acked-but-lost: an oracle recovering from the dead primary's
# snapshot + WAL must reach exactly the converged pre-failover state.
printf 'verify\nquit\n' | \
  "$SCSERVED" --snapshot="$PSNAP" --wal="$PWAL" > "$WORK/oracle.out"
OSUM=$(vsum < "$WORK/oracle.out")
[ -n "$OSUM" ] || fail "failover: oracle recovery produced no checksum"
[ "$OSUM" = "$SUM3" ] ||
  fail "failover: oracle state ($OSUM) differs from the converged follower ($SUM3) — an acknowledged line was lost"
echo "repl_smoke: primary kill -9 + promote OK ($SUM3, zero lost lines)"

# Graceful drain of the promoted server.
printf 'shutdown\n' | ncf > "$WORK/shutdown.out"
grep -q '^ok shutting_down$' "$WORK/shutdown.out" ||
  fail "shutdown: promoted follower did not acknowledge"
wait "$FOL" && code=0 || code=$?
FOL=""
[ "$code" -eq 0 ] || fail "shutdown: promoted follower exit $code, want 0"

echo "repl_smoke: OK"
