#!/usr/bin/env bash
# Crash-recovery harness: kills scserved at the exact injection sites of
# the durability pipeline (failpoints in crash mode _exit(137) in place,
# simulating SIGKILL) and proves warm recovery for each torn state:
#
#   1. ack => durable: every `add` the crashed server acknowledged is an
#      intact record of the WAL (read back with --dump-wal).
#   2. durable => replayed: a recovered server (snapshot + WAL replay)
#      saves a snapshot bit-identical to an oracle server that loads the
#      same snapshot and is fed the WAL's lines by hand.
#
# Also checks the resource budgets: a breached add or retraction answers
# `err budget_exceeded`, leaves no partial state behind, and the server
# keeps serving; an injected snapshot-save fault fails the request, not
# the process.
#
# Usage: scripts/crash_recovery.sh [build-dir]   (default: build)
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

fail() {
  echo "FAIL: $*" >&2
  exit 1
}

# Base snapshot: the solved swap system.
BASE="$WORK/base.snap"
"$SCSERVED" --config=if-online examples/data/swap.scs > "$WORK/base.out" << EOF
save $BASE
quit
EOF
grep -q "ok saved $BASE" "$WORK/base.out" || fail "could not create base snapshot"

# crash_scenario NAME FAILPOINTS REQUEST...
# Runs a server on a private copy of the base snapshot plus a fresh WAL,
# with FAILPOINTS armed, feeding it REQUESTs until the armed crash kills
# it; then runs the two recovery assertions above.
crash_scenario() {
  local name=$1 failpoints=$2
  shift 2
  local snap="$WORK/$name.snap" wal="$WORK/$name.wal"
  cp "$BASE" "$snap"
  printf '%s\n' "$@" > "$WORK/$name.req"

  set +e
  POCE_FAILPOINTS="$failpoints" "$SCSERVED" --snapshot="$snap" --wal="$wal" \
    < "$WORK/$name.req" > "$WORK/$name.out" 2> "$WORK/$name.err"
  local code=$?
  set -e
  [ "$code" -eq 137 ] || fail "$name: expected crash exit 137, got $code"

  # ack => durable: acks are issued in request order, so the first K add
  # lines (K = acks seen before the crash) must all be intact records.
  local acked
  acked=$(grep -c '^ok added$' "$WORK/$name.out" || true)
  "$SCSERVED" --dump-wal="$wal" \
    > "$WORK/$name.wal_lines" 2> "$WORK/$name.wal_err"
  local i=0 req line
  for req in "$@"; do
    case "$req" in
    "add "*) ;;
    *) continue ;;
    esac
    i=$((i + 1))
    if [ "$i" -gt "$acked" ]; then
      break
    fi
    line=${req#add }
    grep -qxF -- "$line" "$WORK/$name.wal_lines" ||
      fail "$name: acknowledged line '$line' lost from the WAL"
  done

  # durable => replayed: warm recovery must reconstruct exactly the state
  # an oracle reaches by feeding the WAL's lines to the bare snapshot.
  "$SCSERVED" --snapshot="$snap" --wal="$wal" > "$WORK/$name.rec.out" << EOF
save $WORK/$name.recovered.snap
quit
EOF
  grep -q "^ok ready" "$WORK/$name.rec.out" ||
    fail "$name: recovered server did not come up"
  grep -q "ok saved" "$WORK/$name.rec.out" ||
    fail "$name: recovered server could not snapshot"

  {
    while IFS= read -r line; do
      echo "add $line"
    done < "$WORK/$name.wal_lines"
    echo "save $WORK/$name.oracle.snap"
    echo "quit"
  } | "$SCSERVED" --snapshot="$snap" > "$WORK/$name.oracle.out"
  grep -q "ok saved" "$WORK/$name.oracle.out" ||
    fail "$name: oracle session failed"
  cmp -s "$WORK/$name.recovered.snap" "$WORK/$name.oracle.snap" ||
    fail "$name: recovered state differs from the snapshot+WAL oracle"
  echo "crash_recovery: $name OK (acked=$acked, wal_lines=$(wc -l < "$WORK/$name.wal_lines"))"
}

# Crash before any record bytes: the in-flight line is simply absent.
crash_scenario pre_append "wal.append.pre=crash@2" \
  "add var Z" "add P <= Z"

# Crash between the two halves of a record: a genuinely torn tail that
# replay must detect and reopening must truncate.
crash_scenario mid_append "wal.append.mid=crash@2" \
  "add var Z" "add P <= Z"
grep -q "torn" "$WORK/mid_append.wal_err" ||
  fail "mid_append: --dump-wal did not report the torn tail"

# Crash inside the closure loop while applying an already-logged add: the
# line is durable but unacknowledged, and recovery legitimately includes
# it (the invariant is ack => durable, not the converse).
crash_scenario mid_solve "solver.step=crash@1" \
  "add var Z" "add P <= Z"

# Crash between writing the checkpoint's temp snapshot and renaming it
# over the real one: the old snapshot must still be intact and the WAL
# must still hold every acknowledged line.
crash_scenario checkpoint_rename "atomic.before_rename=crash@1" \
  "add var Z" "add P <= Z" "checkpoint"

# Resource budgets: flooding `s` through a 64-variable chain breaches an
# edge budget of 1. The server must answer err budget_exceeded, roll the
# graph back (pts C63 stays empty), count the abort, and keep serving.
CHAIN="$WORK/chain.scs"
{
  echo "cons s"
  printf 'var'
  for i in $(seq 0 63); do printf ' C%d' "$i"; done
  echo
  for i in $(seq 0 62); do echo "C$i <= C$((i + 1))"; done
} > "$CHAIN"

"$SCSERVED" --config=if-online --edge-budget=1 "$CHAIN" \
  > "$WORK/budget.out" << EOF
add s <= C0
pts C63
stats
quit
EOF
grep -q "err budget_exceeded" "$WORK/budget.out" ||
  fail "budget: expected err budget_exceeded"
grep -q "ok {}" "$WORK/budget.out" ||
  fail "budget: aborted add leaked state into C63"
grep -q "budget_aborts=1 rollbacks=1" "$WORK/budget.out" ||
  fail "budget: stats did not count the abort and rollback"
grep -q "ok bye" "$WORK/budget.out" ||
  fail "budget: server died after the abort"

# A retraction is one budget batch: retracting `s <= C0` replays all 63
# chain links, each well inside an edge budget of 20 but not together.
# The server must reject the whole retraction, roll back (s still
# reaches C63), count the abort, and keep serving.
CHAIN_S="$WORK/chain_s.scs"
{ cat "$CHAIN"; echo "s <= C0"; } > "$CHAIN_S"
"$SCSERVED" --config=if-online --edge-budget=20 "$CHAIN_S" \
  > "$WORK/budget_retract.out" << EOF
retract s <= C0
pts C63
stats
quit
EOF
grep -q "err budget_exceeded" "$WORK/budget_retract.out" ||
  fail "budget retract: expected err budget_exceeded"
grep -q "ok { s }" "$WORK/budget_retract.out" ||
  fail "budget retract: aborted retraction leaked state into C63"
grep -q "budget_aborts=1 rollbacks=1" "$WORK/budget_retract.out" ||
  fail "budget retract: stats did not count the abort and rollback"
grep -q "ok bye" "$WORK/budget_retract.out" ||
  fail "budget retract: server died after the abort"

# Deadline budget liveness: with a deadline armed the add must answer
# promptly either way (this machine may finish the flood inside 100ms)
# and the server must keep serving.
"$SCSERVED" --config=if-online --deadline-ms=100 "$CHAIN" \
  > "$WORK/deadline.out" << EOF
add s <= C0
stats
quit
EOF
grep -Eq '^(ok added|err budget_exceeded)' "$WORK/deadline.out" ||
  fail "deadline: add was neither accepted nor budget-rejected"
grep -q "ok bye" "$WORK/deadline.out" ||
  fail "deadline: server died after the deadlined add"

# Crash between the checkpoint's snapshot rename and the WAL reset: the
# new snapshot is durable but the WAL still holds the acknowledged lines
# stamped with the OLD base id. Recovery must recognize the log as stale
# (its records are already contained in the renamed snapshot), skip it
# instead of double-applying, and end up bit-identical to an oracle that
# feeds the same lines to the ORIGINAL base.
CKPT_SNAP="$WORK/ckpt_reset.snap" CKPT_WAL="$WORK/ckpt_reset.wal"
cp "$BASE" "$CKPT_SNAP"
set +e
POCE_FAILPOINTS="checkpoint.before_wal_reset=crash@1" \
  "$SCSERVED" --snapshot="$CKPT_SNAP" --wal="$CKPT_WAL" \
  > "$WORK/ckpt_reset.out" 2> "$WORK/ckpt_reset.err" << EOF
add var Z
add P <= Z
checkpoint
EOF
code=$?
set -e
[ "$code" -eq 137 ] || fail "ckpt_reset: expected crash exit 137, got $code"
[ "$(grep -c '^ok added$' "$WORK/ckpt_reset.out")" -eq 2 ] ||
  fail "ckpt_reset: both adds should have been acknowledged pre-crash"
grep -q "^ok checkpoint" "$WORK/ckpt_reset.out" &&
  fail "ckpt_reset: checkpoint must not have been acknowledged"
# The acked lines are still durable (stale, but intact) in the WAL.
"$SCSERVED" --dump-wal="$CKPT_WAL" > "$WORK/ckpt_reset.wal_lines"
grep -qxF "var Z" "$WORK/ckpt_reset.wal_lines" &&
  grep -qxF "P <= Z" "$WORK/ckpt_reset.wal_lines" ||
  fail "ckpt_reset: acknowledged lines lost from the stale WAL"
# Recovery: the stale log is skipped, not replayed; the acked lines'
# effects are served from the renamed snapshot (P <= Z flooded P's
# points-to set into Z), and the state is bit-identical to recovering
# with no WAL at all — the semantics of "stale log == already applied".
"$SCSERVED" --snapshot="$CKPT_SNAP" --wal="$CKPT_WAL" \
  > "$WORK/ckpt_reset.rec.out" 2> "$WORK/ckpt_reset.rec.err" << EOF
pts Z
add var W
save $WORK/ckpt_reset.recovered.snap
quit
EOF
grep -q "^ok ready.*wal_replayed=0 wal_skipped=2" "$WORK/ckpt_reset.rec.out" ||
  fail "ckpt_reset: recovery did not skip exactly the 2 stale lines"
grep -q "stale" "$WORK/ckpt_reset.rec.err" ||
  fail "ckpt_reset: recovery did not warn about the stale WAL"
grep -q "ok { nx, ny }" "$WORK/ckpt_reset.rec.out" ||
  fail "ckpt_reset: the acknowledged adds' effects were lost"
grep -q "^ok added$" "$WORK/ckpt_reset.rec.out" ||
  fail "ckpt_reset: recovered server refused a fresh add"
grep -q "ok saved" "$WORK/ckpt_reset.rec.out" ||
  fail "ckpt_reset: recovered server could not snapshot"
{
  echo "pts Z"
  echo "add var W"
  echo "save $WORK/ckpt_reset.oracle.snap"
  echo "quit"
} | "$SCSERVED" --snapshot="$CKPT_SNAP" > "$WORK/ckpt_reset.oracle.out"
grep -q "ok saved" "$WORK/ckpt_reset.oracle.out" ||
  fail "ckpt_reset: oracle session failed"
cmp -s "$WORK/ckpt_reset.recovered.snap" "$WORK/ckpt_reset.oracle.snap" ||
  fail "ckpt_reset: recovering with the stale WAL differs from recovering without it"
# The re-stamped WAL now holds only the post-recovery add.
"$SCSERVED" --dump-wal="$CKPT_WAL" > "$WORK/ckpt_reset.wal_after"
[ "$(cat "$WORK/ckpt_reset.wal_after")" = "var W" ] ||
  fail "ckpt_reset: restamped WAL should hold exactly the fresh add"
echo "crash_recovery: ckpt_reset OK (stale lines skipped, state intact)"

# The same window without a crash: a checkpoint that fails after the
# snapshot rename must disable the WAL (no ack may land in a log that
# restart will discard) while queries keep serving, and a restart must
# recover cleanly.
DEG_SNAP="$WORK/degraded.snap" DEG_WAL="$WORK/degraded.wal"
cp "$BASE" "$DEG_SNAP"
POCE_FAILPOINTS="checkpoint.before_wal_reset=error" \
  "$SCSERVED" --snapshot="$DEG_SNAP" --wal="$DEG_WAL" \
  > "$WORK/degraded.out" 2> "$WORK/degraded.err" << EOF
add var Z
checkpoint
add var W
checkpoint
pts P
quit
EOF
grep -q "err io_error" "$WORK/degraded.out" ||
  fail "degraded: injected checkpoint fault did not surface"
grep -q "err failed_precondition" "$WORK/degraded.out" ||
  fail "degraded: add/checkpoint were not refused after WAL disable"
grep -q "^ok added$" "$WORK/degraded.out" || fail "degraded: first add failed"
grep -q "ok { nx, ny }" "$WORK/degraded.out" ||
  fail "degraded: queries stopped serving in degraded mode"
grep -q "disabling WAL" "$WORK/degraded.err" ||
  fail "degraded: no disable notice on stderr"
"$SCSERVED" --snapshot="$DEG_SNAP" --wal="$DEG_WAL" \
  > "$WORK/degraded.rec.out" 2> "$WORK/degraded.rec.err" << EOF
ls Z
quit
EOF
grep -q "^ok ready.*wal_skipped=1" "$WORK/degraded.rec.out" ||
  fail "degraded: restart did not skip the stale WAL line"
grep -q "^ok {" "$WORK/degraded.rec.out" ||
  fail "degraded: the acked variable Z was lost across restart"
echo "crash_recovery: degraded OK (WAL disabled, restart recovered)"

# A WAL file shorter than its header (crash during creation, or an
# operator's `: > wal`) holds no acknowledged record; the server must
# start it over instead of refusing to boot.
for torn in "" "POCE"; do
  TH_SNAP="$WORK/tornhdr.snap" TH_WAL="$WORK/tornhdr.wal"
  cp "$BASE" "$TH_SNAP"
  printf '%s' "$torn" > "$TH_WAL"
  "$SCSERVED" --snapshot="$TH_SNAP" --wal="$TH_WAL" \
    > "$WORK/tornhdr.out" 2> "$WORK/tornhdr.err" << EOF
add var Z
quit
EOF
  grep -q "^ok ready" "$WORK/tornhdr.out" ||
    fail "tornhdr: server refused to start on a torn WAL header"
  grep -q "^ok added$" "$WORK/tornhdr.out" ||
    fail "tornhdr: add failed after the header rewrite"
  "$SCSERVED" --dump-wal="$TH_WAL" > "$WORK/tornhdr.wal_lines"
  [ "$(cat "$WORK/tornhdr.wal_lines")" = "var Z" ] ||
    fail "tornhdr: rewritten WAL should hold exactly the fresh add"
done
echo "crash_recovery: tornhdr OK (torn header rewritten)"

# Validation before durability: a line that cannot apply is rejected
# before the WAL append, so no crash window can ever make an
# unreplayable line durable.
VAL_SNAP="$WORK/validate.snap" VAL_WAL="$WORK/validate.wal"
cp "$BASE" "$VAL_SNAP"
"$SCSERVED" --snapshot="$VAL_SNAP" --wal="$VAL_WAL" \
  > "$WORK/validate.out" << EOF
add this is !! garbage
add var P
add undeclared <= P
add var Z
quit
EOF
[ "$(grep -c '^err parse_error' "$WORK/validate.out")" -eq 3 ] ||
  fail "validate: the three bad lines were not all rejected"
grep -q "^ok added$" "$WORK/validate.out" || fail "validate: good add failed"
"$SCSERVED" --dump-wal="$VAL_WAL" > "$WORK/validate.wal_lines"
[ "$(cat "$WORK/validate.wal_lines")" = "var Z" ] ||
  fail "validate: a rejected line reached the WAL"
echo "crash_recovery: validate OK (only applicable lines become durable)"

# An injected snapshot-save fault fails the request, not the process, and
# leaves no file behind.
POCE_FAILPOINTS="snapshot.save=error" \
  "$SCSERVED" --config=if-online examples/data/swap.scs \
  > "$WORK/savefault.out" << EOF
save $WORK/savefault.snap
pts P
quit
EOF
grep -q "err io_error" "$WORK/savefault.out" ||
  fail "savefault: expected err io_error from the injected save fault"
grep -q "ok { nx, ny }" "$WORK/savefault.out" ||
  fail "savefault: server stopped serving after the failed save"
[ ! -e "$WORK/savefault.snap" ] ||
  fail "savefault: failed save left a file behind"

echo "crash_recovery: OK"
