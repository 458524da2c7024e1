#!/usr/bin/env bash
# Wave-closure perf smoke test: generate the cascade shape (a long
# variable chain laid down before any source arrives — the worst case for
# eager singleton-delta propagation), solve it under both closure
# schedules and with no --closure flag, and assert
#   (1) the printed least solutions are byte-identical,
#   (2) each flag reaches the solver: the worklist run reports no wave
#       pass, the wave run at least one, and the flagless run prints the
#       same --stats as the wave run (wave is the default), and
#   (3) the wave schedule performs no more delta propagations than the
#       worklist schedule (on this shape it should do far fewer: one
#       level-ordered sweep instead of one chain walk per source).
# Then it closes the chain into a ring (C199 <= C0) and solves it under
# SF-Online, asserting that
#   (4) the wave solutions are byte-identical to --closure=worklist, and
#   (5) the wave-order build collapsed the ring the online chain search
#       missed (`wave collapsed:` >= 1), so its sweeps never delivered
#       against the order (`wave fallbacks: 0`).
# Last it builds a hub: a variable H with 160 successors (well over
# twice the chain search's hub cutoff), 60 insertions into H (each
# starts a chain search from H, and each is followed by one more
# successor of H), edges that close cycles through H, and a ring
# T159 <= H. It solves it under SF-Online on both schedules and asserts
#   (6) the wave solutions are byte-identical to --closure=worklist, and
#   (7) `search steps:`, `cycle searches:` and `vars eliminated:` on both
#       schedules equal the values the plain list walk produced before
#       searches replayed hub summaries (15,735 / 953 / 20).
#
# Usage: scripts/perf_smoke.sh [build-dir]   (default: build)
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR=${1:-build}
SCSOLVE="$BUILD_DIR/src/driver/scsolve"
if [ ! -x "$SCSOLVE" ]; then
  cmake -B "$BUILD_DIR" -S .
  cmake --build "$BUILD_DIR" -j --target scsolve
fi

WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT
SCS="$WORK/cascade.scs"

# C0 <= C1 <= ... <= C199 first, then 40 sources into C0: every source
# must traverse the finished chain.
CHAIN=200
SOURCES=40
awk -v chain="$CHAIN" -v sources="$SOURCES" 'BEGIN {
  for (i = 0; i < sources; ++i) printf "cons s%d\n", i;
  printf "var";
  for (i = 0; i < chain; ++i) printf " C%d", i;
  printf "\n";
  for (i = 0; i + 1 < chain; ++i) printf "C%d <= C%d\n", i, i + 1;
  for (i = 0; i < sources; ++i) printf "s%d() <= C0\n", i;
}' > "$SCS"

run() { # run <closure|default> <solutions-out> <stats-out>
  local Flag=()
  [ "$1" = default ] || Flag=(--closure="$1")
  "$SCSOLVE" --config=sf-plain ${Flag[@]+"${Flag[@]}"} "$SCS" > "$2"
  "$SCSOLVE" --config=sf-plain ${Flag[@]+"${Flag[@]}"} --stats "$SCS" > "$3"
}

run worklist "$WORK/worklist.out" "$WORK/worklist.stats"
run wave "$WORK/wave.out" "$WORK/wave.stats"
run default "$WORK/default.out" "$WORK/default.stats"

for RUN in wave default; do
  if ! cmp -s "$WORK/worklist.out" "$WORK/$RUN.out"; then
    echo "FAIL: $RUN least solutions differ from worklist solutions" >&2
    diff "$WORK/worklist.out" "$WORK/$RUN.out" >&2 | head -20
    exit 1
  fi
done

stat() { # stat <label> <stats-file>
  grep "^$1:" "$2" | tr -d ' ,' | cut -d: -f2
}
WL_PROPS=$(stat 'delta props' "$WORK/worklist.stats")
WAVE_PROPS=$(stat 'delta props' "$WORK/wave.stats")
WL_PASSES=$(stat 'wave passes' "$WORK/worklist.stats")
WAVE_PASSES=$(stat 'wave passes' "$WORK/wave.stats")

if [ -z "$WL_PROPS" ] || [ -z "$WAVE_PROPS" ]; then
  echo "FAIL: could not read delta-propagation counts from --stats" >&2
  exit 1
fi
if [ "$WAVE_PASSES" -lt 1 ]; then
  echo "FAIL: wave run reports no wave passes (closure flag not wired?)" >&2
  exit 1
fi
if [ "$WL_PASSES" -ne 0 ]; then
  echo "FAIL: worklist run reports $WL_PASSES wave passes" \
       "(--closure=worklist not wired?)" >&2
  exit 1
fi
if ! cmp -s "$WORK/default.stats" "$WORK/wave.stats"; then
  echo "FAIL: the run without --closure differs from the wave run" \
       "(wave is the default)" >&2
  diff "$WORK/wave.stats" "$WORK/default.stats" >&2 || true
  exit 1
fi
if [ "$WAVE_PROPS" -gt "$WL_PROPS" ]; then
  echo "FAIL: wave closure propagated more deltas than the worklist" \
       "($WAVE_PROPS > $WL_PROPS) on the cascade shape" >&2
  exit 1
fi

RING="$WORK/ring.scs"
{ cat "$SCS"; echo "C$((CHAIN - 1)) <= C0"; } > "$RING"
"$SCSOLVE" --config=sf-online --closure=worklist "$RING" > "$WORK/ring-worklist.out"
"$SCSOLVE" --config=sf-online "$RING" > "$WORK/ring-wave.out"
"$SCSOLVE" --config=sf-online --stats "$RING" > "$WORK/ring-wave.stats"
if ! cmp -s "$WORK/ring-worklist.out" "$WORK/ring-wave.out"; then
  echo "FAIL: SF-Online ring: wave least solutions differ from worklist" >&2
  diff "$WORK/ring-worklist.out" "$WORK/ring-wave.out" >&2 | head -20
  exit 1
fi
RING_FALLBACKS=$(stat 'wave fallbacks' "$WORK/ring-wave.stats")
RING_COLLAPSED=$(stat 'wave collapsed' "$WORK/ring-wave.stats")
if [ -z "$RING_FALLBACKS" ] || [ -z "$RING_COLLAPSED" ]; then
  echo "FAIL: could not read wave fallbacks/collapsed from --stats" >&2
  exit 1
fi
if [ "$RING_FALLBACKS" -ne 0 ]; then
  echo "FAIL: SF-Online ring: $RING_FALLBACKS wave fallbacks" \
       "(the order build should collapse the ring first)" >&2
  exit 1
fi
if [ "$RING_COLLAPSED" -lt 1 ]; then
  echo "FAIL: SF-Online ring: the wave-order build collapsed nothing" >&2
  exit 1
fi

HUB="$WORK/hub.scs"
awk -v succs=160 -v adds=60 'BEGIN {
  for (i = 0; i < adds; ++i) printf "cons s%d\n", i;
  printf "var H";
  for (j = 0; j < succs; ++j) printf " T%d", j;
  for (i = 0; i < adds; ++i) printf " A%d U%d", i, i;
  printf "\n";
  for (j = 0; j < succs; ++j) printf "H <= T%d\n", j;
  for (i = 0; i < adds; ++i) {
    printf "s%d() <= A%d\n", i, i;
    printf "A%d <= H\n", i;
    printf "H <= U%d\n", i;
  }
  for (j = 0; j < succs; j += 7) printf "T%d <= A%d\n", j, (j * 3) % adds;
  printf "T%d <= H\n", succs - 1;
}' > "$HUB"
"$SCSOLVE" --config=sf-online --closure=worklist "$HUB" > "$WORK/hub-worklist.out"
"$SCSOLVE" --config=sf-online "$HUB" > "$WORK/hub-wave.out"
if ! cmp -s "$WORK/hub-worklist.out" "$WORK/hub-wave.out"; then
  echo "FAIL: SF-Online hub: wave least solutions differ from worklist" >&2
  diff "$WORK/hub-worklist.out" "$WORK/hub-wave.out" >&2 | head -20
  exit 1
fi
for CLOSURE in wave worklist; do
  "$SCSOLVE" --config=sf-online --closure="$CLOSURE" --stats "$HUB" \
    > "$WORK/hub-$CLOSURE.stats"
  for PIN in 'search steps=15735' 'cycle searches=953' \
             'vars eliminated=20'; do
    LABEL=${PIN%=*}
    WANT=${PIN#*=}
    GOT=$(stat "$LABEL" "$WORK/hub-$CLOSURE.stats")
    if [ "$GOT" != "$WANT" ]; then
      echo "FAIL: SF-Online hub ($CLOSURE): $LABEL is '$GOT', want $WANT" >&2
      exit 1
    fi
  done
done

echo "perf smoke OK: solutions identical;" \
     "delta props worklist=$WL_PROPS wave=$WAVE_PROPS" \
     "(passes=$WAVE_PASSES); SF-Online ring collapsed=$RING_COLLAPSED" \
     "fallbacks=$RING_FALLBACKS; hub search steps, searches and" \
     "eliminated match the plain walk"
