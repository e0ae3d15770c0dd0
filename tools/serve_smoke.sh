#!/bin/sh
# Daemon smoke test: starts spcd on a private Unix socket, drives one full
# client session (ping, analyze, cached re-analyze, batched solves with and
# without deadlines, stats, shutdown), and checks the exit-code contract.
# A second daemon at the default factor_threads (the parallel executor)
# serves an fp32-refine session (ping, analyze, solve) whose refined
# solution error is checked. Each leg also checks the factorize reply's
# fp32 flag: 0 on the fp64 leg, 1 on the fp32-refine leg.
# Used by the `serve` step of tools/run_analysis.sh (under ASan) and
# runnable standalone:  tools/serve_smoke.sh [path/to/build-dir]
#
# Exit 0 = all checks passed.
set -u

BUILD=${1:-build}
SPCD="$BUILD/tools/spcd"
[ -x "$SPCD" ] || { echo "serve_smoke: $SPCD not built" >&2; exit 2; }

SOCK="${TMPDIR:-/tmp}/spcd_smoke_$$.sock"
LOG="${TMPDIR:-/tmp}/spcd_smoke_$$.log"
fail=0
note() { echo "serve_smoke: $*"; }
# expect_flag <name> <output> <flag=value>: the client's "factor:" line
# must carry the flag.
expect_flag() {
  if printf '%s\n' "$2" | grep -q "^factor: .*$3"; then
    note "ok: $1 reports $3"
  else
    note "FAIL: $1 does not report $3: $2"
    fail=1
  fi
}
check() { # check <name> <want-exit> <got-exit>
  if [ "$3" -ne "$2" ]; then
    note "FAIL: $1 exited $3 (want $2)"
    fail=1
  else
    note "ok: $1"
  fi
}

# start_daemon <serve args...>: starts spcd on $SOCK and waits for the
# listener (the daemon prints "serving" once bound).
start_daemon() {
  rm -f "$SOCK"
  "$SPCD" serve --socket "$SOCK" "$@" >"$LOG" 2>&1 &
  PID=$!
  i=0
  while [ $i -lt 50 ]; do
    [ -S "$SOCK" ] && break
    i=$((i + 1))
    sleep 0.1
  done
  [ -S "$SOCK" ] || { note "FAIL: daemon never bound $SOCK"; cat "$LOG"; exit 1; }
}

# stop_daemon <leg>: shutdown frame, then the daemon must exit 0.
stop_daemon() {
  "$SPCD" shutdown --socket "$SOCK" >/dev/null 2>&1
  check "$1 shutdown" 0 $?
  wait "$PID"
  check "$1 daemon exit after shutdown frame" 0 $?
}

trap 'kill "$PID" 2>/dev/null; rm -f "$SOCK" "$LOG"' EXIT
start_daemon --workers 2 --nrhs-block 8 --window-ms 2

"$SPCD" ping --socket "$SOCK" >/dev/null 2>&1
check "ping" 0 $?

OUT=$("$SPCD" analyze CUBE30 --socket "$SOCK" --scale small 2>&1)
check "analyze" 0 $?
expect_flag "fp64 analyze" "$OUT" "fp32=0 "

"$SPCD" solve CUBE30 --socket "$SOCK" --scale small --nrhs 8 >/dev/null 2>&1
check "solve x8 (cached factor)" 0 $?

"$SPCD" solve GRID150 --socket "$SOCK" --scale small --nrhs 4 \
  --block 32 >/dev/null 2>&1
check "solve second matrix" 0 $?

# An already-expired deadline (0 ms) must map to DeadlineExceeded, exit 8,
# without disturbing the daemon.
"$SPCD" solve CUBE30 --socket "$SOCK" --scale small --deadline-ms 0 \
  >/dev/null 2>&1
check "expired deadline -> exit 8" 8 $?

# The daemon must still be healthy after the failed request.
"$SPCD" stats --socket "$SOCK" >/dev/null 2>&1
check "stats after deadline reject" 0 $?

stop_daemon fp64

# fp32-refine leg: the default factor_threads (0 = hardware concurrency)
# factors on the executor in fp32; two fp64 refinement steps must bring the
# solution of A x = A 1 back to fp64 accuracy.
start_daemon --workers 2
"$SPCD" ping --socket "$SOCK" >/dev/null 2>&1
check "fp32 ping" 0 $?

OUT=$("$SPCD" analyze BCSSTK15 --socket "$SOCK" --scale small \
  --precision fp32-refine 2>&1)
check "fp32 analyze" 0 $?
expect_flag "fp32 analyze" "$OUT" "fp32=1 "

OUT=$("$SPCD" solve BCSSTK15 --socket "$SOCK" --scale small --nrhs 2 \
  --precision fp32-refine 2>&1)
check "fp32 solve x2" 0 $?
expect_flag "fp32 solve" "$OUT" "fp32=1 "
# The client prints "max |x - 1| = E"; require E <= 1e-9.
ERR=$(printf '%s\n' "$OUT" | sed -n 's/.*max |x - 1| = //p')
if [ -n "$ERR" ] && awk -v e="$ERR" 'BEGIN { exit !(e <= 1e-9) }'; then
  note "ok: fp32 refined solution error $ERR"
else
  note "FAIL: fp32 refined solution error '$ERR' (want <= 1e-9): $OUT"
  fail=1
fi

stop_daemon fp32
trap - EXIT
rm -f "$SOCK" "$LOG"

[ $fail -eq 0 ] && note "all checks passed"
exit $fail
