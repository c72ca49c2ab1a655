#!/usr/bin/env bash
# End-to-end smoke for the network server (docs/SERVER.md): starts a real
# ses_server process, drives it with ses_loadgen over loopback TCP, then
# replays every dumped client stream through ses_cli and diffs the match
# listings byte for byte — twice against the same server, so a server that
# stops serving once its clients have flushed fails the second pass. The
# server is the system under test — in CI it is built with ASan+UBSan, so
# a single out-of-bounds read in the codec or connection handling fails the
# job even when the diffs happen to pass.
#
# Each connection is its own stream, so every loadgen client's match set
# must equal a standalone single-pattern ses_cli run over its own dumped
# stream; both sides print the same `match,variable,event,T` CSV, so plain
# diff is the whole check. Clients use distinct label alphabets ("A3"/"B3"
# for client 3), so a match delivered to the wrong connection shows up.
#
# Before that, malformed or out-of-range numeric flags must be refused as
# usage errors: exit 2 from ses_server and ses_loadgen, exit 1 with the
# range message from ses_cli. The flags of options deleted from ses_cli
# must be unknown to it: exit 1 with "unknown flag". The server has no
# per-plan engine kind, so --engine and --threads are unknown to it (exit
# 2), and a ses_cli --catalog run refuses the single-pattern engine flags
# (exit 1, naming the flag).
#
# Usage: tools/server_smoke.sh [CLIENTS] [EVENTS]
#   CLIENTS  concurrent loadgen connections (default 8)
#   EVENTS   events per client (default 2000)
#
# Environment:
#   SES_SERVER         path to ses_server  (default ./build/examples/ses_server)
#   SES_LOADGEN        path to ses_loadgen (default ./build/examples/ses_loadgen)
#   SES_CLI            path to ses_cli     (default ./build/examples/ses_cli)
#   SES_LOADGEN_FLAGS  extra loadgen flags, e.g. "--columnar" or "--batch 64"
#   SES_KEEP_DIR       on failure, copy the workdir (logs, dumps, diffs) here
#                      for the CI artifact upload
#
# Exit status: 0 when the bad flags were refused, every client's
# wire-delivered matches reproduced the ses_cli reference in both passes,
# and the server shut down cleanly; non-zero otherwise.
# Run from the repository root. Used by the server-smoke CI job
# (.github/workflows/ci.yml), once row-encoded and once --columnar.

set -euo pipefail

SERVER="${SES_SERVER:-./build/examples/ses_server}"
LOADGEN="${SES_LOADGEN:-./build/examples/ses_loadgen}"
CLI="${SES_CLI:-./build/examples/ses_cli}"
CLIENTS="${1:-8}"
EVENTS="${2:-2000}"
EXTRA=(${SES_LOADGEN_FLAGS:-})
SCHEMA="ID INT, L STRING, V DOUBLE"

for bin in "$SERVER" "$LOADGEN" "$CLI"; do
  if [ ! -x "$bin" ]; then
    echo "error: $bin not found (build first, or set SES_SERVER/..)" >&2
    exit 2
  fi
done

workdir=$(mktemp -d)
server_pid=""

keep_evidence() {
  if [ -n "${SES_KEEP_DIR:-}" ]; then
    mkdir -p "$SES_KEEP_DIR"
    cp -r "$workdir"/. "$SES_KEEP_DIR"/
  fi
}

cleanup() {
  status=$?
  if [ -n "$server_pid" ] && kill -0 "$server_pid" 2> /dev/null; then
    kill -TERM "$server_pid" 2> /dev/null || true
    wait "$server_pid" 2> /dev/null || true
  fi
  if [ "$status" -ne 0 ]; then
    keep_evidence
  fi
  rm -rf "$workdir"
  exit "$status"
}
trap cleanup EXIT

# 0. Numeric flags out of range are usage errors, never a server on a
#    wrapped port or with an unbounded queue, a client dialing a wrapped
#    port, or a CLI run with a truncated shard count or batch size. The
#    timeouts turn a program that wrongly starts into a failure instead of
#    a hang.
for bad in "--port 70000" "--port abc" "--queue-capacity 0" \
  "--queue-capacity -1" "--idle-timeout-ms -1"; do
  code=0
  # shellcheck disable=SC2086  # split "--flag value"
  timeout 20 "$SERVER" --schema "$SCHEMA" $bad > /dev/null 2>&1 || code=$?
  if [ "$code" -ne 2 ]; then
    echo "error: ses_server $bad exited $code, want 2" >&2
    exit 1
  fi
done
for removed in "--engine parallel" "--threads 4" \
  "--checkpoint-dir $workdir/ckpt"; do
  code=0
  # shellcheck disable=SC2086  # split "--flag value"
  timeout 20 "$SERVER" --schema "$SCHEMA" $removed > /dev/null \
    2> "$workdir/server_flag.err" || code=$?
  if [ "$code" -ne 2 ] ||
    ! grep -q "unknown flag" "$workdir/server_flag.err"; then
    echo "error: ses_server $removed exited $code, want 2 with an unknown" \
      "flag error" >&2
    cat "$workdir/server_flag.err" >&2
    exit 1
  fi
done
for bad in "--port 70000" "--port 1x" "--port 1 --window -5" \
  "--port 1 --busy-retry-ms -3" "--port 1 --clients 0"; do
  code=0
  # shellcheck disable=SC2086  # split "--flag value"
  timeout 20 "$LOADGEN" $bad > /dev/null 2>&1 || code=$?
  if [ "$code" -ne 2 ]; then
    echo "error: ses_loadgen $bad exited $code, want 2" >&2
    exit 1
  fi
done
# ses_cli exits 1 on any error, so also require the range message: the
# complete-graph Q1 runs fine on --threads, so nothing else can fail.
q1="PATTERN {c, p+, d} -> {b} WHERE c.L = 'C' AND d.L = 'D' AND p.L = 'P'
    AND b.L = 'B' AND c.ID = p.ID AND c.ID = d.ID AND c.ID = b.ID
    AND p.ID = d.ID AND p.ID = b.ID AND d.ID = b.ID WITHIN 264h"
for bad in "--threads 2x" "--threads 0" "--batch 5000000000" \
  "--columnar on --batch-rows 4294967297"; do
  code=0
  # shellcheck disable=SC2086  # split "--flag value"
  timeout 20 "$CLI" --demo --query "$q1" $bad > /dev/null \
    2> "$workdir/cli_flag.err" || code=$?
  if [ "$code" -ne 1 ] ||
    ! grep -q "must be an integer in" "$workdir/cli_flag.err"; then
    echo "error: ses_cli $bad exited $code, want 1 with a range error" >&2
    cat "$workdir/cli_flag.err" >&2
    exit 1
  fi
done
cat > "$workdir/demo.sescat" << 'EOF'
[cd]
PATTERN {c} -> {d} WHERE c.L = 'C' AND d.L = 'D' AND c.ID = d.ID WITHIN 264h
EOF
for flag in "--threads 2" "--engine serial"; do
  code=0
  # shellcheck disable=SC2086  # split "--flag value"
  timeout 20 "$CLI" --demo --catalog "$workdir/demo.sescat" $flag \
    > /dev/null 2> "$workdir/cli_flag.err" || code=$?
  if [ "$code" -ne 1 ] ||
    ! grep -q -- "${flag%% *} configures" "$workdir/cli_flag.err"; then
    echo "error: ses_cli --catalog $flag exited $code, want 1 naming the" \
      "flag" >&2
    cat "$workdir/cli_flag.err" >&2
    exit 1
  fi
done
for removed in shared-const no-type-index no-shared-prefilter \
  "type-attribute L" "lateness 5" "late-policy drop"; do
  code=0
  # shellcheck disable=SC2086  # split "--flag value"
  timeout 20 "$CLI" --demo --$removed > /dev/null \
    2> "$workdir/cli_flag.err" || code=$?
  if [ "$code" -ne 1 ] || ! grep -q "unknown flag" "$workdir/cli_flag.err"; then
    echo "error: ses_cli --$removed exited $code, want 1 with an unknown" \
      "flag error" >&2
    cat "$workdir/cli_flag.err" >&2
    exit 1
  fi
done

# 1. Start the server on an ephemeral port and parse the port line it
#    prints on stdout. A sanitizer-instrumented server can be slow to come
#    up, hence the generous poll loop.
"$SERVER" --schema "$SCHEMA" --queue-capacity 16 \
  > "$workdir/server.out" 2> "$workdir/server.err" &
server_pid=$!

port=""
for _ in $(seq 1 200); do
  if ! kill -0 "$server_pid" 2> /dev/null; then
    echo "error: ses_server exited during startup" >&2
    cat "$workdir/server.err" >&2
    exit 1
  fi
  port=$(sed -n 's/^listening on 127\.0\.0\.1:\([0-9][0-9]*\)$/\1/p' \
    "$workdir/server.out")
  if [ -n "$port" ]; then break; fi
  sleep 0.1
done
if [ -z "$port" ]; then
  echo "error: ses_server never printed its port line" >&2
  cat "$workdir/server.err" >&2
  exit 1
fi

echo "server_smoke: port=$port clients=$CLIENTS events=$EVENTS" \
     "flags='${SES_LOADGEN_FLAGS:-}'"

# 2. Drive it: N concurrent clients, small batches so the queue-capacity
#    16 server answers some Busy frames under load, dumping each client's
#    stream + query + wire-delivered matches for the differential check.
#    Then replay every dumped stream through ses_cli and diff. The loadgen
#    writes matches in SortMatches order with ids assigned by rank, which
#    is exactly what `ses_cli --format csv` prints for the same stream.
run_pass() {
  local dump="$workdir/dump$1"
  mkdir -p "$dump"
  "$LOADGEN" --port "$port" --clients "$CLIENTS" --events "$EVENTS" \
    --batch 128 --dump-dir "$dump" \
    "${EXTRA[@]+"${EXTRA[@]}"}" | tee "$workdir/loadgen$1.out"
  local fail=0
  for c in $(seq 0 $((CLIENTS - 1))); do
    local base="$dump/client$c"
    "$CLI" --schema "$SCHEMA" --data "$base.csv" --query-file "$base.query" \
      --format csv > "$base.ref.csv"
    if ! diff -u "$base.ref.csv" "$base.matches.csv" > "$base.diff"; then
      echo "error: pass $1: client $c wire matches diverged from ses_cli" >&2
      head -20 "$base.diff" >&2
      fail=1
    fi
  done
  return "$fail"
}

# 3. Two passes against the same server: every client of pass 1 flushed
#    its own stream, and the server must keep serving new connections.
run_pass 1
run_pass 2

# 4. Clean shutdown: SIGTERM, then require exit 0 so sanitizer reports
#    (including leaks found at exit) fail the run.
kill -TERM "$server_pid"
if ! wait "$server_pid"; then
  echo "error: ses_server shutdown reported failure" >&2
  cat "$workdir/server.err" >&2
  exit 1
fi
server_pid=""

matches=$(awk 'END { print NR - 1 }' "$workdir"/dump2/client0.matches.csv)
echo "server_smoke: OK (2 passes x $CLIENTS client(s) x $EVENTS events," \
     "client0 delivered $matches match row(s), all diffs clean)"
