#!/usr/bin/env bash
# Crash-recovery differential harness for the checkpoint/restore subsystem
# (docs/RUNTIME.md checkpoint section, docs/SEMANTICS.md section 12).
#
# Proves the exact-resume contract end to end through the CLI: a run that
# is killed at a random event offset and restored from its newest on-disk
# checkpoint must print stdout byte-identical to a run that was never
# interrupted. The kill is a real process death (ses_cli --crash-after-
# events exits hard with code 137, no flush), and the harness chains TWO
# crashes — the restored run is killed again and restored again — so
# repeated recovery is covered, not just the first.
#
# Usage: tools/crash_recovery.sh [ENGINE] [THREADS] [SEED]
#   ENGINE   serial | partitioned | parallel (default serial)
#   THREADS  worker shards, parallel engine only (default 0 = engine pick)
#   SEED     randomizes the two kill offsets; logged for reproduction
#            (default: derived from $RANDOM)
#
# Environment:
#   SES_CLI          path to the ses_cli binary
#                    (default ./build/examples/ses_cli)
#   SES_EXTRA_FLAGS  extra CLI flags appended to every run, e.g.
#                    "--columnar on --batch-rows 50"
#
# Exit status: 0 when every restored run reproduced the reference output,
# non-zero otherwise. Run from the repository root. Used by the
# crash-recovery CI job (.github/workflows/ci.yml), which runs it across
# engines x threads under ASan+UBSan.

set -euo pipefail

CLI="${SES_CLI:-./build/examples/ses_cli}"
ENGINE="${1:-serial}"
THREADS="${2:-0}"
SEED="${3:-$((RANDOM + 1))}"
EXTRA=(${SES_EXTRA_FLAGS:-})

if [ ! -x "$CLI" ]; then
  echo "error: ses_cli not found at $CLI (set SES_CLI or build first)" >&2
  exit 2
fi

workdir=$(mktemp -d)
trap 'rm -rf "$workdir"' EXIT

# Deterministic keyed stream: 50 rounds of the chemotherapy-style
# C P X P P D B episode across 8 interleaved keys = 2800 events, dense in
# matches so buffered state is non-trivial at every kill offset. The
# query's §4.5 filter drops each X, so every kill offset also has dropped
# events before and after it.
csv="$workdir/events.csv"
{
  echo "T,ID,L"
  awk 'BEGIN {
    t = 0
    split("C P X P P D B", seq, " ")
    for (rep = 0; rep < 50; ++rep)
      for (key = 1; key <= 8; ++key)
        for (i = 1; i <= 7; ++i) { ++t; printf "%d,%d,%s\n", t, key, seq[i] }
  }'
} > "$csv"
TOTAL=2800

# The paper's episode pattern with a complete equality graph on ID, so
# every engine (partition-pure ones included) accepts it.
QUERY="PATTERN {c, p+, d} -> {b} WHERE c.L = 'C' AND d.L = 'D'
       AND p.L = 'P' AND b.L = 'B' AND c.ID = p.ID AND c.ID = d.ID
       AND c.ID = b.ID AND p.ID = d.ID AND p.ID = b.ID AND d.ID = b.ID
       WITHIN 30"

# Two kill offsets from the seed: the first anywhere in the stream, the
# second within what typically remains after the first restore.
read -r KILL1 KILL2 <<EOF
$(awk -v seed="$SEED" -v total="$TOTAL" 'BEGIN {
  srand(seed)
  k1 = 1 + int(rand() * (total - 2))
  k2 = 1 + int(rand() * (total / 2))
  printf "%d %d\n", k1, k2
}')
EOF

common=(--schema "ID INT, L STRING" --data "$csv" --query "$QUERY"
        --engine "$ENGINE")
if [ "$ENGINE" = "parallel" ] && [ "$THREADS" -gt 0 ]; then
  common+=(--threads "$THREADS")
fi
common+=("${EXTRA[@]+"${EXTRA[@]}"}")
ckpt=(--checkpoint-dir "$workdir/ckpt" --checkpoint-interval 100)

echo "crash_recovery: engine=$ENGINE threads=$THREADS seed=$SEED" \
     "kill1=$KILL1 kill2=$KILL2"

# 1. Uninterrupted reference.
"$CLI" "${common[@]}" > "$workdir/ref.txt"

# 2. First life: killed mid-stream. Expect the hard-exit code.
set +e
"$CLI" "${common[@]}" "${ckpt[@]}" --crash-after-events "$KILL1" \
  > /dev/null 2> "$workdir/crash1.log"
status=$?
set -e
if [ "$status" -ne 137 ]; then
  echo "error: crash run 1 exited $status, wanted 137" >&2
  cat "$workdir/crash1.log" >&2
  exit 1
fi

# 3. Second life: restored, then killed again. When fewer than KILL2
#    events remain it simply finishes — then its output already counts.
set +e
"$CLI" "${common[@]}" "${ckpt[@]}" --restore --crash-after-events "$KILL2" \
  > "$workdir/out.txt" 2> "$workdir/crash2.log"
status=$?
set -e
if [ "$status" -eq 137 ]; then
  # 4. Third life: restored once more, runs to completion.
  "$CLI" "${common[@]}" "${ckpt[@]}" --restore > "$workdir/out.txt" \
    2> "$workdir/restore.log"
elif [ "$status" -ne 0 ]; then
  echo "error: restore run exited $status" >&2
  cat "$workdir/crash2.log" >&2
  exit 1
fi

if ! diff -u "$workdir/ref.txt" "$workdir/out.txt"; then
  echo "error: restored output diverged from the uninterrupted run" \
       "(engine=$ENGINE threads=$THREADS seed=$SEED" \
       "kill1=$KILL1 kill2=$KILL2)" >&2
  # Keep the evidence for the CI artifact upload.
  if [ -n "${SES_KEEP_DIR:-}" ]; then
    mkdir -p "$SES_KEEP_DIR"
    cp -r "$workdir"/. "$SES_KEEP_DIR"/
  fi
  exit 1
fi

echo "crash_recovery: OK ($(wc -l < "$workdir/ref.txt") output lines" \
     "reproduced across two kills)"
