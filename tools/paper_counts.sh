#!/usr/bin/env bash
# Reproduces one of the paper's experiments at smoke scale and fails when
# an exact counter (an instance, match or filtered-event count) differs
# from the committed report under bench/baselines/. The timing ratios
# passed to bench_compare are ones no host can trip, so only the counts
# gate.
#
# Usage: tools/paper_counts.sh <bench binary> <bench_compare> <baseline.json>

set -euo pipefail

bench=$1
compare=$2
baseline=$3
out=$(mktemp)
trap 'rm -f "$out"' EXIT

"$bench" --smoke --json "$out" > /dev/null
"$compare" --wall-ratio 1e9 --throughput-ratio 1e-9 --latency-ratio 1e9 \
  "$baseline" "$out"
