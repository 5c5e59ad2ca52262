#!/usr/bin/env bash
# CLI diff matrix: run every CLI scenario once in text mode and once with
# --json, writing SCENARIO.txt / SCENARIO.json into OUTDIR.  Every output
# is deterministic for a fixed seed, so two runs (or two builds) can be
# compared with `diff -r`.
#
# Usage: scripts/cli_matrix.sh OUTDIR
set -euo pipefail

if [ $# -ne 1 ]; then
  echo "usage: $0 OUTDIR" >&2
  exit 2
fi

root=$(cd "$(dirname "$0")/.." && pwd)
(cd "$root" && dune build bin/strip_cli.exe)
cli="$root/_build/default/bin/strip_cli.exe"
mkdir -p "$1"
out=$(cd "$1" && pwd)

# Scenarios run with OUTDIR as the working directory, so a file a
# scenario writes (a --trace export) lands there under a relative name
# and the path it prints is the same in every OUTDIR.  A scenario that
# exits non-zero (a failed verification or audit) stops the script.
scenario() {
  local name=$1
  shift
  (cd "$out" && "$cli" "$@" > "$name.txt")
  (cd "$out" && "$cli" "$@" --json > "$name.json")
}

exp() {
  local name=$1
  shift
  scenario "$name" experiment --delay 1.0 --scale 0.05 --verify "$@"
}

symbol=(--view comps --variant symbol)

exp comps-none --view comps --variant none
exp comps-symbol "${symbol[@]}"
exp comps-comp --view comps --variant comp
exp options-none --view options --variant none
exp servers-4 "${symbol[@]}" --servers 4
exp servers-4-watermark "${symbol[@]}" --servers 4 --watermark 4
exp aborts "${symbol[@]}" --abort-rate 0.1 --fault-seed 2025
exp crash "${symbol[@]}" --crash-at 45 --checkpoint-interval 5
exp crash-servers-4 "${symbol[@]}" --crash-at 45 --checkpoint-interval 5 \
  --servers 4
exp crash-rate "${symbol[@]}" --crash-rate 0.001
exp failover "${symbol[@]}" --crash-at 45 --checkpoint-interval 5 \
  --replicas 2 --read-rate 50 --read-policy bounded:0.5
# The text and JSON runs each write their own trace file.
(cd "$out" && "$cli" experiment --delay 1.0 --scale 0.05 --verify \
  "${symbol[@]}" --replicas 2 --slo comp_prices:30 \
  --trace cluster-trace.txt.trace > cluster-trace.txt)
(cd "$out" && "$cli" experiment --delay 1.0 --scale 0.05 --verify \
  "${symbol[@]}" --replicas 2 --slo comp_prices:30 \
  --trace cluster-trace.json.trace --json > cluster-trace.json)
exp shards-1 "${symbol[@]}" --shards 1
exp shards-3 --view comps --variant comp --shards 3
exp shards-3-crash --view comps --variant comp --shards 3 \
  --shard-crash-at 1:45
scenario chaos chaos --schedules 8 --seed 7
scenario chaos-storage chaos --storage --schedules 5 --seed 11
scenario scrub scrub --seed 16
