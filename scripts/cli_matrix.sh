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
# Four servers contend on locks.  A replica-less read pump cuts the same
# run into 2000 slices per second and serves its reads without locks, so
# it must simulate exactly the same lock waits.
exp servers-4-none --view comps --variant none --servers 4
exp servers-4-reads --view comps --variant none --servers 4 \
  --replicas 0 --read-rate 2000
exp aborts "${symbol[@]}" --abort-rate 0.1 --fault-seed 2025
exp crash "${symbol[@]}" --crash-at 45 --checkpoint-interval 5
exp crash-servers-4 "${symbol[@]}" --crash-at 45 --checkpoint-interval 5 \
  --servers 4
# A checkpoint every simulated second: many images reuse the encodings
# of unchanged tables, and the crash recovers from one of them.
exp crash-dense "${symbol[@]}" --crash-at 45 --checkpoint-interval 1
exp crash-rate "${symbol[@]}" --crash-rate 0.001
# Overload sheds rule tasks, never the scheduled checkpoints and crash.
exp crash-watermark "${symbol[@]}" --watermark 2 --crash-at 45 \
  --checkpoint-interval 5
# Unique on comp over a crash: fan-in firings merge into the TCBs that
# recovery rebuilt fully materialized, so their rows are copied by value.
exp crash-comp --view comps --variant comp --crash-at 45 \
  --checkpoint-interval 5
# A traced crash with a checkpoint every second: the export lists the
# checkpoint and crash tasks of both incarnations (ids, labels, release
# instants).  The text and JSON runs write the same crash.trace.
exp crash-trace "${symbol[@]}" --crash-at 45 --checkpoint-interval 1 \
  --trace crash.trace
exp failover "${symbol[@]}" --crash-at 45 --checkpoint-interval 5 \
  --replicas 2 --read-rate 50 --read-policy bounded:0.5
# A read pump with no replica over a restart in place: later reads go to
# the restarted instance, and reads during the outage wait for it.
exp reads-crash "${symbol[@]}" --replicas 0 --read-rate 50 --crash-at 45 \
  --checkpoint-interval 5
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
# A crash near the end of the 90 s feed: recovery restores the dedup
# watermarks (one per source, advanced over nearly the whole run), plus
# a Shard_in tail, and ships only what the owners' floors do not cover.
exp shards-4-late-crash --view comps --variant comp --shards 4 \
  --shard-crash-at 2:80
# Overload on a sharded run: a shard's apply task carries no rows a
# victim could coalesce into, so it must start no shed, and no partial
# is lost.
exp overload-shards "${symbol[@]}" --shards 3 --watermark 2
# Metrics-registry exports (--metrics) of a crash, a failover and a
# sharded crash: the rows the report reads, per node, per replica and
# per shard.  They are written next to the text and JSON outputs of the
# same runs above, which they leave untouched.
metrics() {
  local name=$1
  shift
  (cd "$out" && "$cli" experiment --delay 1.0 --scale 0.05 --verify "$@" \
    --metrics "$name.metrics.json" > /dev/null)
}
metrics crash "${symbol[@]}" --crash-at 45 --checkpoint-interval 5
metrics failover "${symbol[@]}" --crash-at 45 --checkpoint-interval 5 \
  --replicas 2 --read-rate 50 --read-policy bounded:0.5
metrics shards-3-crash --view comps --variant comp --shards 3 \
  --shard-crash-at 1:45
scenario chaos chaos --schedules 8 --seed 7
scenario chaos-storage chaos --storage --schedules 5 --seed 11
scenario scrub scrub --seed 16
# Seed 9 rots a checkpoint slot as well as the WAL: the scrubber must
# find the slot by re-reading it and repair it with a fresh checkpoint.
scenario scrub-cp scrub --seed 9
# Seed 1 lies at two fsyncs: the zero gaps pass every frame CRC and only
# the record grammar, checked without building records, finds them.
scenario scrub-lie scrub --seed 1
# At scale 0.2 the retained log and slots are many scrub budgets long,
# so a scrub cycle spans many passes; seed 6 rots a checkpoint slot that
# the paced cycle must still reach and repair.
scenario scrub-paced scrub --chaos-scale 0.2 --seed 6
