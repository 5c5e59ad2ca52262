#!/usr/bin/env bash
# Tick identity: check that this checkout simulates exactly what another
# checkout (usually the parent commit) simulates.  Both checkouts run
#
#   1. scripts/cli_matrix.sh, compared with `diff -r`;
#   2. STRIP_BENCH_SCALE=0.05 STRIP_BENCH_DELAYS=1 bench/main.exe --lane
#      figures,sweep,robustness,recovery,replication,shard,chaos,storage,
#      from a scratch directory so no committed BENCH_*.json is touched;
#      stdout is compared with `cmp`, and every lane file with its
#      "git_rev" field ignored;
#   3. bench/perf/perf.exe --seed 1994 --trials 1 --traced: each
#      workload's sim_digest and every per-layer count (the metrics that
#      are not timings) must be equal.
#
# For information it also prints each workload's alloc_words_per_quote
# as parent -> change, read from the same results.json files; that line
# gates nothing (allocation is compared only when both checkouts sit at
# paths of equal length, see docs/PERFORMANCE.md).
#
# Each checkout runs its own scripts and binaries.  The script writes
# only under a temporary directory (removed on exit) and into each
# checkout's _build.  It names every difference it finds (each differing
# matrix file, lane stdout line, lane or perf field) and exits 1 if there
# is one, 0 when everything is equal, 2 on a usage error.
#
# Usage (from anywhere): scripts/tick_identity.sh PARENT_DIR
set -euo pipefail

if [ $# -ne 1 ] || [ ! -d "$1" ]; then
  echo "usage: $0 PARENT_DIR" >&2
  exit 2
fi

change=$(cd "$(dirname "$0")/.." && pwd)
parent=$(cd "$1" && pwd)
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

lanes=figures,sweep,robustness,recovery,replication,shard,chaos,storage

run_side() {
  local dir=$1 out=$2
  echo "tick_identity: running $dir" >&2
  dune build --root "$dir" bin/strip_cli.exe bench/main.exe bench/perf/perf.exe >&2
  "$dir/scripts/cli_matrix.sh" "$out/matrix" >&2
  mkdir -p "$out/lanes"
  (cd "$out/lanes" &&
    STRIP_BENCH_SCALE=0.05 STRIP_BENCH_DELAYS=1 \
      "$dir/_build/default/bench/main.exe" --lane "$lanes" > "$out/lanes.stdout")
  "$dir/_build/default/bench/perf/perf.exe" --seed 1994 --trials 1 --traced \
    --out "$out/perf/results.json" >&2
}

run_side "$parent" "$work/parent"
run_side "$change" "$work/change"

status=0
different() {
  echo "tick_identity: DIFFERENT: $*" >&2
  status=1
}

if ! diff -rq "$work/parent/matrix" "$work/change/matrix" > "$work/matrix.diff"; then
  while IFS= read -r line; do different "CLI matrix: $line"; done < "$work/matrix.diff"
fi

if ! diff "$work/parent/lanes.stdout" "$work/change/lanes.stdout" > "$work/lanes.diff"; then
  while IFS= read -r line; do
    case $line in
      [\<\>]*) different "lane stdout: $line" ;;
    esac
  done < "$work/lanes.diff"
fi

nmatrix=$(find "$work/change/matrix" -type f | wc -l)
python3 - "$work/parent" "$work/change" "$nmatrix" "$status" <<'EOF' || exit 1
import glob, json, os, sys

parent, change, nmatrix = sys.argv[1], sys.argv[2], sys.argv[3]
found = sys.argv[4] != "0"

def differences(path, a, b):
    if isinstance(a, dict) and isinstance(b, dict):
        return [d for k in list(a) + [k for k in b if k not in a]
                if a.get(k) != b.get(k)
                for d in differences(f"{path}.{k}", a.get(k), b.get(k))]
    if isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        return [d for i, (x, y) in enumerate(zip(a, b)) if x != y
                for d in differences(f"{path}[{i}]", x, y)]
    return [f"{path}: parent {json.dumps(a)}, change {json.dumps(b)}"]

def different(msg):
    global found
    print("tick_identity: DIFFERENT: " + msg, file=sys.stderr)
    found = True

def lane_files(side):
    return sorted(os.path.basename(p) for p in glob.glob(os.path.join(side, "lanes", "*.json")))

if lane_files(parent) != lane_files(change):
    different(f"lane files: parent {lane_files(parent)}, change {lane_files(change)}")
for name in sorted(set(lane_files(parent)) & set(lane_files(change))):
    docs = []
    for side in (parent, change):
        with open(os.path.join(side, "lanes", name)) as f:
            d = json.load(f)
        d.pop("git_rev", None)
        docs.append(d)
    for d in differences(name, docs[0], docs[1]):
        different(d)

# Timings ("ns", "s") and the trace overhead ("frac") vary run to run;
# every other per-layer metric is a count or a ratio of counts.
timed = {"ns", "s", "frac"}

def perf(side):
    with open(os.path.join(side, "perf", "results.json")) as f:
        doc = json.load(f)
    out = {}
    for w in doc["workloads"]:
        counts = {k: v.get("value") for k, v in w["per_layer"].items()
                  if v.get("unit") not in timed}
        out[w["name"]] = {"sim_digest": w["sim_digest"], "per_layer": counts}
    return out

def alloc(side):
    with open(os.path.join(side, "perf", "results.json")) as f:
        doc = json.load(f)
    return {w["name"]: w["end_to_end"].get("alloc_words_per_quote", {}).get("median")
            for w in doc["workloads"]}

pa, ca = alloc(parent), alloc(change)
for name in pa:
    a, b = pa[name], ca.get(name)
    if a is not None and b is not None:
        print(f"tick_identity: info: {name} alloc_words_per_quote "
              f"{a:,.1f} -> {b:,.1f} ({(b - a) / a:+.1%})")

p, c = perf(parent), perf(change)
if sorted(p) != sorted(c):
    different(f"perf workloads: parent {sorted(p)}, change {sorted(c)}")
for name in sorted(set(p) & set(c)):
    for d in differences(name, p[name], c[name]):
        different(d)
if found:
    sys.exit(1)
print(f"tick_identity: equal: CLI matrix ({nmatrix} files), lane stdout, "
      f"{len(lane_files(parent))} lane files, {len(p)} perf workloads")
EOF
