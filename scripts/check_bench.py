#!/usr/bin/env python3
"""Check freshly written bench lane files against the committed ones.

Run from the repository root after `bench/main.exe --lane ...` has
rewritten the BENCH_*.json files in the working tree.  Every committed
lane file (one whose JSON has a "lane" field) is compared with the
version at HEAD:

  - simulated lanes are deterministic, so "params", "rows" and
    "results" must be exactly equal;
  - the wallclock lane's timings vary by machine, so only its row
    names and transaction counts must be equal.

"git_rev" and "command" describe the run, not its result, and are not
compared.  A missing file fails the check, so deleting the lane files
before a run proves that every lane wrote its file again.  Exits 1 and
names the first difference of each lane that differs.
"""

import json
import subprocess
import sys


def committed(path):
    out = subprocess.run(["git", "show", "HEAD:" + path], check=True,
                         capture_output=True, text=True).stdout
    return json.loads(out)


def first_difference(path, want, got):
    """The path and values of the first place where got differs."""
    if isinstance(want, dict) and isinstance(got, dict):
        for k in list(want) + [k for k in got if k not in want]:
            if want.get(k) != got.get(k):
                return first_difference(f"{path}.{k}", want.get(k), got.get(k))
    if isinstance(want, list) and isinstance(got, list) and len(want) == len(got):
        for i, (w, g) in enumerate(zip(want, got)):
            if w != g:
                return first_difference(f"{path}[{i}]", w, g)
    return f"{path} is {json.dumps(got)}, committed {json.dumps(want)}"


def main():
    paths = subprocess.run(["git", "ls-files", "BENCH_*.json"], check=True,
                           capture_output=True, text=True).stdout.split()
    failures = []
    for path in paths:
        want = committed(path)
        if "lane" not in want:
            continue
        try:
            with open(path) as f:
                got = json.load(f)
        except FileNotFoundError:
            failures.append(f"{path}: not written by this run")
            continue
        lane = want["lane"]
        if got.get("lane") != lane:
            failures.append(f"{path}: lane {got.get('lane')!r}, committed {lane!r}")
            continue
        if lane == "wallclock":
            def shape(d):
                return [(r["name"], r["transactions"]) for r in d["rows"]]
            compared = [("rows (name, transactions)", shape(want), shape(got))]
        else:
            compared = [(k, want[k], got[k]) for k in ("params", "rows", "results")]
        diffs = [first_difference(k, w, g) for k, w, g in compared if w != g]
        if diffs:
            failures.append(f"{path} ({lane}): " + diffs[0])
        else:
            print(f"{path} ({lane}): equal to the committed file")
    for f in failures:
        print("MISMATCH " + f)
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
