#!/usr/bin/env python3
"""Compares a parent and a change result set of the benchmark.

    python3 .perfbench/compare.py PARENT_DIR CHANGE_DIR

Each directory holds the `<workload>-seed<n>-trace0.json` files run.py
writes to .perfbench/out/. A parent and a change run with the same workload
and seed form a pair; run them alternately (parent first for one seed,
change first for the next). For each workload and end-to-end metric of
BENCHMARK.json the verdict is:

  improved    at least 10 pairs, the change wins at least 9 in 10 of them
              (ties count for neither side), and the medians differ by more
              than the parent's interquartile range;
  regressed   the change's median is worse than the parent's by more than
              the metric's bound;
  unresolved  fewer than 10 pairs, the runs were not alternated, or the
              parent's own spread is wider than the bound and the change
              does not read better in every run;
  unchanged   otherwise.

Exits 1 when any metric regressed.
"""

import argparse
import json
import math
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import stats  # noqa: E402

MIN_PAIRS = 10
WIN_SHARE = 0.9


def load(directory):
    """{(workload, seed): result} for every untraced result in `directory`."""
    out = {}
    for f in sorted(Path(directory).glob("*-trace0.json")):
        r = json.loads(f.read_text())
        out[(r["workload"], r["seed"])] = r
    return out


def decide(parent, change, better, bound, alternated=True):
    """Verdict for one metric from paired values (parent[i] pairs change[i])."""
    n = len(parent)
    sign = 1.0 if better == "higher" else -1.0
    p_med = statistics.median(parent)
    c_med = statistics.median(change)
    gain = sign * (c_med - p_med)
    if n < MIN_PAIRS or not alternated:
        return "unresolved"
    if -gain > bound * abs(p_med):
        return "regressed"
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    q1, _, q3 = stats.quartiles(parent)
    if wins >= math.ceil(WIN_SHARE * n) and gain > q3 - q1:
        return "improved"
    every_run_better = min(sign * c for c in change) > max(sign * p for p in parent)
    if stats.relative_spread(parent) > bound and not every_run_better:
        return "unresolved"
    return "unchanged"


def spread(values):
    q1, med, q3 = stats.quartiles(values)
    return f"{med:.5g} [{q1:.5g}, {q3:.5g}]"


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--bench", default=str(HERE.parent / "BENCHMARK.json"))
    args = ap.parse_args()
    bench = json.loads(Path(args.bench).read_text())
    parent, change = load(args.parent), load(args.change)
    regressed = False
    print(f"{'workload':14s} {'metric':14s} {'pairs':>5s} {'parent median [q1, q3]':>32s} "
          f"{'change median [q1, q3]':>32s} {'wins':>5s}  verdict")
    for w in bench["workloads"]:
        keys = sorted(k for k in parent if k[0] == w["name"] and k in change)
        # Alternated: the parent ran first in about half the pairs.
        first = sum(1 for k in keys if parent[k].get("finished_unix", 0) < change[k].get("finished_unix", 0))
        alternated = abs(2 * first - len(keys)) <= 2
        for m in bench["end_to_end"]:
            p = [parent[k]["metrics"][m["name"]]["value"] for k in keys]
            c = [change[k]["metrics"][m["name"]]["value"] for k in keys]
            if not p:
                print(f"{w['name']:14s} {m['name']:14s} {0:5d} {'':>32s} {'':>32s} {'':>5s}  unresolved")
                continue
            verdict = decide(p, c, m["better"], m["bound"], alternated)
            regressed |= verdict == "regressed"
            sign = 1.0 if m["better"] == "higher" else -1.0
            wins = sum(1 for a, b in zip(p, c) if sign * (b - a) > 0)
            print(f"{w['name']:14s} {m['name']:14s} {len(keys):5d} {spread(p):>32s} "
                  f"{spread(c):>32s} {wins:5d}  {verdict}")
    sys.exit(1 if regressed else 0)


if __name__ == "__main__":
    main()
