"""Paired comparison of two benchmark result sets.

Usage:  python3 perfbench/compare.py PARENT.jsonl CHANGE.jsonl

Each file holds the records ``run.py --results`` appends.  Make them by
running the parent checkout and the changed checkout alternately, with
the same seeds and --seconds, starting each pair with the other side.
Runs of the two sets are paired by (workload, seed).  For each workload
and end-to-end metric of BENCHMARK.json the tool prints each side's
median and quartiles, the share of pairs the change won (ties count for
neither side) and a verdict:

  better      the change won at least 9/10 of at least 10 pairs, and the
              medians differ by more than the parent's quartile distance;
  worse       the change's median is worse than the parent's by more than
              the metric's bound;
  unchanged   neither, and the parent's quartile distance is within the
              bound;
  unresolved  neither, and the parent's runs spread wider than the bound
              (unless every change run beat every parent run).

It also compares the SHA-256 of the outputs: commands of one set on the
same (workload, input) must agree, and a digest that differs between the sets
is a behaviour change.  Exit status 1 when any verdict is worse or any
digest differs, else 0.
"""
from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
MIN_PAIRS = 10
WIN_SHARE = 0.9


def load(path: str) -> dict:
    """(workload, seed) -> list of records, in file order."""
    runs = defaultdict(list)
    with open(path) as fh:
        for line in fh:
            if line.strip():
                rec = json.loads(line)
                runs[(rec["workload"], rec["seed"])].append(rec)
    return runs


def quartiles(values: list) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent: list, change: list, pairs: list, better: str,
            bound: float) -> tuple[str, float]:
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(1 for a, b in pairs if sign * (a - b) > 0)
    share = wins / len(pairs) if pairs else 0.0
    pq1, pmed, pq3 = quartiles(parent)
    cmed = statistics.median(change)
    gain = sign * (pmed - cmed)
    if (len(pairs) >= MIN_PAIRS and share >= WIN_SHARE
            and gain > pq3 - pq1):
        return "better", share
    if -gain > bound * abs(pmed):
        return "worse", share
    if better == "lower":
        dominates = max(change) < min(parent)
    else:
        dominates = min(change) > max(parent)
    if pq3 - pq1 <= bound * abs(pmed) or dominates:
        return "unchanged", share
    return "unresolved", share


def digests(runs: dict) -> dict:
    """(workload, input) -> set of output digests over all runs."""
    out = defaultdict(set)
    for (workload, _seed), records in runs.items():
        for rec in records:
            for c in rec["commands"]:
                if "digest" in c:
                    out[(workload, c["input"])].add(c["digest"])
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    args = ap.parse_args(argv)
    metrics = json.loads(BENCHMARK.read_text())["end_to_end"]
    parent, change = load(args.parent), load(args.change)
    status = 0

    p_digests, c_digests = digests(parent), digests(change)
    for label, found in (("parent", p_digests), ("change", c_digests)):
        for (workload, u), seen in sorted(found.items()):
            if len(seen) > 1:
                print(f"{label}: {workload} input {u}: outputs differ "
                      "between runs of one commit")
                status = 1
    for key in sorted(set(p_digests) & set(c_digests)):
        if p_digests[key] != c_digests[key]:
            print(f"behaviour change: {key[0]} input {key[1]}: output "
                  "digest differs between the sets")
            status = 1

    def plain(runs, workload):
        return {seed: [r for r in recs if r["trace"] == 0]
                for (w, seed), recs in runs.items() if w == workload}

    header = (f"{'workload':26} {'metric':13} {'parent q1/med/q3':>28} "
              f"{'change q1/med/q3':>28} {'pairs':>5} {'won':>5}  verdict")
    print(header)
    for workload in sorted({w for w, _ in parent} | {w for w, _ in change}):
        p_runs, c_runs = plain(parent, workload), plain(change, workload)
        for m in metrics:
            name = m["name"]

            def values(runs):
                return [r["metrics"][name]["value"]
                        for recs in runs.values() for r in recs]
            pv, cv = values(p_runs), values(c_runs)
            if not pv or not cv:
                print(f"{workload:26} {name:13} missing on one side")
                continue
            pairs = [(a["metrics"][name]["value"], b["metrics"][name]["value"])
                     for seed in sorted(set(p_runs) & set(c_runs))
                     for a, b in zip(p_runs[seed], c_runs[seed])]
            result, share = verdict(pv, cv, pairs, m["better"], m["bound"])
            if result == "worse":
                status = 1
            pq, cq = quartiles(pv), quartiles(cv)
            print(f"{workload:26} {name:13} "
                  f"{pq[0]:9.4g}/{pq[1]:8.4g}/{pq[2]:9.4g} "
                  f"{cq[0]:9.4g}/{cq[1]:8.4g}/{cq[2]:9.4g} "
                  f"{len(pairs):5d} {share:5.0%}  {result}")
    return status


if __name__ == "__main__":
    sys.exit(main())
