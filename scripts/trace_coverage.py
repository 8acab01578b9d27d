#!/usr/bin/env python3
"""Coverage of the traced commands in perfbench result records.

Reads the JSON lines that ``perfbench/run.py --trace 1 --results FILE``
appends, one record per run, and prints per traced command its
``cli.main`` time, the traced wall time outside it (interpreter start,
module imports, exit and the trace dump, less the tracer's own set-up,
``import_s``) and the coverage, ``cli.main`` over the traced wall time
less ``import_s``: the share that perfbench's trace self-check asks to
be at least 0.8.  The last lines give each workload's minimum coverage
over the commands read.

Usage:
    python scripts/trace_coverage.py FILE
"""
from __future__ import annotations

import argparse
import json


def coverage_rows(lines) -> list[tuple]:
    """(workload, seed, input, cli.main s, outside s, coverage) per traced
    command, in file order."""
    rows = []
    for line in lines:
        if not line.strip():
            continue
        record = json.loads(line)
        for command in record["commands"]:
            trace = command.get("trace")
            if trace is None:
                continue
            main_s = trace["spans"]["cli.main"]["incl_s"]
            wall_s = command["wall_s"] - trace["import_s"]
            rows.append((record["workload"], record["seed"],
                         command["input"], main_s, wall_s - main_s,
                         main_s / wall_s))
    return rows


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("results", help="a perfbench --results file")
    args = ap.parse_args()
    with open(args.results) as fh:
        rows = coverage_rows(fh)
    if not rows:
        print(f"no traced command in {args.results}")
        return 1
    print(f"{'workload':<26}{'seed':>5}{'input':>6}{'cli.main':>10}"
          f"{'outside':>9}{'coverage':>10}")
    for workload, seed, u, main_s, outside_s, cover in rows:
        print(f"{workload:<26}{seed:>5}{u:>6}{main_s:>10.3f}"
              f"{outside_s:>9.3f}{cover:>10.3f}")
    for workload in dict.fromkeys(r[0] for r in rows):
        covers = [r[-1] for r in rows if r[0] == workload]
        print(f"{workload}: minimum coverage {min(covers):.3f} over "
              f"{len(covers)} traced commands")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
