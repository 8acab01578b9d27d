#!/usr/bin/env python3
"""Wall time, peak RSS and report digest of a bisq command as n grows.

For each n, runs one command with run seed 1, each in a fresh
interpreter with one BLAS/OpenMP thread, and prints its wall time, its
own max RSS (from ``os.wait4``) and the SHA-256 of its report.  Equal
digests across two checkouts mean equal reports.  Standard library only.
The modes:

- estimate: ``bisq estimate`` on gnp:n=N,p=10/N,seed=1 (mean degree 10)
  with the acceptance suite's estimate constants (--cT 8 --c2 4
  --clambda 4);
- connectivity: ``bisq connectivity`` on four disjoint paths of N/4
  vertices each (components:k=4,size=N/4,inner=path) with the
  connectivity tests' constants (--cT 8 --c2 1 --clambda 16
  --pool-scale 4 --cnb 2 --cR 2): round 1 plans one recovery block per
  vertex, and round 2 runs the sampler on the four supernodes.

Usage:
    python scripts/estimate_scaling.py [--mode estimate|connectivity]
                                       [--n 4096,8192,16384] [--src DIR]
"""
from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
import time
from pathlib import Path

THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1", "BISQ_THREADS": "1"}


def estimate_argv(n: int) -> list:
    return [sys.executable, "-m", "bisq.cli", "estimate", "--gen",
            f"gnp:n={n},p={10 / n!r},seed=1", "--seed", "1",
            "--cT", "8", "--c2", "4", "--clambda", "4"]


def connectivity_argv(n: int) -> list:
    return [sys.executable, "-m", "bisq.cli", "connectivity", "--gen",
            f"components:k=4,size={n // 4},inner=path", "--seed", "1",
            "--cT", "8", "--c2", "1", "--clambda", "16", "--pool-scale", "4",
            "--cnb", "2", "--cR", "2"]


MODES = {"estimate": estimate_argv, "connectivity": connectivity_argv}


def run(argv: list, env: dict) -> tuple[float, float, str, int]:
    """(wall s, max RSS MiB, report SHA-256, exit code) of one child."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, env=env, stdout=subprocess.PIPE)
    report = proc.stdout.read()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    # ru_maxrss is in KiB on Linux
    return (wall, usage.ru_maxrss / 1024, hashlib.sha256(report).hexdigest(),
            proc.returncode)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--mode", choices=sorted(MODES), default="estimate",
                    help="the command to scale")
    ap.add_argument("--n", default="4096,8192,16384",
                    help="comma-separated vertex counts")
    ap.add_argument("--src", default=str(Path(__file__).resolve().parents[1]
                                         / "src"),
                    help="the package source directory to run")
    args = ap.parse_args()
    env = dict(os.environ, PYTHONPATH=args.src, **THREAD_ENV)
    failed = 0
    print(f"{'n':>7}  {'wall_s':>8}  {'max_rss_mib':>11}  report_sha256")
    for n in (int(x) for x in args.n.split(",")):
        wall, rss, digest, code = run(MODES[args.mode](n), env)
        failed += code != 0
        print(f"{n:>7}  {wall:>8.2f}  {rss:>11.1f}  {digest}"
              + (f"  (exit {code})" if code else ""), flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
