"""bisq benchmark: fixed CLI workloads, end-to-end metrics, per-layer trace.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--results FILE]

One run measures one workload for about S seconds.  It times the set-up
(interpreter start, ``import bisq`` and building the input graph) several
times, then runs the bisq CLI command, each time in a fresh process and on
a new input graph, while the next command is expected to fit in S.  The
i-th command's input u = STRIDE * seed + i picks its graph, so a seed
always gives the same inputs, and u = 0 gives the graphs listed in
perfbench/README.md.  The CLI's own --seed and constants are part of the
workload and stay fixed: the query count depends on the run seed alone,
and over run seeds it varies by up to 1.7x on estimate-gnp1024 (3.6e8 to
6.0e8 queries), with wall time following it (correlation 0.91).  Every
command's output is checked (see ``check_report``) and hashed; commands
on one input must write the same bytes.

--trace 0 prints the end-to-end metrics: the median command wall time,
the median set-up time and the largest command peak RSS.  --trace 1 runs
the first input untraced and then under perfbench/tracer.py, and prints
the per-layer metrics of the traced commands, plus the tracing overhead
against the untraced median.  Metric names and units come from
BENCHMARK.json.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  --results appends a detailed
record of the run (every command, digest, gate output and the
environment) as one JSON line to FILE, for compare.py.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MAX_COMMANDS = 60
STRIDE = MAX_COMMANDS     # seed s owns inputs STRIDE*s .. STRIDE*s + 59
SETUP_PROBES = 8          # timed set-up repetitions per run, after a warm-up
RUN_LIMIT_S = 170.0       # a run must end within 180 s
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1", "BISQ_THREADS": "1",
              "PYTHONHASHSEED": "0"}

CLIQUE_SIZES = [64] * 8 + [16] * 16
GNP8K = (8192, 0.001)

# spans every workload enters
_BASE_SPANS = ["cli.main", "graph.Graph.__init__"]
_PIPELINE_SPANS = _BASE_SPANS + [
    "cli.parse_gen_spec", "cli._dump", "cli._emit",
    "edge_estimator.run_pipeline", "edge_estimator.coarse_estimate",
    "edge_estimator.refine", "bitset.nested_rate_masks",
    "oracle.BisOracle.submit", "oracle.QueryPlan.validate",
    "oracle.SharedSubsampleBlock.evaluate", "oracle.DenseBlock.evaluate",
    "nbr_size.decode_ns"]
_SAMPLER_SPANS = [
    "edge_sampler.sample_edges_batch",
    "degree_est.estimate_degrees_with_neighbors",
    "element_recovery.build_neighbor_recovery",
    "element_recovery.NeighborRecovery.decode_pool",
    "oracle.SidesSubsampleBlock.evaluate"]


@dataclass(frozen=True)
class Workload:
    gen: Callable[[int], str]        # input -> generator spec ("" if none)
    args: Callable[[int], list]      # input -> CLI arguments before --out
    spans: tuple                     # spans the trace must enter

    @property
    def command(self) -> str:
        return self.args(0)[0]


def _gnp1024(u: int) -> str:
    return f"gnp:n=1024,p=0.01,seed={4 + u}"


def _gnp256(u: int) -> str:
    return f"gnp:n=256,p=0.003,seed={u}"


def _cliques768(u: int) -> str:
    """The 24 cliques, in the listed order for u = 0, else shuffled by u."""
    sizes = list(CLIQUE_SIZES)
    if u:
        random.Random(u).shuffle(sizes)
    return ("components:k=24,sizes=" + "+".join(map(str, sizes))
            + ",inner=clique")


WORKLOADS = {
    "estimate-gnp1024": Workload(
        _gnp1024,
        lambda u: ["estimate", "--gen", _gnp1024(u), "--epsilon", "0.25",
                   "--seed", "1", "--cT", "8", "--c2", "4",
                   "--clambda", "4", "--with-truth"],
        tuple(_PIPELINE_SPANS + ["graph.gen_gnp", "cli.cmd_estimate",
                                 "degree_est.estimate_degrees"])),
    "sample-gnp256": Workload(
        _gnp256,
        lambda u: ["sample", "--gen", _gnp256(u), "--count", "5000",
                   "--epsilon", "0.25", "--seed", "1", "--cT", "8",
                   "--c2", "1", "--clambda", "16", "--pool-scale", "4",
                   "--with-truth"],
        tuple(_PIPELINE_SPANS + _SAMPLER_SPANS
              + ["graph.gen_gnp", "cli.cmd_sample", "graph.Graph.has_edge"])),
    "connectivity-cliques768": Workload(
        _cliques768,
        lambda u: ["connectivity", "--gen", _cliques768(u), "--seed", "1",
                   "--cT", "8", "--c2", "1", "--clambda", "16",
                   "--pool-scale", "4", "--cnb", "2", "--with-truth"],
        tuple(_PIPELINE_SPANS + _SAMPLER_SPANS
              + ["graph.gen_family", "cli.cmd_connectivity",
                 "connectivity.is_connected",
                 "connectivity.round1_neighbor_sampling",
                 "connectivity.contract",
                 "connectivity.SupernodeOracle.submit",
                 "graph.exact_connected"])),
    "generate-gnp8k": Workload(
        lambda u: "",
        lambda u: ["generate", "gnp", "--n", str(GNP8K[0]),
                   "--p", str(GNP8K[1]), "--seed", str(1 + u)],
        tuple(_BASE_SPANS + ["graph.gen_gnp", "cli.cmd_generate",
                             "graph.dump_edge_list", "graph.Graph.edges"])),
}


# ---------------------------------------------------------------------------
# child processes
# ---------------------------------------------------------------------------

@dataclass
class Child:
    rc: int
    wall_s: float
    rss_mib: float
    cpu_s: float
    stderr: str


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env.update(THREAD_ENV)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_child(argv: list, limit_s: float, err_path: Path) -> Child:
    """Run argv to completion; wall time from spawn to exit, and its rusage.

    The child's standard error goes to err_path, inside the checkout.
    """
    with open(err_path, "w+b") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(),
                                stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        watchdog = threading.Timer(limit_s, os.kill,
                                   (proc.pid, signal.SIGKILL))
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        text = err.read().decode(errors="replace")
    return Child(rc=proc.returncode, wall_s=wall,
                 rss_mib=usage.ru_maxrss / 1024.0,
                 cpu_s=usage.ru_utime + usage.ru_stime, stderr=text[-2000:])


# ---------------------------------------------------------------------------
# correctness gates
# ---------------------------------------------------------------------------

def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def check_report(command: str, path: Path) -> tuple[list, dict]:
    """Gate one command's output file; returns (problems, recorded outputs).

    Gates hold on every seed; rel_error, tv_distance and success_rate are
    recorded, not gated.
    """
    problems: list[str] = []
    info: dict = {"digest": _digest(path), "report_bytes": path.stat().st_size,
                  "bis_count": 0, "rounds": 0, "n": 0}
    lines = path.read_text().splitlines()
    if command == "generate":
        header, edges = lines[0], lines[1:]
        info["n"] = int(header.split("=", 1)[1])
        info["m"] = len(edges)
        return problems, info
    summary = json.loads(lines[-1])
    trial = json.loads(lines[-2] if command == "sample" else lines[0])
    info.update(bis_count=trial["bis_count"], rounds=trial["rounds"],
                n=trial["n"])
    if command == "estimate":
        info.update(rel_error=trial["rel_error"],
                    success_rate=summary["success_rate"])
        if trial["rounds"] != 1:
            problems.append(f"estimate used {trial['rounds']} rounds, not 1")
        phases = sum(trial["per_phase_counts"].values())
        if phases != trial["bis_count"]:
            problems.append(f"per-phase counts sum to {phases}, "
                            f"bis_count is {trial['bis_count']}")
    elif command == "sample":
        info.update(tv_distance=summary["tv_distance"],
                    success_rate=summary["success_rate"])
        if trial["rounds"] != 1:
            problems.append(f"sampler used {trial['rounds']} rounds, not 1")
        if summary["non_edges"] != 0:
            problems.append(f"sampler returned {summary['non_edges']} "
                            "non-edges")
    elif command == "connectivity":
        info.update(verdict=trial["verdict"])
        if trial["rounds"] > 2:
            problems.append(f"connectivity used {trial['rounds']} rounds")
        if trial["verdict"] != "disconnected":
            problems.append("verdict is not 'disconnected' on a graph that "
                            "is disconnected by construction")
    return problems, info


_VERIFY_GRAPH = (
    "import sys, numpy as np\n"
    "from bisq.graph import gen_gnp, load_edge_list\n"
    "n, p, seed, path = int(sys.argv[1]), float(sys.argv[2]), "
    "int(sys.argv[3]), sys.argv[4]\n"
    "g = gen_gnp(n, p, seed)\n"
    "with open(path) as fh:\n"
    "    text = fh.read()\n"
    "h = load_edge_list(text)\n"
    "m_lines = sum(1 for line in text.splitlines() if not "
    "line.startswith('#'))\n"
    "same = (h.n == g.n and m_lines == g.m\n"
    "        and np.array_equal(h.adj_words, g.adj_words))\n"
    "sys.exit(0 if same else 1)\n")


def verify_graph_file(u: int, path: Path, info: dict, limit_s: float,
                      err_path: Path) -> list:
    """The written graph reads back with the generated graph's n and m."""
    n, p = GNP8K
    problems = []
    if info["n"] != n:
        problems.append(f"graph file declares n={info['n']}, expected {n}")
    child = run_child([sys.executable, "-c", _VERIFY_GRAPH, str(n), str(p),
                       str(1 + u), str(path)], limit_s, err_path)
    if child.rc != 0:
        problems.append("graph file does not read back as the generated "
                        f"graph (exit {child.rc}) {child.stderr.strip()}")
    return problems


# ---------------------------------------------------------------------------
# one run
# ---------------------------------------------------------------------------

_SETUP_CODE = ("import sys, bisq.cli\n"
               "if sys.argv[1]:\n"
               "    bisq.cli.parse_gen_spec(sys.argv[1])\n")


def _metric_units() -> tuple[dict, dict]:
    with open(ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    return ({m["name"]: m["unit"] for m in bench["end_to_end"]},
            {m["name"]: m["unit"] for m in bench["per_layer"]})


class Run:
    def __init__(self, name: str, seed: int, seconds: int, trace: bool,
                 work: Path):
        self.name, self.workload = name, WORKLOADS[name]
        self.first_input = STRIDE * seed
        self.seconds, self.trace, self.work = seconds, trace, work
        self.err_path = work / "stderr"
        self.t_start = time.perf_counter()
        self.setup: list[float] = []
        self.commands: list[dict] = []

    def left_s(self) -> float:
        return self.seconds - (time.perf_counter() - self.t_start)

    def limit_s(self) -> float:
        return max(5.0, RUN_LIMIT_S - (time.perf_counter() - self.t_start))

    def measure_setup(self) -> None:
        # the first start warms file caches and writes bytecode; not timed
        for i in range(SETUP_PROBES + 1):
            u = self.first_input + max(i - 1, 0)
            child = run_child([sys.executable, "-c", _SETUP_CODE,
                               self.workload.gen(u)], self.limit_s(),
                              self.err_path)
            if child.rc != 0:
                raise RuntimeError(f"set-up failed: {child.stderr.strip()}")
            if i:
                self.setup.append(child.wall_s)

    def command(self, u: int, traced: bool) -> dict:
        idx = len(self.commands)
        out = self.work / f"out-{idx}"
        cli = self.workload.args(u) + ["--out", str(out)]
        if traced:
            trace_path = self.work / f"trace-{idx}.json"
            argv = [sys.executable, tracer.__file__, str(trace_path), "--",
                    *cli]
        else:
            argv = [sys.executable, "-m", "bisq.cli", *cli]
        child = run_child(argv, self.limit_s(), self.err_path)
        rec = {"input": u, "traced": traced, "rc": child.rc,
               "wall_s": child.wall_s, "rss_mib": child.rss_mib,
               "cpu_s": child.cpu_s, "problems": []}
        if child.rc != 0:
            rec["problems"].append(f"exit {child.rc}: {child.stderr.strip()}")
        else:
            try:
                self.check(rec, u, out, trace_path if traced else None)
            except (OSError, ValueError, KeyError, IndexError) as exc:
                rec["problems"].append(f"unreadable output: {exc!r}")
        if out.exists():
            out.unlink()
        self.commands.append(rec)
        print(f"{self.name} input={u} traced={int(traced)} "
              f"wall={child.wall_s:.3f}s rss={child.rss_mib:.1f}MiB "
              f"problems={rec['problems']}", file=sys.stderr)
        return rec

    def check(self, rec: dict, u: int, out: Path,
              trace_path: Optional[Path]) -> None:
        problems, info = check_report(self.workload.command, out)
        rec["problems"] += problems
        rec.update(info)
        first = not any(c["input"] == u for c in self.commands)
        if self.workload.command == "generate" and first:
            rec["problems"] += verify_graph_file(u, out, info, self.limit_s(),
                                                 self.err_path)
        if trace_path is not None:
            trace = json.loads(trace_path.read_text())
            rec["problems"] += tracer.self_check(
                trace, list(self.workload.spans), rec["wall_s"])
            rec["trace"] = trace

    def timed_command(self, u: int, traced: bool) -> float:
        """Run one command; its cost including gates, in seconds."""
        t0 = time.perf_counter()
        self.command(u, traced)
        return time.perf_counter() - t0

    def measure_commands(self) -> None:
        if not self.trace:
            costs: list[float] = []
            while len(self.commands) < MAX_COMMANDS:
                u = self.first_input + len(self.commands)
                costs.append(self.timed_command(u, traced=False))
                if self.left_s() < statistics.median(costs):
                    return
            return
        # trace mode: the first input only, untraced then traced, leaving
        # room for at least one traced command (~1.1-1.2x untraced)
        u = self.first_input
        last = self.timed_command(u, traced=False)
        while (len(self.commands) < MAX_COMMANDS // 2
               and self.left_s() > 2.5 * last):
            last = self.timed_command(u, traced=False)
        last = self.timed_command(u, traced=True)
        while len(self.commands) < MAX_COMMANDS and self.left_s() > last:
            last = self.timed_command(u, traced=True)

    def check_determinism(self) -> None:
        """Commands on one input, traced or not, must write the same bytes."""
        first: dict = {}
        for c in self.commands:
            if "digest" not in c:
                continue
            ref = first.setdefault(c["input"], c["digest"])
            if c["digest"] != ref:
                c["problems"].append(
                    f"input {c['input']}: output digest differs from the "
                    "first command's" + (" (traced)" if c["traced"] else ""))

    def metrics(self) -> Optional[dict]:
        """Metric values, or None when no command produced output."""
        plain = [c for c in self.commands if not c["traced"]]
        done = [c for c in plain if "digest" in c]
        traced = [c for c in self.commands if "trace" in c]
        if not done or (self.trace and not traced):
            return None
        wall = statistics.median(c["wall_s"] for c in plain)
        if not self.trace:
            # peak RSS is set by the input, not by timing noise, and the
            # largest one is what has to fit in memory
            return {"wall_s": wall,
                    "setup_s": statistics.median(self.setup),
                    "peak_rss_mib": max(c["rss_mib"] for c in done)}
        per_cmd = []
        for c in traced:
            values = tracer.layer_metrics(c["trace"])
            pairs = c["n"] * (c["n"] - 1) // 2
            values.update({
                "bis_count": c["bis_count"], "rounds": c["rounds"],
                "query_ratio": c["bis_count"] / pairs if pairs else 0.0,
                "cli.report_bytes": c["report_bytes"],
                "trace.wall_s": c["wall_s"],
                "trace.overhead_s": c["wall_s"] - wall})
            per_cmd.append(values)
        return {k: statistics.median(v[k] for v in per_cmd)
                for k in per_cmd[0]}


def environment() -> dict:
    """Interpreter, library, thread and CPU facts the children ran with."""
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    info = {"python": sys.version.split()[0], "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "threads_env": THREAD_ENV, "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0))}
    try:
        with open("/proc/cpuinfo") as fh:
            info["cpu"] = next(line.split(":", 1)[1].strip() for line in fh
                               if line.startswith("model name"))
        info["l3"] = Path("/sys/devices/system/cpu/cpu0/cache/index3/size"
                          ).read_text().strip()
    except (OSError, StopIteration):
        pass
    return info


def main(argv: Optional[list] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--results", help="append a detailed JSON record here")
    args = ap.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")
    if not (SRC / "bisq" / "cli.py").is_file():
        print(f"perfbench: no bisq sources under {SRC}", file=sys.stderr)
        return 2
    e2e_units, layer_units = _metric_units()

    build = ROOT / ".bench_build"
    build.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="perfbench-", dir=build))
    run = Run(args.workload, args.seed, args.seconds, bool(args.trace), work)
    try:
        run.measure_setup()
        run.measure_commands()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    run.check_determinism()

    values = run.metrics()
    if values is None:
        print("perfbench: no command produced output", file=sys.stderr)
        return 1
    units = layer_units if args.trace else e2e_units
    if set(values) != set(units):
        print(f"perfbench: computed metrics {sorted(values)} do not match "
              f"BENCHMARK.json {sorted(units)}", file=sys.stderr)
        return 2
    failed = sum(1 for c in run.commands if c["problems"])
    for c in run.commands:
        for problem in c["problems"]:
            print(f"perfbench: FAILED {problem}", file=sys.stderr)
    result = {"correct": failed == 0, "attempted": len(run.commands),
              "failed": failed,
              "metrics": {k: {"value": values[k], "unit": units[k]}
                          for k in sorted(units)}}
    if args.results:
        record = {"workload": args.workload, "seed": args.seed,
                  "seconds": args.seconds, "trace": args.trace,
                  "setup_s": run.setup, "commands": run.commands,
                  "environment": environment(), **result}
        with open(args.results, "a") as fh:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
