"""Command-line front end: graph generation, seeded trial campaigns for the
estimator / sampler / connectivity pipelines, and dry-run complexity audits.

Reports are JSON lines (one record per trial plus a summary line); byte
reproducibility for a fixed config is part of the contract, so records
carry no clocks.  BISQ_THREADS caps the trial worker pool.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import audit, params
from .connectivity import is_connected
from .edge_estimator import run_pipeline
from .edge_sampler import OK, sample_edges_batch
from .errors import BisqError
from .graph import (Graph, dump_edge_list, exact_connected, gen_family,
                    gen_gnp, load_edge_list)
from .oracle import BisOracle
from .params import Constants


@dataclass
class RunConfig:
    command: str
    graph_path: Optional[str] = None
    gen_spec: Optional[str] = None
    epsilon: float = 0.25
    delta: float = 0.1
    seed: int = 0
    profile: str = params.FAST
    trials: int = 1
    count: int = 1
    out: Optional[str] = None
    with_truth: bool = False
    csv: bool = False
    constants: Constants = field(default_factory=Constants)

    def validate(self) -> None:
        if not 0 < self.epsilon <= 0.5:
            raise ValueError("--epsilon must lie in (0, 0.5]")
        if not 0 < self.delta <= 0.5:
            raise ValueError("--delta must lie in (0, 0.5]")
        if self.profile not in (params.FAST, params.PAPER):
            raise ValueError("--profile must be fast or paper")
        if self.trials < 1 or self.count < 1:
            raise ValueError("--trials and --count must be >= 1")
        for name in ("c2", "c_T", "c_lambda", "c_R", "c_nb", "c_se",
                     "ser_pool_scale"):
            if getattr(self.constants, name) <= 0:
                raise ValueError(f"constant {name} must be positive")


_GNP_KEYS = frozenset({"n", "p", "seed"})
_FAMILY_KEYS = frozenset({"n", "a", "b", "k", "size", "sizes", "inner", "p",
                          "seed"})


def parse_gen_spec(spec: str) -> Graph:
    """Build a graph from "kind:key=value,..." (e.g. gnp:n=1024,p=0.01).

    Raises ValueError on an unknown key or a gnp spec without n.
    """
    kind, _, rest = spec.partition(":")
    allowed = _GNP_KEYS if kind == "gnp" else _FAMILY_KEYS
    kw: dict = {}
    if rest:
        for item in rest.split(","):
            key, _, val = item.partition("=")
            key = key.strip()
            if key not in allowed:
                raise ValueError(f"--gen {kind}: unknown key {key!r}")
            if key == "sizes":
                kw[key] = [int(x) for x in val.split("+")]
            elif key in ("p",):
                kw[key] = float(val)
            elif key in ("inner",):
                kw[key] = val
            else:
                kw[key] = int(val)
    if kind == "gnp":
        if "n" not in kw:
            raise ValueError("--gen gnp: missing n")
        return gen_gnp(kw["n"], kw.get("p", 0.5), kw.get("seed", 0))
    return gen_family(kind, **kw)


def load_graph(cfg: RunConfig) -> Graph:
    if cfg.graph_path:
        with open(cfg.graph_path) as fh:
            return load_edge_list(fh.read())
    if cfg.gen_spec:
        return parse_gen_spec(cfg.gen_spec)
    raise ValueError("need --graph PATH or --gen SPEC")


# ---------------------------------------------------------------------------
# per-trial workers (module level so process pools can pickle them)
# ---------------------------------------------------------------------------

def _estimate_trial(args):
    g, cfg, i = args
    oracle = BisOracle(g)
    result = run_pipeline(oracle, cfg.epsilon, (cfg.seed, "trial", i),
                          cfg.profile, cfg.constants)
    delta = result.ledger_delta
    rec = {
        "trial": i,
        "n": g.n,
        "m_hat": result.m_hat,
        "epsilon": cfg.epsilon,
        "profile": cfg.profile,
        "seed": cfg.seed,
        "bis_count": delta["bis_count"],
        "rounds": delta["round_count"],
        "per_phase_counts": dict(sorted(delta["phases"].items())),
        "refine_trace": result.refine_trace,
    }
    if cfg.with_truth:
        rec["m_true"] = g.m
        rec["rel_error"] = abs(result.m_hat - g.m) / max(g.m, 1)
    return rec


def _sample_trial(args):
    g, cfg, i = args
    oracle = BisOracle(g)
    outputs = sample_edges_batch(oracle, cfg.count, cfg.epsilon,
                                 (cfg.seed, "trial", i), cfg.profile,
                                 cfg.constants)
    delta = oracle.ledger.snapshot()
    samples = []
    for idx, out in enumerate(outputs):
        rec = {"seed": cfg.seed, "sample_index": idx, "status": out.status,
               "weight": out.weight}
        if out.edge is not None:
            rec["v"], rec["u"] = int(out.edge[0]), int(out.edge[1])
            if cfg.with_truth:
                rec["is_edge"] = bool(g.has_edge(*out.edge))
        samples.append(rec)
    summary = {"trial": i, "n": g.n, "requested": cfg.count,
               "successes": sum(1 for o in outputs if o.status == OK),
               "bis_count": delta["bis_count"],
               "rounds": delta["round_count"]}
    if cfg.with_truth and g.m:
        freq = Counter()
        for out in outputs:
            if out.status == OK:
                freq[tuple(sorted(out.edge))] += 1
        total = sum(freq.values())
        if total:
            tv = 0.5 * sum(abs(freq.get(e, 0) / total - 1.0 / g.m)
                           for e in g.edges())
            tv += 0.5 * sum(c / total for e, c in freq.items()
                            if not g.has_edge(*e))
            summary["tv_distance"] = tv
            summary["non_edges"] = sum(1 for o in outputs if o.status == OK
                                       and not g.has_edge(*o.edge))
    return samples, summary


def _connectivity_trial(args):
    g, cfg, i = args
    oracle = BisOracle(g)
    rep = is_connected(oracle, (cfg.seed, "trial", i), cfg.constants,
                       cfg.epsilon, cfg.profile)
    rec = {"trial": i, "n": g.n,
           "verdict": "connected" if rep.connected else "disconnected",
           "rounds": rep.rounds, "bis_count": rep.bis_count,
           "p_supernodes": rep.p_supernodes,
           "superedges_recovered": rep.superedges_recovered}
    if cfg.with_truth:
        truth, _ = exact_connected(g)
        rec["truth"] = "connected" if truth else "disconnected"
        rec["correct"] = (truth == rep.connected)
    return rec


def _run_trials(fn, g: Graph, cfg: RunConfig):
    jobs = [(g, cfg, i) for i in range(cfg.trials)]
    workers = int(os.environ.get("BISQ_THREADS", "1"))
    if workers > 1 and cfg.trials > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fn, jobs))
    return [fn(j) for j in jobs]


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _emit(lines: list[str], out: Optional[str]) -> None:
    text = "\n".join(lines) + "\n"
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _csv_row(summary: dict) -> list[str]:
    keys = sorted(summary)
    return [",".join(keys),
            ",".join(str(summary[k]) for k in keys)]


def cmd_generate(args) -> int:
    kw = {}
    for name in ("n", "k", "size", "a", "b"):
        val = getattr(args, name)
        if val is not None:
            kw[name] = val
    if args.sizes:
        kw["sizes"] = [int(x) for x in args.sizes.split("+")]
    if args.inner:
        kw["inner"] = args.inner
    if args.kind == "gnp":
        if args.n is None:
            raise ValueError("generate gnp: missing --n")
        g = gen_gnp(args.n, args.p, args.seed)
    else:
        g = gen_family(args.kind, seed=args.seed, p=args.p, **kw)
    text = dump_edge_list(g)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_estimate(cfg: RunConfig) -> int:
    g = load_graph(cfg)
    records = _run_trials(_estimate_trial, g, cfg)
    lines = [_dump(r) for r in records]
    summary = {"command": "estimate", "trials": cfg.trials,
               "mean_bis_count": float(np.mean([r["bis_count"] for r in records])),
               "rounds_histogram": dict(Counter(r["rounds"] for r in records))}
    if cfg.with_truth:
        errs = [r["rel_error"] for r in records]
        summary["mean_rel_error"] = float(np.mean(errs))
        summary["success_rate"] = float(np.mean(
            [e <= cfg.epsilon for e in errs]))
    lines.append(_dump(summary))
    if cfg.csv:
        lines.extend(_csv_row(summary))
    _emit(lines, cfg.out)
    return 0


def cmd_sample(cfg: RunConfig) -> int:
    g = load_graph(cfg)
    results = _run_trials(_sample_trial, g, cfg)
    lines = []
    summaries = []
    for samples, summary in results:
        lines.extend(_dump(s) for s in samples)
        summaries.append(summary)
    total = {"command": "sample", "trials": cfg.trials,
             "success_rate": float(np.mean(
                 [s["successes"] / s["requested"] for s in summaries])),
             "mean_bis_count": float(np.mean(
                 [s["bis_count"] for s in summaries])),
             "rounds_histogram": dict(Counter(
                 s["rounds"] for s in summaries))}
    if cfg.with_truth and any("tv_distance" in s for s in summaries):
        total["tv_distance"] = float(np.mean(
            [s["tv_distance"] for s in summaries if "tv_distance" in s]))
        total["non_edges"] = int(sum(
            s.get("non_edges", 0) for s in summaries))
    lines.extend(_dump(s) for s in summaries)
    lines.append(_dump(total))
    if cfg.csv:
        lines.extend(_csv_row(total))
    _emit(lines, cfg.out)
    return 0


def cmd_connectivity(cfg: RunConfig) -> int:
    g = load_graph(cfg)
    records = _run_trials(_connectivity_trial, g, cfg)
    lines = [_dump(r) for r in records]
    summary = {"command": "connectivity", "trials": cfg.trials,
               "mean_bis_count": float(np.mean(
                   [r["bis_count"] for r in records])),
               "rounds_histogram": dict(Counter(
                   r["rounds"] for r in records))}
    if cfg.with_truth:
        summary["accuracy"] = float(np.mean([r["correct"] for r in records]))
    lines.append(_dump(summary))
    if cfg.csv:
        lines.extend(_csv_row(summary))
    _emit(lines, cfg.out)
    return 0


def cmd_audit(cfg: RunConfig, n_grid: list[int]) -> int:
    c = cfg.constants
    lines = []
    for row in audit.ns_audit(n_grid, cfg.epsilon, cfg.delta, c):
        lines.append(_dump({"audit": "ns", "n": row.n, "planned": row.planned,
                            "target": row.target, "ratio": row.ratio}))
    est_rows = audit.estimator_audit(n_grid, cfg.epsilon, c)
    for row in est_rows:
        lines.append(_dump({"audit": "estimator", "n": row.n,
                            "planned": row.planned, "target": row.target,
                            "ratio": row.ratio}))
    for row in audit.ser_audit(n_grid, cfg.delta, c):
        lines.append(_dump({"audit": "ser", "domain": row.n,
                            "planned": row.planned, "target": row.target,
                            "ratio": row.ratio}))
    lines.append(_dump({"audit": "summary",
                        "estimator_ratio_band": audit.ratio_band(est_rows)}))
    _emit(lines, cfg.out)
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--graph", help="edge-list file path")
    p.add_argument("--gen", help="generator spec, e.g. gnp:n=1024,p=0.01")
    p.add_argument("--epsilon", type=float, default=0.25)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--profile", choices=[params.FAST, params.PAPER],
                   default=params.FAST)
    p.add_argument("--trials", type=int, default=1)
    p.add_argument("--out", help="output path (default stdout)")
    p.add_argument("--with-truth", action="store_true",
                   help="embed exact ground truth in reports")
    p.add_argument("--csv", action="store_true",
                   help="append a CSV flattening of the summary row")
    p.add_argument("--c2", type=float)
    p.add_argument("--cT", type=float)
    p.add_argument("--clambda", type=float)
    p.add_argument("--cR", type=float)
    p.add_argument("--cnb", type=float)
    p.add_argument("--cse", type=float)
    p.add_argument("--pool-scale", type=float)


def _config_from(args, command: str) -> RunConfig:
    constants = Constants().with_overrides(
        c2=args.c2, c_T=args.cT, c_lambda=args.clambda,
        c_R=args.cR, c_nb=args.cnb, c_se=args.cse,
        ser_pool_scale=args.pool_scale)
    # only sample has --count and only audit has --delta
    own = {k: getattr(args, k) for k in ("count", "delta") if k in args}
    cfg = RunConfig(command=command, graph_path=args.graph,
                    gen_spec=args.gen, epsilon=args.epsilon, seed=args.seed,
                    profile=args.profile, trials=args.trials, out=args.out,
                    with_truth=args.with_truth, csv=args.csv,
                    constants=constants, **own)
    cfg.validate()
    return cfg


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="bisq")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write an edge-list file")
    gen.add_argument("kind", choices=["gnp", "star", "path", "clique",
                                      "cycle", "complete_bipartite",
                                      "components"])
    gen.add_argument("--n", type=int)
    gen.add_argument("--p", type=float, default=0.5)
    gen.add_argument("--k", type=int)
    gen.add_argument("--size", type=int)
    gen.add_argument("--sizes", help="block sizes joined by '+', e.g. 4+4+4")
    gen.add_argument("--a", type=int)
    gen.add_argument("--b", type=int)
    gen.add_argument("--inner", help="block topology for components")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out")

    for name in ("estimate", "sample", "connectivity"):
        p = sub.add_parser(name)
        _add_common(p)
        if name == "sample":
            p.add_argument("--count", type=int, default=1,
                           help="draws per trial")

    aud = sub.add_parser("audit", help="dry-run complexity table")
    _add_common(aud)
    aud.add_argument("--delta", type=float, default=0.1)
    aud.add_argument("--n-grid", default="256,512,1024,2048,4096",
                     help="comma-separated sizes")
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "generate":
            return cmd_generate(args)
        cfg = _config_from(args, args.command)
        if args.command == "estimate":
            return cmd_estimate(cfg)
        if args.command == "sample":
            return cmd_sample(cfg)
        if args.command == "connectivity":
            return cmd_connectivity(cfg)
        if args.command == "audit":
            grid = [int(x) for x in args.n_grid.split(",")]
            return cmd_audit(cfg, grid)
    except (BisqError, ValueError, OSError, MemoryError) as exc:
        print(f"bisq: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
