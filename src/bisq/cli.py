"""Command-line front end: graph generation, seeded trial campaigns for the
estimator / sampler / connectivity pipelines, and dry-run complexity audits.

Reports are JSON lines (one record per trial plus a summary line); byte
reproducibility for a fixed config is part of the contract, so records
carry no clocks.  BISQ_THREADS caps the trial worker pool.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
from collections import Counter
from dataclasses import dataclass, field, fields
from typing import Optional

import numpy as np

from . import audit, params
from .connectivity import is_connected
from .edge_estimator import run_pipeline
from .edge_sampler import OK, STATUSES, sample_edges_batch
from .errors import BisqError
from .graph import (Graph, dump_edge_list, exact_connected, gen_family,
                    gen_gnp, load_edge_list)
from .oracle import BisOracle
from .params import Constants


@dataclass
class RunConfig:
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
            value = getattr(self.constants, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(
                    f"constant {name} must be finite and positive")


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
            elif key == "p":
                kw[key] = float(val)
            elif key == "inner":
                kw[key] = val
            else:
                kw[key] = int(val)
    return _generate(kind, kw, "--gen gnp: missing n")


def _generate(kind: str, kw: dict, missing_n: str) -> Graph:
    """gen_gnp for gnp (which needs n), gen_family for every other kind."""
    if kind == "gnp":
        if "n" not in kw:
            raise ValueError(missing_n)
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
    batch = sample_edges_batch(oracle, cfg.count, cfg.epsilon,
                               (cfg.seed, "trial", i), cfg.profile,
                               cfg.constants)
    delta = oracle.ledger.snapshot()
    ok = batch.ok
    v, u = batch.vertex[ok], batch.neighbor[ok]
    is_edge = g.has_edge(v, u) if cfg.with_truth else np.ones(v.size, bool)
    edges = zip(v.tolist(), u.tolist(), is_edge.tolist())
    samples = []
    for idx, (code, weight) in enumerate(zip(batch.status.tolist(),
                                             batch.weight.tolist())):
        rec = {"seed": cfg.seed, "sample_index": idx,
               "status": STATUSES[code], "weight": weight}
        if STATUSES[code] == OK:
            rec["v"], rec["u"], edge = next(edges)
            if cfg.with_truth:
                rec["is_edge"] = edge
        samples.append(rec)
    summary = {"trial": i, "n": g.n, "requested": cfg.count,
               "successes": int(v.size),
               "bis_count": delta["bis_count"],
               "rounds": delta["round_count"]}
    if cfg.with_truth and g.m and v.size:
        # ok draws per unordered pair, keyed as the graph keys its edges;
        # TV sums run over the edge keys in order, then over the non-edge
        # pairs in first-drawn order
        keys = np.minimum(v, u) * g.n + np.maximum(v, u)
        pairs, counts = np.unique(keys[is_edge], return_counts=True)
        per_edge = np.zeros(g.m, dtype=np.int64)
        per_edge[np.searchsorted(g.edge_keys, pairs)] = counts
        _, first, off = np.unique(keys[~is_edge], return_index=True,
                                  return_counts=True)
        total = v.size
        tv = 0.5 * sum(abs(c / total - 1.0 / g.m) for c in per_edge.tolist())
        tv += 0.5 * sum(c / total for c in off[np.argsort(first)].tolist())
        summary["tv_distance"] = tv
        summary["non_edges"] = int(off.sum())
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
        # imported here: the pool's modules cost every other command
        # memory and start-up time
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fn, jobs))
    return [fn(j) for j in jobs]


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _emit(text: str, out: Optional[str]) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _summary(command: str, cfg: RunConfig, trials: list[dict]) -> dict:
    """The summary keys every campaign reports, over per-trial records."""
    return {"command": command, "trials": cfg.trials,
            "mean_bis_count": float(np.mean([t["bis_count"] for t in trials])),
            "rounds_histogram": dict(Counter(t["rounds"] for t in trials))}


def _report(cfg: RunConfig, records: list[dict], summary: dict) -> int:
    """One JSON line per record, the summary line, then its CSV form."""
    lines = [_dump(r) for r in records]
    lines.append(_dump(summary))
    if cfg.csv:
        keys = sorted(summary)
        lines.append(",".join(keys))
        lines.append(",".join(str(summary[k]) for k in keys))
    _emit("\n".join(lines) + "\n", cfg.out)
    return 0


def cmd_generate(args) -> int:
    kw = {name: getattr(args, name)
          for name in ("n", "k", "size", "a", "b", "p", "seed")
          if getattr(args, name) is not None}
    if args.sizes:
        kw["sizes"] = [int(x) for x in args.sizes.split("+")]
    if args.inner:
        kw["inner"] = args.inner
    g = _generate(args.kind, kw, "generate gnp: missing --n")
    _emit(dump_edge_list(g), args.out)
    return 0


def cmd_estimate(cfg: RunConfig) -> int:
    records = _run_trials(_estimate_trial, load_graph(cfg), cfg)
    summary = _summary("estimate", cfg, records)
    if cfg.with_truth:
        errs = [r["rel_error"] for r in records]
        summary["mean_rel_error"] = float(np.mean(errs))
        summary["success_rate"] = float(np.mean(
            [e <= cfg.epsilon for e in errs]))
    return _report(cfg, records, summary)


def cmd_sample(cfg: RunConfig) -> int:
    results = _run_trials(_sample_trial, load_graph(cfg), cfg)
    trials = [summary for _, summary in results]
    summary = _summary("sample", cfg, trials)
    summary["success_rate"] = float(np.mean(
        [t["successes"] / t["requested"] for t in trials]))
    judged = [t for t in trials if "tv_distance" in t]
    if judged:
        summary["tv_distance"] = float(np.mean(
            [t["tv_distance"] for t in judged]))
        summary["non_edges"] = int(sum(t["non_edges"] for t in judged))
    records = [s for samples, _ in results for s in samples]
    return _report(cfg, records + trials, summary)


def cmd_connectivity(cfg: RunConfig) -> int:
    records = _run_trials(_connectivity_trial, load_graph(cfg), cfg)
    summary = _summary("connectivity", cfg, records)
    if cfg.with_truth:
        summary["accuracy"] = float(np.mean([r["correct"] for r in records]))
    return _report(cfg, records, summary)


def cmd_audit(cfg: RunConfig, n_grid: list[int]) -> int:
    c = cfg.constants
    est_rows = audit.estimator_audit(n_grid, cfg.epsilon, c)
    tables = [("ns", "n", audit.ns_audit(n_grid, cfg.epsilon, cfg.delta, c)),
              ("estimator", "n", est_rows),
              ("ser", "domain", audit.ser_audit(n_grid, cfg.delta, c))]
    lines = [_dump({"audit": kind, key: row.n, "planned": row.planned,
                    "target": row.target, "ratio": row.ratio})
             for kind, key, rows in tables for row in rows]
    lines.append(_dump({"audit": "summary",
                        "estimator_ratio_band": audit.ratio_band(est_rows)}))
    _emit("\n".join(lines) + "\n", cfg.out)
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _add_plan_flags(p: argparse.ArgumentParser) -> None:
    """The flags every planning command reads: epsilon, constants, --out."""
    p.add_argument("--epsilon", type=float, default=0.25)
    p.add_argument("--out", help="output path (default stdout)")
    p.add_argument("--c2", type=float)
    p.add_argument("--cT", type=float)
    p.add_argument("--clambda", type=float)
    p.add_argument("--cR", type=float)
    p.add_argument("--cnb", type=float)
    p.add_argument("--cse", type=float)
    p.add_argument("--pool-scale", type=float)


def _add_run_flags(p: argparse.ArgumentParser) -> None:
    """The flags of the commands that run trials on a graph."""
    p.add_argument("--graph", dest="graph_path", metavar="GRAPH",
                   help="edge-list file path")
    p.add_argument("--gen", dest="gen_spec", metavar="GEN",
                   help="generator spec, e.g. gnp:n=1024,p=0.01")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--profile", choices=[params.FAST, params.PAPER],
                   default=params.FAST)
    p.add_argument("--trials", type=int, default=1)
    p.add_argument("--with-truth", action="store_true",
                   help="embed exact ground truth in reports")
    p.add_argument("--csv", action="store_true",
                   help="append a CSV flattening of the summary row")


_CONFIG_FLAGS = frozenset(f.name for f in fields(RunConfig)) - {"constants"}


def _config_from(args) -> RunConfig:
    constants = Constants().with_overrides(
        c2=args.c2, c_T=args.cT, c_lambda=args.clambda,
        c_R=args.cR, c_nb=args.cnb, c_se=args.cse,
        ser_pool_scale=args.pool_scale)
    # each command has only the flags it reads (only sample has --count,
    # only audit --delta), and the others keep their defaults
    cfg = RunConfig(constants=constants,
                    **{k: v for k, v in vars(args).items()
                       if k in _CONFIG_FLAGS})
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
        _add_plan_flags(p)
        _add_run_flags(p)
        if name == "sample":
            p.add_argument("--count", type=int, default=1,
                           help="draws per trial")

    aud = sub.add_parser("audit", help="dry-run complexity table")
    _add_plan_flags(aud)
    aud.add_argument("--delta", type=float, default=0.1)
    aud.add_argument("--n-grid", default="256,512,1024,2048,4096",
                     help="comma-separated sizes")
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "generate":
            return cmd_generate(args)
        cfg = _config_from(args)
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
