"""Outside-in span tracer for one bisq CLI run.

Usage:  python3 perfbench/tracer.py TRACE.json -- <bisq CLI arguments>

The tracer imports bisq, wraps the functions listed in SPANS at every
place bisq bound them (module attributes, names other modules took with
``from x import y``, and class attributes), then calls ``bisq.cli.main``.
Nothing in bisq is edited.  When the command returns it writes, per span:
calls, inclusive seconds, self seconds (inclusive minus the time covered
by traced children) and raised exceptions; per (parent, child) pair the
child's inclusive seconds; and the layer counters the probes collect.

Importing this module does not import bisq; run.py imports it for
SPANS and ``layer_metrics``.
"""
from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict

# (span name, module, attribute path).  Names are "<module>.<attribute>".
SPANS = [
    ("cli.main", "bisq.cli", "main"),
    ("cli.cmd_estimate", "bisq.cli", "cmd_estimate"),
    ("cli.cmd_sample", "bisq.cli", "cmd_sample"),
    ("cli.cmd_connectivity", "bisq.cli", "cmd_connectivity"),
    ("cli.cmd_generate", "bisq.cli", "cmd_generate"),
    ("cli.parse_gen_spec", "bisq.cli", "parse_gen_spec"),
    ("cli._estimate_trial", "bisq.cli", "_estimate_trial"),
    ("cli._sample_trial", "bisq.cli", "_sample_trial"),
    ("cli._connectivity_trial", "bisq.cli", "_connectivity_trial"),
    ("cli._dump", "bisq.cli", "_dump"),
    ("cli._emit", "bisq.cli", "_emit"),
    ("graph.gen_gnp", "bisq.graph", "gen_gnp"),
    ("graph.gen_family", "bisq.graph", "gen_family"),
    ("graph.Graph.__init__", "bisq.graph", "Graph.__init__"),
    ("graph.Graph.edges", "bisq.graph", "Graph.edges"),
    ("graph.Graph.has_edge", "bisq.graph", "Graph.has_edge"),
    ("graph.dump_edge_list", "bisq.graph", "dump_edge_list"),
    ("graph.exact_connected", "bisq.graph", "exact_connected"),
    ("bitset.nested_rate_masks", "bisq.bitset", "nested_rate_masks"),
    ("oracle.BisOracle.submit", "bisq.oracle", "BisOracle.submit"),
    ("oracle.QueryPlan.validate", "bisq.oracle", "QueryPlan.validate"),
    ("oracle.DenseBlock.evaluate", "bisq.oracle", "DenseBlock.evaluate"),
    ("oracle.SharedSubsampleBlock.evaluate", "bisq.oracle",
     "SharedSubsampleBlock.evaluate"),
    ("oracle.SidesSubsampleBlock.evaluate", "bisq.oracle",
     "SidesSubsampleBlock.evaluate"),
    ("nbr_size.decode_ns", "bisq.nbr_size", "decode_ns"),
    ("element_recovery.build_neighbor_recovery", "bisq.element_recovery",
     "build_neighbor_recovery"),
    ("element_recovery.NeighborRecovery.decode_pool", "bisq.element_recovery",
     "NeighborRecovery.decode_pool"),
    ("degree_est.estimate_degrees", "bisq.degree_est", "estimate_degrees"),
    ("degree_est.estimate_degrees_with_neighbors", "bisq.degree_est",
     "estimate_degrees_with_neighbors"),
    ("edge_estimator.run_pipeline", "bisq.edge_estimator", "run_pipeline"),
    ("edge_estimator.coarse_estimate", "bisq.edge_estimator",
     "coarse_estimate"),
    ("edge_estimator.refine", "bisq.edge_estimator", "refine"),
    ("edge_sampler.sample_edges_batch", "bisq.edge_sampler",
     "sample_edges_batch"),
    ("connectivity.is_connected", "bisq.connectivity", "is_connected"),
    ("connectivity.round1_neighbor_sampling", "bisq.connectivity",
     "round1_neighbor_sampling"),
    ("connectivity.contract", "bisq.connectivity", "contract"),
    ("connectivity.SupernodeOracle.submit", "bisq.connectivity",
     "SupernodeOracle.submit"),
]

ROUND1 = "connectivity.round1_neighbor_sampling"
_BLOCK_KIND = {"DenseBlock": "dense", "SharedSubsampleBlock": "shared",
               "SidesSubsampleBlock": "sides"}


class Recorder:
    """Span stack plus per-span totals; one per traced process."""

    def __init__(self):
        self.stack: list[list] = []          # [name, child seconds]
        self.calls = defaultdict(int)
        self.incl = defaultdict(float)
        self.self_s = defaultdict(float)
        self.errors = defaultdict(int)
        self.edges = defaultdict(float)      # "parent>child" -> inclusive s
        self.counters = defaultdict(float)

    def active(self, name: str) -> bool:
        return any(frame[0] == name for frame in self.stack)

    def wrap(self, name: str, fn, probe=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self.stack[-1] if self.stack else None
            reentered = self.active(name)
            frame = [name, 0.0]
            self.stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.errors[name] += 1
                raise
            finally:
                dur = time.perf_counter() - t0
                self.stack.pop()
                self.calls[name] += 1
                self.self_s[name] += dur - frame[1]
                if not reentered:
                    self.incl[name] += dur
                if parent is not None:
                    parent[1] += dur
                    self.edges[f"{parent[0]}>{name}"] += dur
            if probe is not None:
                probe(self, args, result)
            return result
        return traced

    def as_dict(self) -> dict:
        spans = {name: {"calls": self.calls[name], "incl_s": self.incl[name],
                        "self_s": self.self_s[name],
                        "errors": self.errors[name]}
                 for name, _, _ in SPANS}
        return {"spans": spans, "edges": dict(self.edges),
                "counters": dict(self.counters)}


# ---------------------------------------------------------------------------
# probes: layer counters read from arguments and results, outside the span
# ---------------------------------------------------------------------------

def _plan_bytes(plan) -> int:
    total = 0
    for block in plan.blocks:
        for attr in ("left", "right", "base", "masks", "sides", "planes"):
            arr = getattr(block, attr, None)
            if arr is not None:
                total += arr.nbytes
        for left, base in getattr(block, "parts", ()):
            total += left.nbytes + base.nbytes
    return total


def _probe_submit(rec, args, result):
    if rec.active(ROUND1):
        rec.counters["round1_plan_bytes"] += _plan_bytes(args[1])


def _probe_evaluate(rec, args, result):
    block = args[0]
    kind = _BLOCK_KIND[type(block).__name__]
    rec.counters[f"{kind}.queries"] += result.size
    if kind == "shared":
        rec.counters["deg_cells"] += len(block.parts)


def _probe_masks(rec, args, result):
    rec.counters["mask_bytes"] += result.nbytes


def _probe_build_recovery(rec, args, result):
    rec.counters["ser_reps_planned"] += result.reps


def _probe_decode_pool(rec, args, result):
    rec.counters["ser_pool_entries"] += result.size


def _probe_degree_table(rec, args, result):
    table = result[0] if isinstance(result, tuple) else result
    rec.counters["deg_failed_vertices"] += int(table.failed.sum())


def _probe_sampler(rec, args, result):
    from bisq.edge_sampler import OK
    rec.counters["draws"] += len(result)
    rec.counters["draws_ok"] += sum(1 for out in result if out.status == OK)


def _probe_is_connected(rec, args, result):
    rec.counters["supernodes"] += result.p_supernodes


PROBES = {
    "oracle.BisOracle.submit": _probe_submit,
    "oracle.DenseBlock.evaluate": _probe_evaluate,
    "oracle.SharedSubsampleBlock.evaluate": _probe_evaluate,
    "oracle.SidesSubsampleBlock.evaluate": _probe_evaluate,
    "bitset.nested_rate_masks": _probe_masks,
    "element_recovery.build_neighbor_recovery": _probe_build_recovery,
    "element_recovery.NeighborRecovery.decode_pool": _probe_decode_pool,
    "degree_est.estimate_degrees": _probe_degree_table,
    "degree_est.estimate_degrees_with_neighbors": _probe_degree_table,
    "edge_sampler.sample_edges_batch": _probe_sampler,
    "connectivity.is_connected": _probe_is_connected,
}


def install(rec: Recorder) -> None:
    """Wrap every SPANS target at its definition and at each import site."""
    import bisq.cli  # noqa: F401  (imports every bisq module)
    modules = [m for name, m in sorted(sys.modules.items())
               if name == "bisq" or name.startswith("bisq.")]
    for name, module_name, path in SPANS:
        owner = importlib.import_module(module_name)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        original = owner.__dict__[attr] if outer else getattr(owner, attr)
        traced = rec.wrap(name, original, PROBES.get(name))
        setattr(owner, attr, traced)
        if not outer:
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, traced)


# ---------------------------------------------------------------------------
# per-layer metrics from a trace
# ---------------------------------------------------------------------------

def layer_metrics(trace: dict) -> dict[str, float]:
    """Per-layer values (seconds, counts, MiB, ratios) from one trace."""
    spans, edges, ctr = trace["spans"], trace["edges"], trace["counters"]

    def incl(name):
        return spans[name]["incl_s"]

    def self_s(name):
        return spans[name]["self_s"]

    def calls(name):
        return spans[name]["calls"]

    def ratio(num, den):
        return num / den if den else 0.0

    mib = 1024.0 ** 2
    out = {
        "graph.gen_s": self_s("graph.gen_gnp") + self_s("graph.gen_family"),
        "graph.init_s": incl("graph.Graph.__init__"),
        "graph.dump_s": incl("graph.dump_edge_list"),
        "graph.truth_s": (incl("graph.exact_connected")
                          + incl("graph.Graph.has_edge")),
        "bitset.masks_s": incl("bitset.nested_rate_masks"),
        "bitset.mask_mib": ctr.get("mask_bytes", 0) / mib,
        "oracle.submit_s": self_s("oracle.BisOracle.submit"),
        "oracle.batches": calls("oracle.BisOracle.submit"),
        "oracle.validate_s": incl("oracle.QueryPlan.validate"),
    }
    for kind, cls in (("shared", "SharedSubsampleBlock"),
                      ("sides", "SidesSubsampleBlock"),
                      ("dense", "DenseBlock")):
        eval_s = incl(f"oracle.{cls}.evaluate")
        queries = ctr.get(f"{kind}.queries", 0)
        out[f"oracle.{kind}.eval_s"] = eval_s
        out[f"oracle.{kind}.queries"] = queries
        out[f"oracle.{kind}.ns_per_query"] = ratio(eval_s * 1e9, queries)
    er = "element_recovery."
    sampler = "edge_sampler.sample_edges_batch"
    out.update({
        "nbr_size.decode_s": incl("nbr_size.decode_ns"),
        "nbr_size.decodes": calls("nbr_size.decode_ns"),
        "nbr_size.decode_failures": spans["nbr_size.decode_ns"]["errors"],
        "element_recovery.plan_s": self_s(er + "build_neighbor_recovery"),
        "element_recovery.plans": calls(er + "build_neighbor_recovery"),
        "element_recovery.decode_s": incl(er + "NeighborRecovery.decode_pool"),
        "element_recovery.accept_ratio": ratio(
            ctr.get("ser_pool_entries", 0), ctr.get("ser_reps_planned", 0)),
        "degree_est.sketch_self_s": (
            self_s("degree_est.estimate_degrees")
            + self_s("degree_est.estimate_degrees_with_neighbors")),
        "degree_est.cells": ctr.get("deg_cells", 0),
        "degree_est.failed_vertices": ctr.get("deg_failed_vertices", 0),
        "edge_estimator.pipeline_s": incl("edge_estimator.run_pipeline"),
        "edge_estimator.coarse_s": incl("edge_estimator.coarse_estimate"),
        "edge_estimator.refine_s": incl("edge_estimator.refine"),
        "edge_estimator.refine_passes": calls("edge_estimator.refine"),
        "edge_sampler.draw_s": incl(sampler) - edges.get(
            f"{sampler}>edge_estimator.run_pipeline", 0.0),
        "edge_sampler.success_ratio": ratio(ctr.get("draws_ok", 0),
                                            ctr.get("draws", 0)),
        "connectivity.round1_s": incl(ROUND1),
        "connectivity.round1_plan_mib": ctr.get("round1_plan_bytes", 0) / mib,
        "connectivity.translate_s": self_s(
            "connectivity.SupernodeOracle.submit"),
        "connectivity.round2_s": edges.get(
            f"connectivity.is_connected>{sampler}", 0.0),
        "connectivity.supernodes": ctr.get("supernodes", 0),
        "cli.report_s": incl("cli._dump") + incl("cli._emit"),
    })
    return out


def self_check(trace: dict, expected: list[str], wall_s: float) -> list[str]:
    """Problems with a trace; an empty list means the tracer is sound.

    Every expected span must have been entered, self times must add up to
    the command's inclusive time, and the command span must cover most of
    the traced process's wall time (the rest is interpreter start, import
    and exit).
    """
    spans = trace["spans"]
    problems = [f"span {name} recorded no calls" for name in expected
                if spans[name]["calls"] == 0]
    main_s = spans["cli.main"]["incl_s"]
    self_sum = sum(s["self_s"] for s in spans.values())
    if abs(self_sum - main_s) > 0.01 * main_s + 1e-3:
        problems.append(f"span self times sum to {self_sum:.4f} s but the "
                        f"command took {main_s:.4f} s")
    if main_s < 0.8 * (wall_s - trace["import_s"]):
        problems.append(f"command span {main_s:.3f} s covers too little of "
                        f"the traced wall time {wall_s:.3f} s")
    return problems


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: tracer.py TRACE.json -- <bisq CLI arguments>",
              file=sys.stderr)
        return 2
    out_path, cli_args = argv[0], argv[2:]
    t0 = time.perf_counter()
    rec = Recorder()
    install(rec)
    import_s = time.perf_counter() - t0
    import bisq.cli
    rc = bisq.cli.main(cli_args)
    data = rec.as_dict()
    data["import_s"] = import_s
    with open(out_path, "w") as fh:
        json.dump(data, fh, sort_keys=True)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
