"""Two-round connectivity test.

Round 1 recovers a pool of uniform neighbors per vertex and contracts the
connected components of the recovered edges into supernodes.  If more
than one supernode remains, round 2 runs the near-uniform edge sampler on
the contracted graph, and the graph is connected iff the sampled
superedges join every supernode.  Both rounds, like the exact oracle,
find components with ``graph.components`` over edge arrays.  The
contracted graph has one vertex per supernode and a superedge wherever a
base edge joins two blocks; round 2 queries it through a plain oracle on
the base ledger.  Intra-block edges never cross a cut between supernode
sets, so its answers are exactly the base oracle's on the expanded sets.
Recovered edges are always real edges, so a "disconnected" verdict is
never wrong; only "connected" can be missed.
"""
from __future__ import annotations

from dataclasses import dataclass
import itertools
import numpy as np

from . import params
from .edge_sampler import sample_edges_batch
from .element_recovery import build_neighbor_recovery
from .graph import Graph, VertexSet, components, pair_keys
from .oracle import BisOracle, QueryPlan, Results
from .params import Constants


@dataclass
class SuperGraph:
    """Contraction of the round-1 edges: p supernodes, numbered by their
    least vertex."""
    n: int
    p: int
    supernode_of: np.ndarray          # vertex -> supernode id, 0..p-1


def _unique_pairs(a: np.ndarray, b: np.ndarray, n: int) -> np.ndarray:
    """The distinct pairs {a[i], b[i]} of 0..n-1, where a[i] != b[i], as
    (m, 2) int64 rows (u, v) with u < v, sorted: the edges of the graph
    they make."""
    edges = Graph(n, pair_keys(n, np.stack([a, b], axis=1)))
    return np.stack(edges.ends(), axis=1)


def round1_neighbor_sampling(oracle: BisOracle, seed,
                             constants: Constants = Constants(),
                             tag: str = "round1") -> np.ndarray:
    """Per-vertex uniform neighbor pools; returns the recovered edges as a
    sorted, unique (m, 2) int64 array with u < v.

    One round.  Each vertex gets one recovery plan sized so its accepted
    pool approaches ceil(c_nb log2^2 n) independent draws; every pool
    entry is a certified neighbor, so the edges are real.  The plan holds
    only each block's seed, and the submitted results (each block's pool)
    are evaluated as they are read, so one block's masks are live at a
    time.
    """
    n = oracle.n
    target = params.neighbor_sample_target(n, constants)
    reps = params.round1_reps(n, constants)
    full = VertexSet.full(n)
    recs = []
    plan = QueryPlan(n)
    for v in range(n):
        left = VertexSet.from_indices(n, [v])
        right = full.difference(left)
        rec = build_neighbor_recovery(left, right, reps, (seed, "round1", v),
                                      tag=tag)
        recs.append(rec)
        plan.add(rec.block)
    with oracle.round():
        results = oracle.submit(plan)
    # each pool is kept as a Python list: small arrays left on the C heap
    # between the blocks' mask draws fragment it, which costs page faults
    # and peak RSS; a set drops its repeats without importing numpy.ma
    pools = [list(set(rec.decode_pool(result)[:target].tolist()))
             for rec, result in zip(recs, results)]
    owners = np.repeat(np.arange(n), [len(pool) for pool in pools])
    return _unique_pairs(np.fromiter(itertools.chain.from_iterable(pools),
                                     np.int64, owners.size), owners, n)


def contract(edges: np.ndarray, n: int) -> SuperGraph:
    """Components of the (m, 2) edge rows become supernodes, numbered by
    their least vertex."""
    roots, supernode_of = np.unique(components(n, edges[:, 0], edges[:, 1]),
                                    return_inverse=True)
    return SuperGraph(n=n, p=roots.size, supernode_of=supernode_of)


def contracted_graph(graph: Graph, sg: SuperGraph) -> Graph:
    """The p-vertex graph with superedge (a, b) iff a base edge joins the
    blocks of a and b: the distinct supernode pairs of the edges, where
    intra-block edges, which would be self-loops, are dropped."""
    a, b = (sg.supernode_of[ends] for ends in graph.ends())
    cross = a != b
    return Graph(sg.p, pair_keys(sg.p, np.stack([a[cross], b[cross]], axis=1)))


class SupernodeOracle(BisOracle):
    """Round-2 oracle: a plain BisOracle over the contracted graph.

    Blocks are disjoint and intra-block edges never cross a cut between
    supernode sets, so a supernode query (L, R) has a crossing edge in the
    base graph iff it has a superedge in the contracted graph: answers
    equal those of the base oracle on L and R expanded to their blocks.
    Each supernode query is charged as one query on the base ledger; the
    round scope is this oracle's own, so a plan submitted after round 1
    closed costs one further round.  The contraction uses only the
    algorithm's own round-1 partition.
    """

    def __init__(self, base: BisOracle, sg: SuperGraph):
        super().__init__(contracted_graph(base.graph, sg), base.ledger)

    def submit(self, plan: QueryPlan) -> Results:
        # its own entry point, so round-2 batches can be timed apart
        return super().submit(plan)


@dataclass
class ConnectivityReport:
    connected: bool
    p_supernodes: int
    superedges_recovered: int
    rounds: int
    bis_count: int
    round1_edges: int


def is_connected(oracle: BisOracle, seed,
                 constants: Constants = Constants(),
                 epsilon: float = 0.25,
                 profile: str = params.FAST) -> ConnectivityReport:
    """Connectivity verdict in at most two adaptivity rounds: connected
    iff the edges recovered in both rounds join all vertices into one
    component."""
    before = oracle.ledger.snapshot()
    n = oracle.n
    if n <= 1:
        return ConnectivityReport(connected=True, p_supernodes=max(n, 0),
                                  superedges_recovered=0, rounds=0,
                                  bis_count=0, round1_edges=0)
    edges = round1_neighbor_sampling(oracle, seed, constants)
    sg = contract(edges, n)
    if sg.p == 1:
        delta = oracle.ledger.delta(before)
        return ConnectivityReport(connected=True, p_supernodes=1,
                                  superedges_recovered=0,
                                  rounds=delta["round_count"],
                                  bis_count=delta["bis_count"],
                                  round1_edges=len(edges))
    sup = SupernodeOracle(oracle, sg)
    k = params.superedge_sample_count(n, constants)
    batch = sample_edges_batch(sup, k, epsilon, (seed, "round2"),
                               profile, constants)
    ok = batch.ok
    superedges = _unique_pairs(batch.vertex[ok], batch.neighbor[ok], sg.p)
    delta = oracle.ledger.delta(before)
    labels = components(sg.p, superedges[:, 0], superedges[:, 1])
    return ConnectivityReport(connected=not labels.any(),
                              p_supernodes=sg.p,
                              superedges_recovered=len(superedges),
                              rounds=delta["round_count"],
                              bis_count=delta["bis_count"],
                              round1_edges=len(edges))
