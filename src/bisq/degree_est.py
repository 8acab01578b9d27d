"""Count-min style additive degree estimates for every vertex of a set.

Each repetition assigns the vertices of S to random cells; the
neighborhood size of each nonempty cell (against everything outside it)
upper-bounds the degree of each of its members up to the other members'
degree mass, and the minimum over repetitions tightens the overestimate.
Each repetition submits one shared-plane block over all its cells and
reads back the top survival depth per (cell, rep); a cell's no-edge count
at level i is the number of reps whose top is below i, so the counts of
every cell are one cumulative histogram of top + 1, decoded in one
stacked ``decode_ns`` call.
Extended mode additionally plans, per cell, the recovery of uniform
members of the cell's outside neighborhood.  Every recovery block is
charged at submit, but a cell's block is evaluated and its pool decoded
only when its estimate improves some member's minimum; that member then
points at the pool (``pool_id``), so each vertex ends with exactly one
pool, the one from the repetition that set its estimate.  Its first
entry is the vertex's near-uniform neighbor candidate.
"""
from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from . import bitset, params
from .graph import VertexSet
from .nbr_size import NsParams, counts_from_top, decode_ns
from .oracle import BisOracle, QueryPlan, SharedSubsampleBlock
from .element_recovery import build_neighbor_recovery
from .params import Constants
from .seeding import rng_for


@dataclass
class PartitionSchedule:
    """Seed-derived cell assignment: (rep, position-in-S) -> cell id."""
    reps: int
    cells: int
    assignment: np.ndarray   # (reps, |S|) int64

    @classmethod
    def build(cls, size: int, n: int, epsilon: float, extended: bool,
              seed, constants: Constants) -> "PartitionSchedule":
        reps = params.deg_reps(n)
        cells = params.deg_parts(n, epsilon, extended, constants)
        assignment = np.empty((reps, size), dtype=np.int64)
        for t in range(reps):
            assignment[t] = rng_for(seed, "deg-assign", t).integers(
                0, cells, size=size)
        return cls(reps=reps, cells=cells, assignment=assignment)


@dataclass
class DegreeTable:
    vertices: np.ndarray     # member ids of S, sorted
    d_hat: np.ndarray        # float64 estimates, min over repetitions
    t_min: np.ndarray        # repetition achieving the minimum, -1 if none
    failed: np.ndarray       # all repetitions failed; d_hat holds sentinel n
    ns_failures: int = 0     # (repetition, cell) decodes that gave inf

    def lookup(self, v: int) -> float:
        i = int(np.searchsorted(self.vertices, v))
        if i >= self.vertices.size or self.vertices[i] != v:
            raise KeyError(f"vertex {v} not in table")
        return float(self.d_hat[i])


@dataclass
class NeighborTable:
    vertices: np.ndarray
    neighbor: np.ndarray     # first entry of the vertex's pool, -1 when absent
    cell_size: np.ndarray    # size of the vertex's cell at t_min, 0 if none
    pool_id: np.ndarray      # index into pools, -1 where t_min is -1
    pools: list              # decoded pools, one per improving cell


def _cells(assignment_row: np.ndarray):
    """Nonempty cells, id ascending: (ids, cell index per position, sizes)."""
    return np.unique(assignment_row, return_inverse=True, return_counts=True)


def _run_sketch(oracle: BisOracle, subset: VertexSet, epsilon: float, seed,
                profile: str, constants: Constants, extended: bool,
                tag: str):
    n = oracle.n
    members = subset.members()
    size = int(members.size)
    d_hat = np.full(size, np.inf)
    t_min = np.full(size, -1, dtype=np.int64)
    cell_size = np.zeros(size, dtype=np.int64)
    pool_id = np.full(size, -1, dtype=np.int64)
    pools: list = []
    ns_failures = 0
    if size == 0:
        table = DegreeTable(vertices=members, d_hat=d_hat, t_min=t_min,
                            failed=np.zeros(0, dtype=bool))
        if extended:
            return table, NeighborTable(
                vertices=members, neighbor=pool_id.copy(),
                cell_size=cell_size, pool_id=pool_id, pools=pools)
        return table, None

    schedule = PartitionSchedule.build(size, n, epsilon, extended, seed,
                                       constants)
    ns = NsParams.create(n, epsilon, params.deg_delta_inner(n), profile,
                         constants)
    ser_reps = params.ser_pool_reps(n, epsilon, constants)

    with oracle.round():
        for t in range(schedule.reps):
            cell_ids, cell_of, sizes = _cells(schedule.assignment[t])
            lefts = bitset.pack_rows(n, cell_of, members, cell_ids.size)
            bases = bitset.trim_tail(~lefts, n)
            recoveries = []
            if extended:
                for cell_id, left, base in zip(cell_ids.tolist(), lefts,
                                               bases):
                    recoveries.append(build_neighbor_recovery(
                        VertexSet(n, left), VertexSet(n, base), ser_reps,
                        (seed, "deg-ser", t, cell_id), tag=tag + "-ser"))
            plan = QueryPlan(n, [SharedSubsampleBlock(
                tag, list(zip(lefts, bases)), ns.reps, ns.levels,
                (seed, "deg-planes", t))])
            for rec in recoveries:
                plan.add(rec.block)
            results = oracle.submit(plan)
            est = decode_ns(counts_from_top(results[0], ns), ns)
            ns_failures += int(np.count_nonzero(est == np.inf))
            # inf (a failed decode) cannot sink the min over repetitions
            est = np.minimum(est, n - sizes)[cell_of]
            improved = np.flatnonzero(est < d_hat)
            d_hat[improved] = est[improved]
            t_min[improved] = t
            if extended and improved.size:
                # a cell that improves no member is never read
                gained, rank = np.unique(cell_of[improved],
                                         return_inverse=True)
                pool_id[improved] = len(pools) + rank
                cell_size[improved] = sizes[cell_of[improved]]
                pools.extend(recoveries[gi].decode_pool(results[1 + gi])
                             for gi in gained.tolist())

    failed = ~np.isfinite(d_hat)
    d_hat[failed] = float(n)   # sentinel, flagged
    table = DegreeTable(vertices=members, d_hat=d_hat, t_min=t_min,
                        failed=failed, ns_failures=ns_failures)
    if not extended:
        return table, None

    # the trailing -1 is what pool_id -1 picks
    heads = np.array([p[0] if p.size else -1 for p in pools] + [-1],
                     dtype=np.int64)
    ntable = NeighborTable(vertices=members, neighbor=heads[pool_id],
                           cell_size=cell_size, pool_id=pool_id, pools=pools)
    return table, ntable


def estimate_degrees(oracle: BisOracle, subset: VertexSet, epsilon: float,
                     seed, profile: str = params.FAST,
                     constants: Constants = Constants(),
                     tag: str = "deg-ns") -> DegreeTable:
    """Degree estimates for every vertex of the subset; one round."""
    table, _ = _run_sketch(oracle, subset, epsilon, seed, profile, constants,
                           extended=False, tag=tag)
    return table


def estimate_degrees_with_neighbors(
        oracle: BisOracle, subset: VertexSet, epsilon: float, seed,
        profile: str = params.FAST, constants: Constants = Constants(),
        tag: str = "deg-ns") -> tuple[DegreeTable, NeighborTable]:
    """Extended mode: degree estimates plus per-vertex neighbor candidates."""
    table, ntable = _run_sketch(oracle, subset, epsilon, seed, profile,
                                constants, extended=True, tag=tag)
    return table, ntable


def predict_sketch_queries(n: int, subset_size: int, epsilon: float, seed,
                           profile: str = params.FAST,
                           constants: Constants = Constants(),
                           extended: bool = False) -> int:
    """Seed-exact dry-run query count for the sketch; matches execution."""
    if subset_size == 0:
        return 0
    schedule = PartitionSchedule.build(subset_size, n, epsilon, extended,
                                       seed, constants)
    ns_size = params.ns_plan_size(n, min(epsilon, 0.5),
                                  params.deg_delta_inner(n), profile,
                                  constants)
    ser_reps = params.ser_pool_reps(n, epsilon, constants)
    total = 0
    for t in range(schedule.reps):
        for cell_size in _cells(schedule.assignment[t])[2].tolist():
            total += ns_size
            if extended:
                total += params.ser_queries(n - cell_size, ser_reps)
    return total
