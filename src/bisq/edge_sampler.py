"""Near-uniform edge sampling on top of the edge-estimation pipeline.

The pipeline (run with neighbor recovery) yields, after the last
refinement pass, a recovered vertex set with weights proportional to the
scaled degree estimates; the sampler draws a vertex by those weights and
pairs it with an entry of the vertex's recovery pool, the one the degree
sketch assigned it.  Draws of a vertex whose sketch cell held more than
one vertex are surfaced as failures instead of risking a pair that is
not an edge.  A batch reuses one pipeline and spends each vertex's pool
in order, so repeated draws get fresh neighbor randomness until the pool
runs dry, after which entries are recycled uniformly.

A batch is a handful of arrays, one entry per draw; its per-draw
`SamplerOutput` records are built only when read.
"""
from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import bitset
from .edge_estimator import PipelineResult, run_pipeline
from .oracle import BisOracle
from .params import Constants
from .seeding import rng_for

OK = "ok"
NO_EDGES = "no_edges"
FAILURE = "failure"
STATUSES = (OK, FAILURE, NO_EDGES)      # a batch's status codes, by code


@dataclass(frozen=True)
class SamplerOutput:
    status: str
    edge: Optional[tuple[int, int]] = None   # (v_sampled, recovered neighbor)
    weight: float = 0.0


class SampleBatch(Sequence):
    """k draws as read-only arrays: ``status`` (uint8 codes into
    STATUSES) and, per draw, the sampled ``vertex``, its recovered
    ``neighbor`` (-1 on a failed draw) and the vertex's ``weight``.

    A batch with nothing to draw stores only its status bytes; its other
    arrays are broadcast views of -1 and 0.0.
    """

    def __init__(self, status: np.ndarray, vertex: np.ndarray,
                 neighbor: np.ndarray, weight: np.ndarray):
        for array in (status, vertex, neighbor, weight):
            array.setflags(write=False)
        self.status, self.vertex = status, vertex
        self.neighbor, self.weight = neighbor, weight

    @classmethod
    def undrawn(cls, k: int, status: str) -> "SampleBatch":
        return cls(np.full(k, STATUSES.index(status), dtype=np.uint8),
                   np.broadcast_to(np.int64(-1), (k,)),
                   np.broadcast_to(np.int64(-1), (k,)),
                   np.broadcast_to(np.float64(0.0), (k,)))

    @property
    def ok(self) -> np.ndarray:
        """Boolean mask of the draws that carry an edge."""
        return self.status == STATUSES.index(OK)

    def __len__(self) -> int:
        return self.status.size

    def __getitem__(self, i: int) -> SamplerOutput:
        status = STATUSES[self.status[i]]
        edge = (int(self.vertex[i]), int(self.neighbor[i]))
        return SamplerOutput(status=status, weight=float(self.weight[i]),
                             edge=edge if status == OK else None)

    def __iter__(self):
        # rows are read a chunk at a time, and the few distinct records
        # without an edge are built once each
        blank: dict = {}
        step = bitset.SCRATCH_BYTES // 8
        for lo in range(0, len(self), step):
            columns = (c[lo:lo + step].tolist() for c in
                       (self.status, self.vertex, self.neighbor, self.weight))
            for code, v, u, weight in zip(*columns):
                if STATUSES[code] == OK:
                    yield SamplerOutput(status=OK, edge=(v, u), weight=weight)
                    continue
                if (code, weight) not in blank:
                    blank[code, weight] = SamplerOutput(
                        status=STATUSES[code], weight=weight)
                yield blank[code, weight]


@dataclass
class _DrawTable:
    """The draw table of a finished pipeline, one entry per vertex; the
    pool of entry e is ``flat[start[e]:start[e] + size[e]]``.  A vertex
    whose draws fail has size 0 and starts at the trailing -1 of flat."""
    vertices: np.ndarray
    weights: np.ndarray
    cum: np.ndarray
    flat: np.ndarray
    start: np.ndarray
    size: np.ndarray


def _prepare(result: PipelineResult) -> Optional[_DrawTable]:
    state = result.final_state
    if state is None or state.recovered.size == 0:
        return None
    weights = state.weights.astype(np.float64)
    keep = weights > 0
    if not keep.any():
        return None
    vertices = state.recovered[keep]
    weights = weights[keep]
    pools = []
    for v, j in zip(vertices, state.levels[keep]):
        ntable = result.neighbor_tables[int(j)]
        p = int(np.searchsorted(ntable.vertices, v))
        pid = int(ntable.pool_id[p])
        # a shared cell may recover a member's neighbor that is not v's;
        # its draws fail rather than emit a possible non-edge
        usable = pid >= 0 and ntable.cell_size[p] == 1
        pools.append(ntable.pools[pid] if usable
                     else np.empty(0, dtype=np.int64))
    size = np.array([pool.size for pool in pools], dtype=np.int64)
    flat = np.concatenate([*pools, [-1]]).astype(np.int64, copy=False)
    start = np.where(size > 0, np.cumsum(size) - size, flat.size - 1)
    return _DrawTable(vertices=vertices, weights=weights,
                      cum=np.cumsum(weights), flat=flat, start=start,
                      size=size)


def _draw(table: _DrawTable, k: int, rng: np.random.Generator
          ) -> SampleBatch:
    """k draws from the table, in chunks of ``bitset.SCRATCH_BYTES`` worth
    of int64s so that transients stay small next to the batch itself.

    The first pass picks each draw's entry by weight (one uniform per
    draw); the second takes pool entry i for a draw that is the i-th of
    its entry, while i is below the pool size, and a uniform pool entry
    (one ``rng.integers`` per such draw, in draw order) after that.
    """
    step = bitset.SCRATCH_BYTES // 8
    last = table.vertices.size - 1
    vertex = np.empty(k, dtype=np.int64)     # holds entries until pass 2
    for lo in range(0, k, step):
        u = rng.random(min(step, k - lo))
        u *= table.cum[-1]
        np.minimum(np.searchsorted(table.cum, u, side="right"), last,
                   out=vertex[lo:lo + u.size])
    neighbor = np.empty(k, dtype=np.int64)
    weight = np.empty(k, dtype=np.float64)
    status = np.empty(k, dtype=np.uint8)
    seen = np.zeros(table.vertices.size, dtype=np.int64)
    for lo in range(0, k, step):
        entry = vertex[lo:lo + step]
        hi = lo + entry.size
        counts = np.bincount(entry, minlength=seen.size)
        order = np.argsort(entry, kind="stable")
        rank = np.empty_like(entry)
        rank[order] = (np.arange(entry.size)
                       - (np.cumsum(counts) - counts)[entry[order]])
        rank += seen[entry]
        seen += counts
        size = table.size[entry]
        recycled = rank >= size
        rank[recycled] = 0       # a failing entry reads flat's -1 there
        recycled &= size > 0
        if recycled.any():
            rank[recycled] = rng.integers(0, size[recycled])
        neighbor[lo:hi] = table.flat[table.start[entry] + rank]
        status[lo:hi] = np.where(size > 0, STATUSES.index(OK),
                                 STATUSES.index(FAILURE))
        weight[lo:hi] = table.weights[entry]
        vertex[lo:hi] = table.vertices[entry]
    return SampleBatch(status, vertex, neighbor, weight)


def sample_edges_batch(oracle: BisOracle, k: int, epsilon: float, seed,
                       constants: Constants = Constants()) -> SampleBatch:
    """k draws with replacement sharing one pipeline; one round total.

    Per-sample failures are reported individually; callers judge the
    batch (the intended floor is (1 - 2 eps) k successes).
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    result = run_pipeline(oracle, epsilon, seed, constants,
                          with_neighbors=True)
    table = _prepare(result)
    if table is None:
        # the coarse bootstrap gives exactly 2 only when no rate saw an
        # edge (and at least 16 otherwise), and a positive degree estimate
        # (the failed sentinel n too) means every repetition's cell of
        # that vertex had a nonempty support; either way the final pass
        # lost a graph that has edges
        seen = result.m0 > 2.0 or any(
            (t.d_hat > 0).any() for t in result.tables.values())
        return SampleBatch.undrawn(k, FAILURE if seen else NO_EDGES)
    return _draw(table, k, rng_for(seed, "draw"))
