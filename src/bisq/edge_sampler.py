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
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import params
from .edge_estimator import PipelineResult, run_pipeline
from .oracle import BisOracle
from .params import Constants
from .seeding import rng_for

OK = "ok"
NO_EDGES = "no_edges"
FAILURE = "failure"


@dataclass(frozen=True)
class SamplerOutput:
    status: str
    edge: Optional[tuple[int, int]] = None   # (v_sampled, recovered neighbor)
    weight: float = 0.0


@dataclass
class _DrawState:
    """The draw table of a finished pipeline, one entry per vertex."""
    vertices: np.ndarray
    weights: np.ndarray
    cum: np.ndarray
    pools: list              # recovery pool, None unless a nonempty singleton


def _prepare(result: PipelineResult) -> Optional[_DrawState]:
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
        usable = (pid >= 0 and ntable.cell_size[p] == 1
                  and ntable.pools[pid].size > 0)
        pools.append(ntable.pools[pid] if usable else None)
    return _DrawState(vertices=vertices, weights=weights,
                      cum=np.cumsum(weights), pools=pools)


class _PoolCursor:
    """Sequential, then recycled, consumption of the draw table's pools."""

    def __init__(self, rng: np.random.Generator):
        self._next: dict = {}
        self._rng = rng

    def take(self, pool: np.ndarray, idx: int) -> int:
        i = self._next.get(idx, 0)
        if i < pool.size:
            self._next[idx] = i + 1
            return int(pool[i])
        return int(pool[self._rng.integers(0, pool.size)])


def _draw_one(ds: _DrawState, idx: int, cursor: _PoolCursor) -> SamplerOutput:
    weight = float(ds.weights[idx])
    pool = ds.pools[idx]
    if pool is None:
        return SamplerOutput(status=FAILURE, weight=weight)
    return SamplerOutput(status=OK, weight=weight,
                         edge=(int(ds.vertices[idx]), cursor.take(pool, idx)))


def sample_edges_batch(oracle: BisOracle, k: int, epsilon: float, seed,
                       profile: str = params.FAST,
                       constants: Constants = Constants()
                       ) -> list[SamplerOutput]:
    """k draws with replacement sharing one pipeline; one round total.

    Per-sample failures are reported individually; callers judge the
    batch (the intended floor is (1 - 2 eps) k successes).
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    result = run_pipeline(oracle, epsilon, seed, profile, constants,
                          with_neighbors=True)
    ds = _prepare(result)
    if ds is None:
        # the coarse bootstrap gives exactly 2 only when no rate saw an
        # edge (and at least 16 otherwise), so a larger m0 means the final
        # pass lost a graph that has edges
        status = FAILURE if result.m0 > 2.0 else NO_EDGES
        return [SamplerOutput(status=status)] * k
    rng = rng_for(seed, "draw")
    cursor = _PoolCursor(rng)
    picks = np.searchsorted(ds.cum, rng.random(k) * ds.cum[-1], side="right")
    picks = np.minimum(picks, ds.vertices.size - 1)
    return [_draw_one(ds, idx, cursor) for idx in picks.tolist()]
