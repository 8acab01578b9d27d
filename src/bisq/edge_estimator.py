"""Non-adaptive (1±eps) edge-count estimator.

Vertices are subsampled at geometrically decreasing rates with a randomly
shifted level ladder; the degree sketch runs once per level; a coarse
whole-graph bootstrap seeds an upper estimate; query-free refinement
passes then re-threshold the sketched degrees against the shrinking
estimate until the weighted sum of recovered degrees stabilizes.  All
queries live in a single adaptivity round; refinement never queries.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import bitset, params
from .degree_est import (DegreeTable, estimate_degrees,
                         estimate_degrees_with_neighbors)
from .errors import RefineContractError
from .graph import Graph, VertexSet
from .oracle import BisOracle, DenseBlock, QueryPlan
from .params import Constants
from .seeding import rng_for


@dataclass(frozen=True)
class LevelSchedule:
    """Shifted sampling-level ladder.

    Level j >= 1 keeps vertices with probability gamma^-mu(j) where
    mu(j) = j*B - shift; level 0 is the whole vertex set and its rate
    exponent is defined as 0 (the raw mu(0) = -shift is never used).
    """
    n: int
    eps_scaled: float
    gamma: float
    buckets: int          # B, bucket count between consecutive levels
    shift: int            # s, uniform in [0, B)
    top_level: int        # L

    def mu(self, j: int) -> float:
        if j == 0:
            return 0.0
        return j * self.buckets - self.shift

    def gamma_pow_mu(self, j: int) -> float:
        return self.gamma ** self.mu(j)

    def rate(self, j: int) -> float:
        return 1.0 if j == 0 else self.gamma ** (-self.mu(j))


def build_schedule(n: int, epsilon: float, seed) -> LevelSchedule:
    """Size the fast profile's ladder and draw its random shift."""
    if not 0 < epsilon <= 0.5:
        raise ValueError("epsilon must lie in (0, 1/2]")
    if n < 2:
        raise ValueError("n must be >= 2")
    eps_scaled, gamma, buckets, top = params.level_ladder(
        n, epsilon, params.FAST)
    shift = int(rng_for(seed, "shift").integers(0, buckets))
    return LevelSchedule(n=n, eps_scaled=eps_scaled, gamma=gamma,
                         buckets=buckets, shift=shift, top_level=top)


def draw_levels(n: int, schedule: LevelSchedule, seed) -> list[VertexSet]:
    """Nested samples S_0 ⊇ S_1 ⊇ ... ⊇ S_L.

    S_0 is V; S_1 keeps each vertex at rate gamma^-mu(1), and each later
    level thins the one before by gamma^-B.
    """
    rng = rng_for(seed, "levels")
    sets = [VertexSet.full(n)]
    current = np.ones(n, dtype=bool)
    for j in range(1, schedule.top_level + 1):
        step = schedule.rate(1) if j == 1 else schedule.gamma ** -schedule.buckets
        current = current & (rng.random(n) < step)
        sets.append(VertexSet(n, bitset.pack_bool(current)))
    return sets


# ---------------------------------------------------------------------------
# coarse bootstrap
# ---------------------------------------------------------------------------

def coarse_estimate(oracle: BisOracle, seed, tag: str = "coarse") -> float:
    """Order-of-magnitude overestimate of m from one non-adaptive plan.

    One random bipartition (A, B); both sides subsampled at rate
    2^-ceil(i/2) for rate indices i, repeated; the largest i whose
    edge-present frequency reaches 1/2 gives raw = 2^i, inflated to
    max(2, 16 log2(n) * raw) so the result sits above m and within
    ~64 log^2 n of it on the graphs this package targets.
    """
    n = oracle.n
    rng = rng_for(seed, "coarse")
    side_a = rng.random(n) < 0.5
    a_words = bitset.pack_bool(side_a)
    b_words = bitset.trim_tail(~a_words.copy(), n)
    n_rates = params.coarse_rate_count(n)
    reps = params.coarse_reps(n)
    w = a_words.size
    lefts = np.empty((n_rates, reps, w), dtype=np.uint64)
    rights = np.empty_like(lefts)
    for i in range(n_rates):
        # per repetition, `half` plane pairs thin A and B alternately; one
        # draw per rate consumes the stream in the row-by-row order
        half = (i + 1) // 2
        planes = bitset.random_planes(rng, (reps, half, 2, w))
        lefts[i] = a_words & np.bitwise_and.reduce(planes[:, :, 0], axis=1)
        rights[i] = b_words & np.bitwise_and.reduce(planes[:, :, 1], axis=1)
    plan = QueryPlan(n, [DenseBlock(tag, lefts.reshape(-1, w),
                                    rights.reshape(-1, w))])
    answers = oracle.submit(plan)[0].reshape(n_rates, reps)
    edge_freq = 1.0 - answers.mean(axis=1)
    hits = np.nonzero(edge_freq >= 0.5)[0]
    raw = float(2 ** int(hits.max())) if hits.size else 0.0
    return max(2.0, 16.0 * params.log2_raw(n) * raw)


# ---------------------------------------------------------------------------
# query-free refinement
# ---------------------------------------------------------------------------

@dataclass
class RefineState:
    """One refinement pass: the new estimate and who got recovered."""
    m_t: float
    recovered: np.ndarray          # vertex ids, at most one entry each
    levels: np.ndarray             # recovery level per recovered vertex
    weights: np.ndarray            # gamma^mu(level) * d_hat contribution


def recovery_threshold(schedule: LevelSchedule, m_bar: float, j: int,
                       constants: Constants) -> float:
    return (m_bar / schedule.gamma_pow_mu(j)
            * constants.c2 * schedule.eps_scaled ** 2
            / params.log2_raw(schedule.n))


def _norm_factor(schedule: LevelSchedule) -> float:
    q = schedule.eps_scaled * params.loglog2(schedule.n)
    # the normalization must decay; clamp when the fast profile puts it
    # near or above 1
    return 0.5 if q > 0.9 else q


def refine(tables: dict, schedule: LevelSchedule, m_prev: float, m0: float,
           t: int, t_total: int,
           constants: Constants = Constants()) -> RefineState:
    """One pass: re-threshold sketched degrees against m_prev.  No queries.

    Scans levels from 0 upward; a vertex is recovered at the first level
    where its sketched degree clears the threshold, contributing
    gamma^mu(j) * d_hat once.  Recovery flags reset every pass.
    """
    n = schedule.n
    recovered_flag = np.zeros(n, dtype=bool)
    rec_v: list[np.ndarray] = []
    rec_j: list[int] = []
    rec_w: list[np.ndarray] = []
    for j in range(schedule.top_level + 1):
        table: DegreeTable = tables[j]
        if table.vertices.size == 0:
            continue
        thr = recovery_threshold(schedule, m_prev, j, constants)
        ok = (~recovered_flag[table.vertices]) & (table.d_hat >= thr) \
            & (~table.failed)
        if ok.any():
            vs = table.vertices[ok]
            recovered_flag[vs] = True
            rec_v.append(vs)
            rec_j.append(j)
            rec_w.append(schedule.gamma_pow_mu(j) * table.d_hat[ok])
    if rec_v:
        vertices = np.concatenate(rec_v)
        levels = np.concatenate([np.full(v.size, j, dtype=np.int64)
                                 for v, j in zip(rec_v, rec_j)])
        weights = np.concatenate(rec_w)
    else:
        vertices = np.zeros(0, dtype=np.int64)
        levels = np.zeros(0, dtype=np.int64)
        weights = np.zeros(0)
    total = float(weights.sum())
    if t < t_total:
        m_t = total / 2.0 + _norm_factor(schedule) ** t * m0
        m_t = max(m_t, 2.0)     # keep the invariant m_bar >= 2 mid-flight
    else:
        m_t = total / 2.0
    return RefineState(m_t=m_t, recovered=vertices, levels=levels,
                       weights=weights)


def refine_pass_count(schedule: LevelSchedule, m0: float) -> int:
    """Passes until the normalization term decays under the estimate scale."""
    base = max(1, int(math.ceil(
        2.0 * math.log(params.log2_raw(schedule.n))
        / math.log(1.0 / schedule.eps_scaled))))
    q = _norm_factor(schedule)
    decay = int(math.ceil(math.log(max(m0, 2.0) / 0.25)
                          / math.log(1.0 / q))) + 1
    return max(base, decay)


# ---------------------------------------------------------------------------
# full pipeline
# ---------------------------------------------------------------------------

@dataclass
class PipelineResult:
    m_hat: float
    m0: float
    refine_trace: list
    schedule: LevelSchedule
    tables: dict
    neighbor_tables: Optional[dict]
    final_state: RefineState
    ledger_delta: dict
    refine_queries: int


def run_pipeline(oracle: BisOracle, epsilon: float, seed,
                 constants: Constants = Constants(),
                 with_neighbors: bool = False) -> PipelineResult:
    """One round of queries, then query-free refinement to the estimate."""
    n = oracle.n
    schedule = build_schedule(n, epsilon, seed)
    before = oracle.ledger.snapshot()
    samples = draw_levels(n, schedule, seed)
    tables: dict = {}
    neighbor_tables: Optional[dict] = {} if with_neighbors else None
    with oracle.round():
        for j in range(schedule.top_level + 1):
            if with_neighbors:
                tables[j], neighbor_tables[j] = estimate_degrees_with_neighbors(
                    oracle, samples[j], schedule.eps_scaled,
                    (seed, "deg", j), constants)
            else:
                tables[j] = estimate_degrees(
                    oracle, samples[j], schedule.eps_scaled,
                    (seed, "deg", j), constants)
        m0 = coarse_estimate(oracle, (seed, "coarse"))
    snap = oracle.ledger.snapshot()
    t_total = refine_pass_count(schedule, m0)
    trace = [m0]
    m_bar = m0
    state: Optional[RefineState] = None
    for t in range(1, t_total + 1):
        state = refine(tables, schedule, m_bar, m0, t, t_total, constants)
        m_bar = state.m_t
        trace.append(m_bar)
    refine_queries = oracle.ledger.snapshot()["bis_count"] - snap["bis_count"]
    if refine_queries != 0:
        raise RefineContractError(
            f"refinement issued {refine_queries} queries")
    return PipelineResult(m_hat=m_bar, m0=m0, refine_trace=trace,
                          schedule=schedule, tables=tables,
                          neighbor_tables=neighbor_tables, final_state=state,
                          ledger_delta=oracle.ledger.delta(before),
                          refine_queries=refine_queries)


def estimate_edges(oracle: BisOracle, epsilon: float, seed,
                   constants: Constants = Constants()) -> float:
    """Non-adaptive edge-count estimate; one adaptivity round."""
    return run_pipeline(oracle, epsilon, seed, constants).m_hat


# ---------------------------------------------------------------------------
# analysis-side oracle (tests only; the estimator never consults it)
# ---------------------------------------------------------------------------

@dataclass
class AnalysisOracle:
    """Exact levels and boundary membership from true degrees: the
    reference that ``tests/test_edge_estimator.py`` checks against."""
    graph: Graph
    schedule: LevelSchedule
    m_bar: float
    constants: Constants = Constants()

    def threshold(self, j: int) -> float:
        return recovery_threshold(self.schedule, self.m_bar, j, self.constants)

    def actual_level(self, v: int) -> Optional[int]:
        d = self.graph.degree(v)
        for j in range(self.schedule.top_level + 1):
            if d >= self.threshold(j):
                return j
        return None

    def is_boundary(self, v: int) -> bool:
        lv = self.actual_level(v)
        if lv is None:
            return False
        d = float(self.graph.degree(v))
        gamma = self.schedule.gamma
        thr = self.threshold(lv)
        if thr <= d < gamma * thr:
            return True
        if lv >= 1:
            prev_thr = self.threshold(lv - 1)
            if prev_thr / gamma < d < prev_thr:
                return True
        return False
