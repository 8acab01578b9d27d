"""Non-adaptive single element recovery over group-OR queries.

The plan subsamples the domain at geometric rates; per (level, rep) it
queries the whole subsample plus, for every bit position of the index, the
subsample restricted to indices with that bit set and with it clear.  A
repetition is accepted when the whole subsample hits the support and every
bit position hits on exactly one side: that certificate holds iff exactly
one support element survived, so the index assembled from the hit bits is
that element, and conditioned on acceptance it is uniform over the
support.  Accepted repetitions are independent, so one plan yields a pool
of independent uniform draws; callers consume the first or the whole pool.

Instantiated over the edge oracle, with the implicit vector indexed by a
set R and tested against a disjoint set L, every query is a single
oracle call, which recovers a uniform member of Gamma(L) ∩ R.  Domain
index k is the k-th member of R, and which sides hold it is a function
of k alone (``oracle.side_bits``), so a plan stores only the seed of
its subsample masks: the recovery block draws the masks from that seed
and derives its sides from R each time it is evaluated, and the
abstract reference materializes them with ``oracle.side_masks``.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import bitset, params
from .graph import VertexSet
from .oracle import BisOracle, QueryPlan, SidesSubsampleBlock, side_masks
from .params import Constants
from .seeding import rng_for


@dataclass
class SerPlan:
    """Recovery plan over an abstract boolean vector of length ``domain``."""
    domain: int
    levels: int
    bits: int
    reps: int
    masks: np.ndarray   # (reps, levels, w) subsample masks of the domain

    def size(self) -> int:
        return params.ser_queries(self.domain, self.reps)


@dataclass
class SerOutcome:
    recovered: Optional[int]
    level_used: Optional[int]
    pool: list = field(default_factory=list)   # (level, rep, index) accepted


def plan_ser(domain: int, delta: float, seed,
             constants: Constants = Constants(),
             reps: Optional[int] = None) -> SerPlan:
    """Build a recovery plan; no queries are issued."""
    if domain < 1:
        raise ValueError("domain must be >= 1")
    levels = params.ser_levels(domain)
    bits = params.ser_bits(domain)
    if reps is None:
        reps = params.ser_reps(delta, constants)
    rng = rng_for(seed, "ser-plan")
    base = bitset.full_words(domain)
    masks = bitset.nested_rate_masks(rng, base, levels, reps)
    return SerPlan(domain=domain, levels=levels, bits=bits, reps=reps,
                   masks=masks)


def answer_plan(plan: SerPlan, x_words: np.ndarray) -> np.ndarray:
    """OR-query answers for a known vector (test and simulation helper).

    Layout matches decode_ser: flat over (level, rep, side).
    """
    sides = side_masks(plan.domain, np.arange(plan.domain))
    rows = plan.masks[:, :, None, :] & sides[None, None, :, :]
    hit = (rows & x_words).any(axis=3)            # (reps, levels, sides)
    return (~hit).astype(np.uint8).transpose(1, 0, 2).ravel()


def _decode_hits(answers: np.ndarray, reps: int,
                 domain: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Accepted (levels, reps, index) arrays, one entry per repetition.

    ``answers`` is flat over (level, rep, side), sides as in
    ``side_bits``.  Within a repetition the subsamples are nested, so
    every accepting level of one repetition carries the same survivor;
    keeping only the first accepting level per repetition leaves exactly
    one independent uniform draw per accepting repetition.  Scan order is
    rate-major: level 0 (the densest subsample) first, repetitions in
    index order.
    """
    bits = params.ser_bits(domain)
    ans = answers.reshape(params.ser_levels(domain), reps, 2 * bits + 2)
    whole, verify = ans[:, :, 0] == 0, ans[:, :, -1] == 0
    if bits == 0:
        accept = whole & verify
        index = np.zeros_like(whole, dtype=np.int64)
    else:
        hi = ans[:, :, 1:1 + bits] == 0
        lo = ans[:, :, 1 + bits:1 + 2 * bits] == 0
        isolated = (hi ^ lo).all(axis=2)
        index = (hi.astype(np.int64)
                 << np.arange(bits, dtype=np.int64)).sum(axis=2)
        accept = whole & verify & isolated & (index < domain)
    reps_idx = np.nonzero(accept.any(axis=0))[0]
    levels_idx = accept.argmax(axis=0)[reps_idx]
    order = np.lexsort((reps_idx, levels_idx))
    levels_idx, reps_idx = levels_idx[order], reps_idx[order]
    return levels_idx, reps_idx, index[levels_idx, reps_idx]


def decode_ser(plan: SerPlan, answers: np.ndarray) -> SerOutcome:
    """Decode aligned answers; failure yields recovered=None, never a guess."""
    hits = _decode_hits(answers, plan.reps, plan.domain)
    pool = list(zip(*(a.tolist() for a in hits)))
    if not pool:
        return SerOutcome(recovered=None, level_used=None, pool=[])
    level, _, index = pool[0]
    return SerOutcome(recovered=index, level_used=level, pool=pool)


# ---------------------------------------------------------------------------
# oracle instantiation: uniform neighbor of L inside R
# ---------------------------------------------------------------------------

@dataclass
class NeighborRecovery:
    """A recovery block over Gamma(L) ∩ R; its domain is members(R)."""
    block: SidesSubsampleBlock

    @property
    def reps(self) -> int:
        return self.block.reps

    def decode_pool(self, answers: np.ndarray) -> np.ndarray:
        """Recovered vertices in scan order (independent uniform draws)."""
        base = self.block.base
        domain = bitset.members(base, base.size * bitset.WORD_BITS)
        _, _, index = _decode_hits(answers, self.reps, domain.size)
        return domain[index]


def build_neighbor_recovery(left: VertexSet, right: VertexSet, reps: int,
                            seed, tag: str = "ser") -> NeighborRecovery:
    """Plan recovery of a uniform member of Gamma(L) ∩ R; no queries.

    The block keeps ``seed`` and draws its masks from it when evaluated.
    """
    if not left.isdisjoint(right):
        raise ValueError("left and right sets overlap")
    if not right.words.any():
        raise ValueError("right set is empty")
    return NeighborRecovery(
        SidesSubsampleBlock(tag, left.words, right.words, reps, seed))


def uniform_neighbor_of_set(oracle: BisOracle, left: VertexSet,
                            right: VertexSet, delta: float, seed,
                            constants: Constants = Constants(),
                            tag: str = "ser") -> Optional[int]:
    """Recover a uniform neighbor of L in R, or None on failure.

    One non-adaptive batch; ~levels * reps * (2 bits + 2) oracle queries
    with reps = ceil(c_R ln(1/delta)).
    """
    reps = params.ser_reps(delta, constants)
    rec = build_neighbor_recovery(left, right, reps, seed, tag=tag)
    plan = QueryPlan(oracle.n, [rec.block])
    with oracle.round():
        answers = oracle.submit(plan)[0]
    pool = rec.decode_pool(answers)
    return int(pool[0]) if pool.size else None
