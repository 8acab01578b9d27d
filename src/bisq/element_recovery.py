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
oracle call, which recovers a uniform member of Gamma(L) ∩ R.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import bitset, params
from .graph import VertexSet
from .oracle import BisOracle, QueryPlan, SidesSubsampleBlock
from .params import Constants
from .seeding import rng_for


def _side_masks(domain: int, positions_words_n: int,
                position_ids: np.ndarray) -> np.ndarray:
    """Stack of 2b+2 masks: whole, b one-bit sides, b zero-bit sides, verify.

    ``position_ids[k]`` is the word-space id carrying domain index k.
    """
    bits = params.ser_bits(domain)
    b = np.arange(bits, dtype=np.int64)
    hi = (np.arange(domain, dtype=np.int64)[:, None] >> b) & 1
    side_rows = np.where(hi == 1, 1 + b, 1 + bits + b)     # (domain, bits)
    rows = np.concatenate([np.zeros(domain, dtype=np.int64), side_rows.ravel(),
                           np.full(domain, 2 * bits + 1, dtype=np.int64)])
    ids = np.concatenate([position_ids, np.repeat(position_ids, bits),
                          position_ids])
    return bitset.pack_rows(positions_words_n, rows, ids, 2 * bits + 2)


@dataclass
class SerPlan:
    """Recovery plan over an abstract boolean vector of length ``domain``."""
    domain: int
    levels: int
    bits: int
    reps: int
    masks: np.ndarray   # (reps, levels, w) subsample masks of the domain
    sides: np.ndarray   # (2*bits+2, w)

    def size(self) -> int:
        return self.levels * self.reps * (2 * self.bits + 2)


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
    sides = _side_masks(domain, domain, np.arange(domain, dtype=np.int64))
    return SerPlan(domain=domain, levels=levels, bits=bits, reps=reps,
                   masks=masks, sides=sides)


def answer_plan(plan: SerPlan, x_words: np.ndarray) -> np.ndarray:
    """OR-query answers for a known vector (test and simulation helper).

    Layout matches decode_ser: flat over (level, rep, side).
    """
    rows = plan.masks[:, :, None, :] & plan.sides[None, None, :, :]
    hit = (rows & x_words).any(axis=3)            # (reps, levels, sides)
    return (~hit).astype(np.uint8).transpose(1, 0, 2).ravel()


def _decode_hits(hit: np.ndarray, bits: int,
                 domain: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Accepted (levels, reps, index) arrays, one entry per repetition.

    ``hit`` has shape (levels, reps, 2*bits+2).  Within a repetition the
    subsamples are nested, so every accepting level of one repetition
    carries the same survivor; keeping only the first accepting level per
    repetition leaves exactly one independent uniform draw per accepting
    repetition.  Scan order is rate-major: level 0 (the densest
    subsample) first, repetitions in index order.
    """
    whole = hit[:, :, 0].astype(bool)
    verify = hit[:, :, -1].astype(bool)
    if bits == 0:
        accept = whole & verify
        index = np.zeros_like(whole, dtype=np.int64)
    else:
        hi = hit[:, :, 1:1 + bits].astype(bool)
        lo = hit[:, :, 1 + bits:1 + 2 * bits].astype(bool)
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
    nq = 2 * plan.bits + 2
    hit = 1 - answers.reshape(plan.levels, plan.reps, nq)
    hits = _decode_hits(hit, plan.bits, plan.domain)
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
    """A recovery block over Gamma(L) ∩ R plus what decode needs."""
    block: SidesSubsampleBlock
    r_members: np.ndarray
    levels: int
    bits: int
    reps: int

    def decode_pool(self, answers: np.ndarray) -> np.ndarray:
        """Recovered vertices in scan order (independent uniform draws)."""
        nq = 2 * self.bits + 2
        hit = 1 - answers.reshape(self.levels, self.reps, nq)
        _, _, index = _decode_hits(hit, self.bits, self.r_members.size)
        return self.r_members[index]


def build_neighbor_recovery(n: int, left: VertexSet, right: VertexSet,
                            reps: int, seed,
                            tag: str = "ser") -> NeighborRecovery:
    """Plan recovery of a uniform member of Gamma(L) ∩ R; no queries."""
    if not left.isdisjoint(right):
        raise ValueError("left and right sets overlap")
    r_members = right.members()
    domain = int(r_members.size)
    if domain == 0:
        raise ValueError("right set is empty")
    levels = params.ser_levels(domain)
    bits = params.ser_bits(domain)
    rng = rng_for(seed, "ser-plan")
    masks = bitset.nested_rate_masks(rng, right.words, levels, reps)
    sides = _side_masks(domain, n, r_members)
    block = SidesSubsampleBlock(tag, left.words, right.words, masks, sides)
    return NeighborRecovery(block=block, r_members=r_members, levels=levels,
                            bits=bits, reps=reps)


def uniform_neighbor_of_set(oracle: BisOracle, left: VertexSet,
                            right: VertexSet, delta: float, seed,
                            constants: Constants = Constants(),
                            tag: str = "ser") -> Optional[int]:
    """Recover a uniform neighbor of L in R, or None on failure.

    One non-adaptive batch; ~levels * reps * (2 bits + 2) oracle queries
    with reps = ceil(c_R ln(1/delta)).
    """
    reps = params.ser_reps(delta, constants)
    rec = build_neighbor_recovery(oracle.n, left, right, reps, seed, tag=tag)
    plan = QueryPlan(oracle.n, [rec.block])
    with oracle.round():
        answers = oracle.submit(plan)[0]
    pool = rec.decode_pool(answers)
    return int(pool[0]) if pool.size else None
