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

A plan is a recovery block, ``oracle.SidesSubsampleBlock``, wrapped in a
`NeighborRecovery` that decodes it; ``build_neighbor_recovery`` builds
every one.  Over the edge oracle the block holds the member ids of L and
a packed base B that plans may share, its domain R = B minus L indexes the
implicit vector, and every query is a single oracle call: the plan
recovers a uniform member of Gamma(L) ∩ R.  Domain index k is the k-th
member of R, and which sides hold it is a function of k alone
(``oracle.side_masks``), so a plan stores only the seed of its masks.
The certificate holds exactly where one support element survives, so the
block's result is the pool itself, counted from survivors: the domain
indices of the accepted repetitions, which ``NeighborRecovery.decode_pool``
maps to vertices.  ``plan_ser`` builds
the block over an abstract vector of length ``domain`` (no member ids
and B = 0..domain-1, so index k is vertex k), and ``answer_plan`` gives
its pool for a known vector through the block's own kernel.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import bitset, params
from .graph import VertexSet
from .oracle import BisOracle, QueryPlan, SidesSubsampleBlock
from .params import Constants


@dataclass(slots=True)
class NeighborRecovery:
    r"""A recovery block over Gamma(L) ∩ (B \ L); its domain is
    members(B) \ L."""
    block: SidesSubsampleBlock

    @property
    def reps(self) -> int:
        return self.block.reps

    def decode_pool(self, pool: np.ndarray) -> np.ndarray:
        """Recovered vertices in scan order (independent uniform draws):
        the domain's members at the indices of ``pool``, the block's
        result (``SidesSubsampleBlock.pool``)."""
        return bitset.members(self.block.domain())[pool]


# ---------------------------------------------------------------------------
# abstract vectors: the recovery block over the domain 0..domain-1
# ---------------------------------------------------------------------------

@dataclass
class SerOutcome:
    recovered: Optional[int]
    pool: np.ndarray     # accepted domain indices, in scan order


def plan_ser(domain: int, delta: float, seed,
             constants: Constants = Constants(),
             reps: Optional[int] = None) -> NeighborRecovery:
    """Build a recovery plan over a vector of length ``domain``; no queries.

    The block's left is empty and its base is the whole domain, so its
    masks are drawn from ``rng_for(seed, "ser-plan")`` inside 0..domain-1.
    """
    if domain < 1:
        raise ValueError("domain must be >= 1")
    if reps is None:
        reps = params.ser_reps(delta, constants)
    return build_neighbor_recovery(np.empty(0, dtype=np.int64),
                                   bitset.full_words(domain), reps, seed)


def answer_plan(plan: NeighborRecovery, x_words: np.ndarray) -> np.ndarray:
    """The plan's result for a known vector (test and simulation helper):
    its recovery pool, with x itself as the support."""
    return plan.block.pool(x_words & plan.block.domain())


def decode_ser(plan: NeighborRecovery, pool: np.ndarray) -> SerOutcome:
    """Decode the plan's result; failure yields recovered=None, never a
    guess."""
    pool = plan.decode_pool(pool)
    return SerOutcome(recovered=int(pool[0]) if pool.size else None,
                      pool=pool)


# ---------------------------------------------------------------------------
# oracle instantiation: uniform neighbor of L inside R
# ---------------------------------------------------------------------------

def build_neighbor_recovery(left: np.ndarray, base: np.ndarray, reps: int,
                            seed, tag: str = "ser") -> NeighborRecovery:
    r"""Plan recovery of a uniform member of Gamma(L) ∩ (B \ L); no
    queries.  ``left`` holds the member ids of L and ``base`` the packed
    words of B, which plans may share.

    The block keeps ``seed`` and draws its masks from it when evaluated.
    """
    return NeighborRecovery(SidesSubsampleBlock(tag, left, base, reps, seed))


def uniform_neighbor_of_set(oracle: BisOracle, left: VertexSet,
                            right: VertexSet, delta: float, seed,
                            constants: Constants = Constants(),
                            tag: str = "ser") -> Optional[int]:
    """Recover a uniform neighbor of L in R, or None on failure.

    One non-adaptive batch; ~levels * reps * (2 bits + 2) oracle queries
    with reps = ceil(c_R ln(1/delta)).
    """
    if not left.isdisjoint(right):
        raise ValueError("left and right sets overlap")
    if not right.words.any():
        raise ValueError("right set is empty")
    reps = params.ser_reps(delta, constants)
    rec = build_neighbor_recovery(left.members(), right.words, reps, seed,
                                  tag=tag)
    plan = QueryPlan(oracle.n, [rec.block])
    with oracle.round():
        pool = rec.decode_pool(oracle.submit(plan)[0])
    return int(pool[0]) if pool.size else None
