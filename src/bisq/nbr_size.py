"""Non-adaptive (1±eps) estimator for the neighborhood size |Gamma(L) ∩ R|.

The plan subsamples R at geometric rates 2^-i and counts, per level, how
many of T repetitions produce a no-edge answer against L.  Decoding finds
the first level whose no-edge frequency clears a fixed threshold and
inverts the closed form E[count]/T = (1 - 2^-i)^N.  The plan is the
degree sketch's shared-plane block with one part, L against the base R,
and the block evaluates straight to its counts, a plain (parts, levels)
array.  ``decode_ns`` decodes one row or a stack of rows
(one per cell of the sketch) in one pass, giving ``inf`` for a row that
fails; its logarithms are ``math.log`` values tabled by count and by
level, so a row decodes to the same float alone or stacked.

Sizes 0 and 1 decode exactly: an empty neighborhood answers 1 everywhere,
and with a nonempty one the decoded value identifies size 1 because no
integer size >= 2 can decode below 1.5 while the per-level counts obey
their (1±eps) guarantee.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import params
from .errors import NsDecodeError
from .graph import VertexSet
from .oracle import BisOracle, QueryPlan, SharedSubsampleBlock
from .params import Constants

# decode threshold numerator: a level is "low" when count/T < (1-eps)/(2 e^2)
_THRESHOLD_BASE = 1.0 / (2.0 * math.e ** 2)
# a decoded value below this, with a provably nonempty neighborhood,
# can only be size 1
_UNIT_CUTOFF = 1.5


@dataclass(frozen=True)
class NsParams:
    epsilon: float
    levels: int
    reps: int

    @classmethod
    def create(cls, n: int, epsilon: float, delta: float, profile: str,
               constants: Constants = Constants()) -> "NsParams":
        if epsilon <= 0:
            raise ValueError("epsilon must be positive")
        epsilon = min(epsilon, 0.5)   # threshold separation needs eps <= 1/2
        if not 0 < delta <= 0.5:
            raise ValueError("delta must lie in (0, 1/2]")
        return cls(epsilon=epsilon, levels=params.ns_levels(n),
                   reps=params.ns_reps(n, epsilon, delta, profile, constants))

    @property
    def queries(self) -> int:
        """Queries of a one-part plan: levels x reps."""
        return self.levels * self.reps


def plan_ns(left: VertexSet, right: VertexSet, ns: NsParams, seed,
            tag: str = "ns") -> QueryPlan:
    """Build the full query plan; issues no oracle queries.

    Entry (i, t) is (L, R_i^t) where R_i^t keeps each member of R with
    probability 2^-i: one shared-plane block whose one part is L's
    members against the base R, planes drawn from (seed, "ns-plan"), row
    index t * levels + i.
    """
    if not left.isdisjoint(right):
        raise ValueError("left and right sets overlap")
    ids = left.members()
    return QueryPlan(left.n, [SharedSubsampleBlock(
        tag, ids, np.zeros_like(ids), 1, right, ns.reps, ns.levels,
        (seed, "ns-plan"))])


def decode_ns(counts: np.ndarray, ns: NsParams) -> np.ndarray:
    """Invert per-level counts into size estimates, one per row.

    ``counts`` is one row of level counts in 0..``ns.reps`` or a stack of
    them, shape (..., levels); the estimates have shape (...).  A row
    whose selected level has a zero count (the logarithm is undefined
    there) decodes to ``inf``; callers treat that as one failure inside
    the delta budget.  Each warning is issued at most once per call.

    The logarithms come from ``math.log`` tables indexed by count and by
    level, and numpy's IEEE division of their entries equals Python's,
    so a stacked row decodes bit-identically to the same row alone
    (``np.log`` can differ from ``math.log`` in the last bit).
    """
    T = ns.reps
    shape = np.shape(counts)
    c = np.asarray(counts).reshape(-1, shape[-1])
    threshold = (1.0 - ns.epsilon) * _THRESHOLD_BASE
    decoding = c[:, 0] != T          # all-T rows decode to 0 silently
    low = c / T < threshold
    any_low = low.any(axis=1)
    i_hat = ns.levels - np.argmax(low[:, ::-1], axis=1)
    if (decoding & ~any_low).any():
        # unreachable with real answers (level 0 is deterministic); guard
        # for synthetic counts
        warnings.warn("no level under threshold; decoding at the top level")
    if (decoding & any_low & (i_hat >= ns.levels)).any():
        warnings.warn("threshold crossing at the top level; decoding there")
    i_hat = np.where(any_low, np.minimum(i_hat, ns.levels - 1),
                     ns.levels - 1)
    c_hat = c[np.arange(c.shape[0]), i_hat]
    log_c = np.full(T + 1, -np.inf)     # count 0 decodes to inf
    used = np.flatnonzero(np.bincount(c_hat, minlength=T + 1)[1:]) + 1
    log_c[used] = [math.log(k / T) for k in used.tolist()]
    log_q = np.array([np.nan] + [math.log1p(-(2.0 ** -i))
                                 for i in range(1, ns.levels)])
    estimate = log_c[c_hat] / log_q[i_hat]     # i_hat >= 1: levels >= 2
    estimate[estimate < _UNIT_CUTOFF] = 1.0
    estimate[~decoding] = 0.0
    return estimate.reshape(shape[:-1])


def estimate_ns(oracle: BisOracle, left: VertexSet, right: VertexSet,
                epsilon: float, delta: float, seed,
                constants: Constants = Constants(),
                tag: str = "ns") -> float:
    """Plan, submit one batch, decode.  Contributes one adaptivity round.

    Raises NsDecodeError when the decode fails (a zero count at the
    selected level).
    """
    ns = NsParams.create(oracle.n, epsilon, delta, params.FAST, constants)
    plan = plan_ns(left, right, ns, seed, tag=tag)
    with oracle.round():
        counts = oracle.submit(plan)[0]
    estimate = float(decode_ns(counts[0], ns))
    if estimate == math.inf:
        raise NsDecodeError("zero count at the selected decode level")
    return min(estimate, float(len(right)))
