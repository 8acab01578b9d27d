"""Non-adaptive (1±eps) estimator for the neighborhood size |Gamma(L) ∩ R|.

The plan subsamples R at geometric rates 2^-i and counts, per level, how
many of T repetitions produce a no-edge answer against L.  Decoding finds
the first level whose no-edge frequency clears a fixed threshold and
inverts the closed form E[count]/T = (1 - 2^-i)^N.  The plan is the
degree sketch's shared-plane block with one part, (L, R), and its counts
come from the block's top depths (``counts_from_top``).  ``decode_ns``
takes one row of level counts or a stack of rows (one per cell of the
sketch) and decodes a stack in one pass; its logarithms are ``math.log``
values tabled by count and by level, so a row decodes to the same float
alone or stacked.

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
# bincount keys per block of parts in counts_from_top
_KEYS_PER_BLOCK = 1 << 16


@dataclass(frozen=True)
class NsParams:
    epsilon: float
    delta: float
    levels: int
    reps: int
    profile: str

    @classmethod
    def create(cls, n: int, epsilon: float, delta: float, profile: str,
               constants: Constants = Constants()) -> "NsParams":
        if epsilon <= 0:
            raise ValueError("epsilon must be positive")
        epsilon = min(epsilon, 0.5)   # threshold separation needs eps <= 1/2
        if not 0 < delta <= 0.5:
            raise ValueError("delta must lie in (0, 1/2]")
        return cls(epsilon=epsilon, delta=delta,
                   levels=params.ns_levels(n),
                   reps=params.ns_reps(n, epsilon, delta, profile, constants),
                   profile=profile)


@dataclass
class NsCounts:
    """Per-level tallies of no-edge answers, in 0..reps.

    ``counts`` has shape (levels,), or (..., levels) for a stack of
    tallies that ``decode_ns`` decodes in one call.
    """
    counts: np.ndarray
    reps: int

    @staticmethod
    def expected_rate(level: int, size: int) -> float:
        """Closed-form no-edge rate (1 - 2^-level)^size (analysis only)."""
        return (1.0 - 2.0 ** -level) ** size


def plan_ns(left: VertexSet, right: VertexSet, ns: NsParams, seed,
            tag: str = "ns") -> QueryPlan:
    """Build the full query plan; issues no oracle queries.

    Entry (i, t) is (L, R_i^t) where R_i^t keeps each member of R with
    probability 2^-i: one shared-plane block with the one part (L, R) and
    planes drawn from (seed, "ns-plan"), row index t * levels + i.
    """
    if not left.isdisjoint(right):
        raise ValueError("left and right sets overlap")
    return QueryPlan(left.n, [SharedSubsampleBlock(
        tag, [(left.words, right.words)], ns.reps, ns.levels,
        (seed, "ns-plan"))])


def counts_from_top(top: np.ndarray, ns: NsParams) -> NsCounts:
    """Stacked counts, (parts, levels), from a shared-plane block's top.

    Row (p, r, i) answers 1 iff i > top[p, r], so the count at level i is
    the number of reps with top + 1 <= i: a cumulative histogram of
    top + 1 over 0..levels.  The parts go through in blocks of rows whose
    bincount keys number about ``_KEYS_PER_BLOCK``, each block's counts
    written into the preallocated result, so the scratch stays fixed
    however many parts and reps there are.
    """
    parts, reps = top.shape
    bins = ns.levels + 1
    counts = np.empty((parts, ns.levels), dtype=np.int64)
    rows = max(1, _KEYS_PER_BLOCK // reps)
    for lo in range(0, parts, rows):
        block = top[lo:lo + rows]
        keys = np.add(block, 1, dtype=np.int64)
        keys += np.arange(block.shape[0])[:, None] * bins
        hist = np.bincount(keys.ravel(), minlength=block.shape[0] * bins)
        np.cumsum(hist.reshape(-1, bins)[:, :ns.levels], axis=1,
                  out=counts[lo:lo + rows])
    return NsCounts(counts=counts, reps=ns.reps)


def decode_ns(counts: NsCounts, ns: NsParams) -> float | np.ndarray:
    """Invert the per-level counts into a size estimate.

    ``counts.counts`` is one row of level counts or a stack of them,
    shape (..., levels).  A row raises NsDecodeError when the selected
    level has a zero count (the logarithm is undefined there); callers
    treat that as one failure inside the delta budget.  A stack decodes
    every row at once, gives ``inf`` for such rows and issues each
    warning at most once.

    The logarithms come from ``math.log`` tables indexed by count and by
    level, and numpy's IEEE division of their entries equals Python's,
    so a stacked row decodes bit-identically to the same row alone
    (``np.log`` can differ from ``math.log`` in the last bit).
    """
    T = counts.reps
    shape = np.shape(counts.counts)
    c = np.asarray(counts.counts).reshape(-1, shape[-1])
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
    if len(shape) > 1:
        return estimate.reshape(shape[:-1])
    if estimate[0] == np.inf:
        raise NsDecodeError(f"zero count at decode level {int(i_hat[0])}")
    return float(estimate[0])


def estimate_ns(oracle: BisOracle, left: VertexSet, right: VertexSet,
                epsilon: float, delta: float, seed,
                profile: str = params.FAST,
                constants: Constants = Constants(),
                tag: str = "ns") -> float:
    """Plan, submit one batch, decode.  Contributes one adaptivity round."""
    ns = NsParams.create(oracle.n, epsilon, delta, profile, constants)
    plan = plan_ns(left, right, ns, seed, tag=tag)
    with oracle.round():
        top = oracle.submit(plan)[0]
    counts = counts_from_top(top, ns).counts[0]
    estimate = decode_ns(NsCounts(counts=counts, reps=ns.reps), ns)
    return min(estimate, float(len(right)))
