"""Reference decoder for recovery blocks, shared by the tests.

A recovery block (``oracle.SidesSubsampleBlock``) evaluates to its pool
from survivor counts.  The reference here is the certificate read the
long way: the answers to every materialized row of ``iter_rows``, flat
over (level, rep, side), bit-decoded as the paper's single element
recovery states it into domain indices, which are then mapped to the
domain's members.
"""
import numpy as np

from bisq import BisOracle, VertexSet, bitset, params


def reference_pool(block, answers) -> np.ndarray:
    """Vertices certified by the row answers, int64 in scan order.

    Per (level, rep): accepted when the whole side and verify hit and
    every index bit hits on exactly one side; the index is assembled from
    the one-bit sides that hit and must lie in the domain.  A repetition
    keeps its first accepting level.  Scan order is level-major,
    repetitions ascending.  The result is the domain's members at the
    accepted indices (the indices themselves for an abstract plan, whose
    domain is 0..domain-1).
    """
    members = np.setdiff1d(bitset.members(
        block.base, bitset.WORD_BITS * block.base.size), block.left)
    domain = members.size
    bits = params.ser_bits(domain)
    ans = np.asarray(answers).reshape(params.ser_levels(domain), block.reps,
                                      2 * bits + 2)
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
    return members[index[levels_idx[order], reps_idx[order]]]


def fresh_row_answers(graph, block) -> list[int]:
    """A fresh oracle's single ``bis`` answer to every row of the block."""
    fresh = BisOracle(graph)
    n = graph.n
    return [fresh.bis(VertexSet(n, lw.copy()), VertexSet(n, rw.copy()))
            for lw, rw in block.iter_rows()]
