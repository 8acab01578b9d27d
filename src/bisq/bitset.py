"""Packed 64-bit-word bitset helpers.

All vertex sets and query masks in this package are dense bit arrays over
0..n-1, stored as little-endian uint64 words.  Tail bits past n are kept
zero so popcounts and equality tests stay exact.
"""
from __future__ import annotations

import numpy as np

WORD_BITS = 64
_U1 = np.uint64(1)
_FULL = np.uint64(0xFFFFFFFFFFFFFFFF)
# pairs per bitwise_or.at call in pack_rows
_PAIR_SLICE = 1 << 16
# bytes per array of one step of a blocked evaluation: a repetition chunk
# of SharedSubsampleBlock.evaluate or a block of its histogram keys, a
# transposed mask block or an edge block of DenseBlock.evaluate
SCRATCH_BYTES = 1 << 18


def word_count(n: int) -> int:
    return (n + WORD_BITS - 1) // WORD_BITS


def empty_words(n: int) -> np.ndarray:
    return np.zeros(word_count(n), dtype=np.uint64)


def full_words(n: int) -> np.ndarray:
    words = np.full(word_count(n), _FULL, dtype=np.uint64)
    return trim_tail(words, n)


def trim_tail(words: np.ndarray, n: int) -> np.ndarray:
    """Zero the bits at positions >= n in the last word (in place)."""
    rem = n % WORD_BITS
    if rem and words.size:
        words[..., -1] &= np.uint64((1 << rem) - 1)
    return words


def pack_indices(n: int, indices) -> np.ndarray:
    """Bit mask with the given vertex ids set."""
    idx = np.asarray(indices, dtype=np.int64).ravel()
    if idx.size and (idx.min() < 0 or idx.max() >= n):
        raise ValueError(f"vertex id out of range 0..{n - 1}")
    flags = np.zeros(word_count(n) * WORD_BITS, dtype=bool)
    flags[idx] = True
    return np.packbits(flags, bitorder="little").view(np.uint64)


def pack_rows(n: int, rows: np.ndarray, indices: np.ndarray,
              count: int) -> np.ndarray:
    """Stack of ``count`` masks; mask rows[k] has bit indices[k] set.

    The pairs go through in slices of ``_PAIR_SLICE``, so the scratch is
    a few MiB however many pairs there are.
    """
    indices = np.asarray(indices, dtype=np.int64)
    if indices.size and (indices.min() < 0 or indices.max() >= n):
        raise ValueError(f"vertex id out of range 0..{n - 1}")
    rows = np.asarray(rows, dtype=np.int64)
    words = np.zeros((count, word_count(n)), dtype=np.uint64)
    flat = words.reshape(-1)
    for lo in range(0, rows.size, _PAIR_SLICE):
        idx = indices[lo:lo + _PAIR_SLICE]
        at = rows[lo:lo + _PAIR_SLICE].astype(np.int64)
        at *= words.shape[1]
        at += idx >> 6
        np.bitwise_or.at(flat, at,
                         np.left_shift(_U1, (idx & 63).astype(np.uint64)))
    return words


def pack_bool(flags: np.ndarray) -> np.ndarray:
    """Packed words of boolean flags over the last axis, tail bits zero."""
    packed = np.packbits(flags, axis=-1, bitorder="little")
    words = np.zeros(packed.shape[:-1] + (word_count(flags.shape[-1]) * 8,),
                     dtype=np.uint8)
    words[..., :packed.shape[-1]] = packed
    return words.view(np.uint64)


def members(words: np.ndarray, n: int | None = None) -> np.ndarray:
    """Sorted array of set bit positions (below n, if given)."""
    bits = np.unpackbits(words.view(np.uint8), bitorder="little")[:n]
    return np.nonzero(bits)[0].astype(np.int64)


def popcount(words: np.ndarray) -> int:
    return int(np.bitwise_count(words).sum())


def contains(words: np.ndarray, i: int) -> bool:
    return bool((words[i >> 6] >> np.uint64(i & 63)) & _U1)


def random_planes(rng: np.random.Generator, shape) -> np.ndarray:
    """Uniform random bit planes; each bit is an independent fair coin."""
    return rng.integers(0, np.iinfo(np.uint64).max, size=shape,
                        dtype=np.uint64, endpoint=True)


def nested_rate_masks(rng: np.random.Generator, base: np.ndarray,
                      levels: int, reps: int,
                      cols: np.ndarray | None = None) -> np.ndarray:
    """Subsample masks of ``base`` at rates 2^-i, i = 0..levels-1.

    Returns an array of shape (reps, levels, w).  Level 0 is ``base``
    itself; level i is level i-1 thinned by an independent fair coin per
    element, so the marginal keep rate at level i is exactly 2^-i.  Masks
    are nested within a repetition and independent across repetitions.

    The coin planes of levels 1..levels-1 are one ``random_planes`` draw
    written into the output, and each level is then ANDed in place with
    the level before it, so the only scratch is that draw.  ``cols``, an
    array of word indices, keeps only those word columns, w = its size:
    the whole draw is still made and then sliced, so the stream and every
    kept word are those of the masks without ``cols``.  Full-range draws
    concatenate, so consecutive calls on one generator give the row
    blocks of one call.
    """
    cols = slice(None) if cols is None else cols
    out = np.empty((reps, levels) + base[cols].shape, dtype=np.uint64)
    out[:, 0] = base[cols]
    if levels > 1:
        out[:, 1:] = random_planes(rng, (reps, levels - 1,
                                         base.size))[:, :, cols]
        for i in range(1, levels):
            np.bitwise_and(out[:, i], out[:, i - 1], out=out[:, i])
    return out
