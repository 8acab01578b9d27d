"""Bipartite-edge-existence oracle with exact query and round accounting.

A query gives two disjoint vertex sets (L, R) and the oracle answers 1
iff no edge of the hidden graph crosses between them.  Queries are
submitted in plans (batches of blocks); a plan built without looking at
any prior answer costs one adaptivity round, which callers express with
``with oracle.round(): ...`` scopes.

Blocks come in three kinds, each storing only what its rows are a
function of: explicit rows (the coarse bootstrap), and two subsample
kinds that describe their sets alike, as member ids against a packed
base B that blocks may share, a left's domain being B minus that left.
Shared planes serve many parts (the degree sketch's cells against the
whole vertex set, and the NS plan, one part); the masks of single
element recovery are cut by bit-decoding sides of the domain
(``side_masks``), and every SER plan, over the graph or over an
abstract vector, is one such block.  Both hold the seed their planes or
masks are drawn from, not the planes or masks, and find their supports
in the graph's adjacency lists (``_supports``).  Evaluation is exact
and equivalent to answering every materialized (L, R) row separately,
which `iter_rows` exposes for verification.  A shared-plane block
evaluates its repetitions in chunks drawn one after another from its
one stream, so its scratch does not grow with the repetition count, and
every chunk takes its arrays from one working set per thread
(``_WorkingSet``) that all chunks and blocks reuse, so a chunk
lands on pages that earlier chunks already touched.

`BisOracle.submit` validates and charges a whole plan at once and
returns its `Results`, which evaluate a block only when its result is
read: answers are a pure function of (graph, query), so when they are
computed changes no answer, and a caller holds only the results it
still references.  A block's result is a summary from which its
callers read what they need, so no subsample block builds its answers:
- an explicit-row block: its answers, one uint8 per row in `iter_rows`
  order;
- a shared-plane block: its per-level no-edge counts, int64 of shape
  (parts, levels), which the degree sketch and the NS estimator decode;
- a recovery block: its pool, the int64 vertex ids its answers
  certify, in scan order (``SidesSubsampleBlock.pool``); domain indices
  live only in its sides, and evaluating it never builds its domain.
"""
from __future__ import annotations

import itertools
import math
import threading
from collections.abc import Sequence
from contextlib import contextmanager
from typing import Iterator, Optional

import numpy as np

from . import bitset, params
from .errors import DisjointnessError
from .graph import Graph, VertexSet
from .seeding import rng_for


class QueryLedger:
    """Counts of queries, batches, and adaptivity rounds, by phase label."""

    def __init__(self):
        self.bis_count = 0
        self.batch_count = 0
        self.round_count = 0
        self.phases: dict[str, int] = {}
        self._lock = threading.Lock()

    def charge(self, tag: str, k: int, batches: int = 0, rounds: int = 0) -> None:
        with self._lock:
            self.bis_count += k
            self.batch_count += batches
            self.round_count += rounds
            if k:
                self.phases[tag] = self.phases.get(tag, 0) + k

    def snapshot(self) -> dict:
        return {
            "bis_count": self.bis_count,
            "batch_count": self.batch_count,
            "round_count": self.round_count,
            "phases": dict(self.phases),
        }

    def delta(self, before: dict) -> dict:
        now = self.snapshot()
        return {
            "bis_count": now["bis_count"] - before["bis_count"],
            "batch_count": now["batch_count"] - before["batch_count"],
            "round_count": now["round_count"] - before["round_count"],
            "phases": {
                k: now["phases"].get(k, 0) - before["phases"].get(k, 0)
                for k in set(now["phases"]) | set(before["phases"])
                if now["phases"].get(k, 0) != before["phases"].get(k, 0)
            },
        }


# ---------------------------------------------------------------------------
# plan blocks
# ---------------------------------------------------------------------------

class DenseBlock:
    """Explicit query rows: row k is (left[k], right[k]), packed masks.

    The coarse bootstrap's block: a few thousand rows, each over a large
    part of the graph, so ``evaluate`` passes over the edges once for
    all rows rather than over each row's neighborhood.
    """

    __slots__ = ("tag", "left", "right")

    def __init__(self, tag: str, left: np.ndarray, right: np.ndarray):
        if left.shape != right.shape:
            raise ValueError("left and right need one row per query each")
        self.tag = tag
        self.left = left
        self.right = right

    def n_queries(self) -> int:
        return self.right.shape[0]

    def validate(self, n: int) -> None:
        _check_words(self.tag, self.left, n)
        _check_words(self.tag, self.right, n)
        bad = (self.left & self.right).any(axis=1)
        if bad.any():
            raise DisjointnessError(
                f"block {self.tag!r}: query {int(np.argmax(bad))} "
                "has overlapping L and R")

    def evaluate(self, graph: Graph) -> np.ndarray:
        """One uint8 answer per row.  With bit k of L[u] saying that u is
        in left[k] (``_row_bits``), row k hits iff bit k is set in the OR
        over the edges (u, v) of L[u] & R[v] | L[v] & R[u], taken a block
        whose four gathers hold about ``bitset.SCRATCH_BYTES`` at a time."""
        lt = _row_bits(self.left, graph.n)
        rt = _row_bits(self.right, graph.n)
        hit = np.zeros(lt.shape[1], dtype=np.uint64)
        step = max(1, bitset.SCRATCH_BYTES // (32 * max(1, hit.size)))
        for lo in range(0, graph.m, step):
            u, v = graph.ends(lo, lo + step)
            both = lt[u] & rt[v]
            both |= lt[v] & rt[u]
            hit |= np.bitwise_or.reduce(both, axis=0)
        hit = np.unpackbits(hit.view(np.uint8), bitorder="little")
        return 1 - hit[:len(self.left)]

    def iter_rows(self) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        return zip(self.left, self.right)


def _row_bits(masks: np.ndarray, n: int) -> np.ndarray:
    """The transpose of a (rows, w) mask stack: (n, word_count(rows))
    words, bit k of row u being bit u of masks[k].  Blocks of whole bytes
    of rows by whole words of vertices, about ``bitset.SCRATCH_BYTES``
    once unpacked, are unpacked, transposed and packed again."""
    rows, w = masks.shape
    out = np.zeros((n, 8 * bitset.word_count(rows)), dtype=np.uint8)
    r_step = max(8, bitset.SCRATCH_BYTES // 512 * 8)
    c_step = max(1, bitset.SCRATCH_BYTES // (64 * max(1, min(rows, r_step))))
    for r, c in itertools.product(range(0, rows, r_step), range(0, w, c_step)):
        bits = np.unpackbits(masks[r:r + r_step, c:c + c_step].view(np.uint8),
                             axis=1, bitorder="little")[:, :n - 64 * c]
        out[64 * c:64 * c + bits.shape[1], r // 8:(r + len(bits) + 7) // 8] = (
            np.packbits(bits.T, axis=1, bitorder="little"))
    return out.view(np.uint64)


# bytes: a smaller working-set array is made afresh, since the heap
# reuses its pages anyway and placing it would cost more than it saves
_SMALL = 1 << 16


class _WorkingSet(threading.local):
    """One thread's reused scratch for the shared-plane kernel
    (``_depth_slab``, ``_fold_maxima``, ``_add_histogram`` and the planes
    that ``SharedSubsampleBlock._maxima`` draws).

    A grow-only byte buffer, so that each chunk's arrays land on pages
    the chunks before it already touched.  ``take`` places an array at
    the lowest offset where it overlaps none of the arrays ``live`` that
    the caller still reads, so the buffer holds only the largest set of
    arrays in use at once (a slab, its gathers and their maxima), and
    stays within four times ``bitset.SCRATCH_BYTES`` while one
    repetition's coin draw fits in that.  An array taken from it is
    valid until its bytes are taken again, at the latest by the next
    chunk.  Arrays under ``_SMALL`` bytes are made afresh.

    The buffer grows only in ``reserve``, between chunks, when no array
    of it is in use; growing it while one is would keep the old buffer
    alive beside the new.  An array that does not fit yet is made afresh
    instead, and the offset it would have had is kept (``spill``) until
    then, so placements, and with them the size the buffer grows to, do
    not depend on the buffer's size.
    """

    def __init__(self):
        self.buf = np.empty(0, dtype=np.uint8)
        self.origin = self.buf.ctypes.data
        self.need = 0
        self.spill: dict[int, int] = {}

    def reserve(self) -> None:
        """Grow the buffer to the most bytes a chunk has asked for."""
        self.spill.clear()
        if self.buf.size < self.need:
            self.buf = np.empty(0, dtype=np.uint8)   # freed before the new
            self.buf = np.empty(self.need, dtype=np.uint8)
            self.origin = self.buf.ctypes.data

    def _span(self, a: np.ndarray) -> tuple[int, int]:
        """The offsets of a's first and past its last byte in the buffer,
        or those it would have had it fit; (0, 0) for other arrays."""
        if not a.size:
            return 0, 0
        lo = a.ctypes.data
        at = lo - self.origin
        if not 0 <= at < self.buf.size:
            at = self.spill.get(lo)
            if at is None:
                return 0, 0
        return at, at + a.itemsize + sum((n - 1) * s for n, s in
                                         zip(a.shape, a.strides))

    def take(self, shape: tuple, dtype, live: tuple = ()) -> np.ndarray:
        size = math.prod(shape) * np.dtype(dtype).itemsize
        if size < _SMALL:
            return np.empty(shape, dtype=dtype)
        at = 0
        for lo, hi in sorted(map(self._span, live)):
            if at + size <= lo:
                break
            at = max(at, -(-hi // 64) * 64)        # cache-line aligned
        self.need = max(self.need, at + size)
        if at + size <= self.buf.size:
            return np.ndarray(shape, dtype, self.buf, at)
        out = np.empty(shape, dtype=dtype)
        self.spill[out.ctypes.data] = at
        return out


_WORK = _WorkingSet()


def _depth_slab(planes: np.ndarray,
                rows: Optional[np.ndarray] = None) -> np.ndarray:
    """Survival depths of nested (reps, levels, cols) planes at the slab
    rows ``rows`` (every row if None), int8 of shape (rows.size, reps);
    slab row 64 * j + b is bit b of word column j.

    A vertex's depth is the deepest level whose plane holds it, and
    nesting makes it held at level i iff its depth is at least i, so
    binary digit j of the depth, the parity of the number of multiples
    of 2^j in 1..depth, is the XOR of the planes at those multiples:
    bit_length(levels - 1) unpacks make the rep-major depths.  Under a
    third of the rows are picked and then transposed, more are all
    transposed and then picked, whichever is faster.  The slab is taken
    from this thread's working set (``_WorkingSet``).
    """
    reps, levels, cols = planes.shape
    bits = cols * bitset.WORD_BITS
    rows = np.arange(bits) if rows is None else rows
    depth = _WORK.take((reps, bits), np.int8, (planes,))
    digit = _WORK.take((reps, cols), np.uint64, (planes, depth))
    depth.fill(0)
    for j in reversed(range((levels - 1).bit_length())):
        np.bitwise_xor.reduce(planes[:, 1 << j::1 << j], axis=1, out=digit)
        place = np.unpackbits(digit.view(np.uint8), axis=1,
                              bitorder="little")
        depth += depth        # the higher digits move up a place
        depth |= place.view(np.int8)
        del place             # gone before the next digit is unpacked
    # each transpose reads rows padded 8 bytes past their length, since
    # from rows of a power-of-two stride it is 3-4x slower; each array
    # is dropped once read, so that an array made afresh (see
    # _WorkingSet) is freed as its bytes would be reused
    if 3 * rows.size < bits:
        # the pick's padding is 8 more copies of row 0
        pick = _WORK.take((reps, rows.size + 8), np.int8, (depth,))
        np.take(depth, np.concatenate((rows, np.zeros(8, rows.dtype))),
                axis=1, out=pick, mode="clip")
        del depth
        slab = _WORK.take((rows.size, reps), np.int8, (pick,))
        slab[...] = pick[:, :rows.size].T
        return slab
    padded = _WORK.take((reps, bits + 8), np.int8, (depth,))
    padded[:, :bits] = depth
    del depth
    whole = _WORK.take((bits, reps), np.int8, (padded,))
    whole[...] = padded[:, :bits].T
    del padded
    slab = _WORK.take((rows.size, reps), np.int8, (whole,))
    np.take(whole, rows, axis=0, out=slab, mode="clip")
    return slab


def _rank_runs(k: np.ndarray, order: np.ndarray, rows: np.ndarray,
               chunk: int) -> list:
    """Gathers for ``_fold_maxima``: (m, rows of shape (m, s)) pairs.

    ``rows`` holds every support's slab rows, grouped by part; ``order``
    sorts the parts with a support by size k, descending, so the parts
    with k > j are a prefix of it for every rank j.  Each run of ranks
    between two sizes is one gather of that prefix's rows, split where
    the gather would hold more than ``bitset.SCRATCH_BYTES`` for ``chunk``
    reps.
    """
    first = (np.cumsum(k) - k)[order]
    k = k[order]
    rising = k[::-1]
    runs = []
    lo = 0
    for hi in rising[np.diff(rising, prepend=0) > 0].tolist():
        m = int(np.count_nonzero(k > lo))
        step = max(1, bitset.SCRATCH_BYTES // (m * chunk))
        runs += [(m, rows[first[:m, None] + np.arange(j, min(j + step, hi))])
                 for j in range(lo, hi, step)]
        lo = hi
    return runs


def _fold_maxima(slab: np.ndarray, runs: list, parts: int) -> np.ndarray:
    """Each part's max over its slab rows, int8 of shape (parts, reps),
    parts in rank order; ``runs`` comes from ``_rank_runs``, and its
    first run holds every part.  The gathers and the maxima are taken
    from this thread's working set."""
    reps = slab.shape[1]
    gathers = _WORK.take((max(at.size for _, at in runs) * reps,), np.int8,
                         (slab,))
    acc = _WORK.take((parts, reps), np.int8, (slab, gathers))
    for i, (m, at) in enumerate(runs):
        gather = gathers[:at.size * reps].reshape(at.shape + (reps,))
        np.take(slab, at, axis=0, out=gather, mode="clip")
        top = gather[:, 0] if at.shape[1] == 1 else gather.max(axis=1)
        if i:
            np.maximum(acc[:m], top, out=acc[:m])
        else:
            acc[...] = top
    return acc


def _add_histogram(hist: np.ndarray, acc: np.ndarray,
                   order: np.ndarray) -> None:
    """hist[order[j], v] += the number of entries of acc[j] equal to v,
    in place; one bincount per block of rows holding at most
    ``bitset.SCRATCH_BYTES`` of int64 keys, taken from this thread's
    working set."""
    levels = hist.shape[1]
    rows = max(1, bitset.SCRATCH_BYTES // (8 * acc.shape[1]))
    space = _WORK.take((min(rows, acc.shape[0]) * acc.shape[1],), np.intp,
                       (acc,))
    for lo in range(0, acc.shape[0], rows):
        block = acc[lo:lo + rows]
        keys = space[:block.size].reshape(block.shape)
        keys[...] = block
        keys += np.arange(0, keys.shape[0] * levels, levels)[:, None]
        hist[order[lo:lo + rows]] += np.bincount(
            keys.ravel(), minlength=keys.shape[0] * levels).reshape(-1, levels)


def _check_words(tag: str, words: np.ndarray, n: int) -> None:
    """Refuse packed sets that are not ``word_count(n)`` words long, or
    that hold a vertex id of n or more (a set bit past n in the last
    word)."""
    if words.shape[-1] != bitset.word_count(n):
        raise ValueError(f"block {tag!r}: sets of {words.shape[-1]} words, "
                         f"not the {bitset.word_count(n)} of n={n}")
    if n % bitset.WORD_BITS and (
            words[..., -1] >> np.uint64(n % bitset.WORD_BITS)).any():
        raise ValueError(f"block {tag!r}: a set holds a vertex id of "
                         f"n={n} or more")


def _check_members(tag: str, members: np.ndarray, n: int) -> None:
    """Refuse a repeated member, or one outside 0..n-1."""
    ids = np.sort(members)
    if ids.size and (ids[0] < 0 or ids[-1] >= n):
        raise ValueError(f"block {tag!r}: member out of range 0..{n - 1}")
    if (ids[1:] == ids[:-1]).any():
        raise ValueError(f"block {tag!r}: member repeated")


def _supports(graph: Graph, members: np.ndarray, part: np.ndarray,
              base: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    r"""(part, id) of every vertex of Gamma(left_p) ∩ (B \ left_p),
    part-major, ids ascending, left_p being the members with part id p
    and B the packed words ``base``: the (part, id) keys of the members'
    neighbors in B, gathered from the adjacency lists in one index
    array and sorted, less repeats and the members' own keys (found by
    binary search), so no array of n entries is built."""
    n = graph.n
    deg, ids = graph.neighbor_lists(members)
    keep = (base[ids >> 6] >> (ids & 63).astype(np.uint64)
            & np.uint64(1)).astype(bool)
    key = np.repeat(part, deg)[keep] * n + ids[keep]
    key.sort()
    own = part * n + members
    at = np.searchsorted(key, own)
    key = np.delete(key, np.concatenate([     # repeats, then own keys
        np.flatnonzero(key[1:] == key[:-1]) + 1,
        at[np.searchsorted(key, own, side="right") > at]]))
    return np.divmod(key, n)


class SharedSubsampleBlock:
    r"""Parts (left_p, B \ left_p) sharing one stack of seeded subsample
    planes.

    The block holds the member ids of its lefts, ``members``, the part
    id of each, ``part``, and one base vertex set B that every part
    shares; ``parts`` is range(number of parts), and a part may have no
    member.  Part p is (left_p, B \ left_p), left_p being the members
    with part id p.  The lefts are disjoint, so a cell assignment is a
    block as it stands: the degree sketch passes its cells with B = V (a
    part per cell, each against everything outside it), and the NS plan
    passes L as the one part with B = R.  A row of part p lies inside
    B \ left_p, so no row can overlap its left: ``validate`` refuses only
    a malformed block, one with a repeated or out-of-range member, an
    out-of-range part id or a base that is not the plan's size or holds
    an id past it.

    The planes, of shape (reps, levels, w), are nested subsamples of the
    whole vertex domain drawn from ``rng_for(*stream)`` (level 0 holds
    every vertex, each level thins the one before by a fair coin); the
    block stores that stream, not the planes.  ``draw_planes`` draws them
    all at once, the reference that ``iter_rows`` reads; ``evaluate``
    draws them a chunk of repetitions at a time from one generator, which
    gives the same planes.  The materialized row for part p is
    planes[r, i] & (B \ left_p).  Row index: p * reps * levels +
    r * levels + i.

    Evaluation uses survival depths (the max-rank idea of Flajolet-Martin
    and HyperLogLog): depth[u, r] is the deepest level whose plane holds
    u.  Nesting makes u present at every level up to its depth, so row
    (p, r, i) hits an edge iff the largest depth over part p's support
    Gamma(left_p) ∩ (B \ left_p) is at least i.  Each chunk's maxima
    (``_maxima``) are histogrammed straight into per-level no-edge
    counts, which is what ``evaluate`` returns; the maxima themselves
    are never kept for all repetitions.  Supports come from the graph's
    adjacency lists, so no array of (parts, w) words is built.  A
    chunk's depths are built from their binary digits and transposed at
    the support vertices only (``_depth_slab``), every chunk array
    holds at most ``bitset.SCRATCH_BYTES``, and all of them come from
    this thread's working set (``_WorkingSet``).
    """

    __slots__ = ("tag", "members", "part", "parts", "base", "reps", "levels",
                 "stream")

    def __init__(self, tag: str, members: np.ndarray, part: np.ndarray,
                 parts: int, base: VertexSet, reps: int, levels: int,
                 stream: tuple):
        self.tag = tag
        self.members = np.asarray(members, dtype=np.int64)
        self.part = np.asarray(part, dtype=np.int64)
        self.parts = range(parts)
        self.base = base
        self.reps = reps
        self.levels = levels
        self.stream = stream

    def n_queries(self) -> int:
        return len(self.parts) * self.reps * self.levels

    def draw_planes(self, w: int, cols: Optional[np.ndarray] = None):
        """The (reps, levels, w) planes, or only their word columns cols."""
        return bitset.nested_rate_masks(
            rng_for(*self.stream), np.full(w, ~np.uint64(0)), self.levels,
            self.reps, cols)

    def validate(self, n: int) -> None:
        if self.part.shape != self.members.shape:
            raise ValueError(f"block {self.tag!r}: one part id per member")
        _check_words(self.tag, self.base.words, n)
        _check_members(self.tag, self.members, n)
        if self.part.size and (self.part.min() < 0
                               or self.part.max() >= len(self.parts)):
            raise ValueError(f"block {self.tag!r}: part id out of range "
                             f"0..{len(self.parts) - 1}")

    def _maxima(self, graph: Graph) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """Each repetition chunk's top depths, chunks in draw order.

        Yields (order, acc): ``order`` lists the parts with a nonempty
        support, largest first, and acc, int8 of shape (order.size, c),
        holds part order[j]'s maximum depth over its support in each of
        the chunk's c repetitions.  A part with an empty support has no
        hit at any level and appears in no chunk.  Chunks are sized so
        that no array of a chunk exceeds ``bitset.SCRATCH_BYTES``.  A
        chunk's planes are drawn from the block's one generator on the
        word columns holding a support vertex only (full-range draws
        concatenate, so the chunks together are the whole draw), made
        into a vertex-major slab of the support vertices' depths, and
        each support's maximum over its slab rows is folded in by runs of
        ranks (``_rank_runs``).  acc lies in this thread's working set,
        so it is valid until the next chunk is drawn.
        """
        part, ids = _supports(graph, self.members, self.part,
                              self.base.words)
        if not ids.size:
            return
        w = self.base.words.size
        col = ids >> 6
        held = np.bincount(col, minlength=w) > 0
        cols = np.flatnonzero(held)
        k = np.bincount(part, minlength=len(self.parts))
        order = np.argsort(-k, kind="stable")[:np.count_nonzero(k)]
        # bytes per rep of the largest chunk array: the coin draw, the
        # depth slab or the maxima
        chunk = max(1, bitset.SCRATCH_BYTES // max(
            8 * self.levels * w, bitset.WORD_BITS * cols.size, order.size))
        # the support vertices' slab rows, each once, and each support
        # entry's index among them
        rows, at = np.unique((np.cumsum(held) - 1)[col] * bitset.WORD_BITS
                             + (ids & 63), return_inverse=True)
        runs = _rank_runs(k, order, at, chunk)
        del part, ids, col, at
        rng = rng_for(*self.stream)
        full = np.full(w, ~np.uint64(0))
        words = self.levels * cols.size       # plane words per rep
        if cols.size == w:
            cols = None       # every column: the draw needs no slicing
        for r0 in range(0, self.reps, chunk):
            c = min(chunk, self.reps - r0)
            _WORK.reserve()
            yield order, _fold_maxima(_depth_slab(bitset.nested_rate_masks(
                rng, full, self.levels, c, cols,
                out=_WORK.take((words * c,), np.uint64)), rows),
                runs, order.size)

    def evaluate(self, graph: Graph) -> np.ndarray:
        """Per-level no-edge counts, int64 of shape (parts, levels), each
        in 0..reps.

        Row (p, r, i) answers 1 iff i exceeds part p's top depth in
        repetition r, so the count at level i is reps minus the number of
        repetitions whose top is i or more: a suffix sum of the histogram
        of tops, which each chunk of ``_maxima`` adds to.  A part with an
        empty support has no top in any repetition and counts reps at
        every level.
        """
        counts = np.zeros((len(self.parts), self.levels), dtype=np.int64)
        for order, acc in self._maxima(graph):
            _add_histogram(counts, acc, order)
            del acc           # gone before the next chunk is drawn
        flipped = counts[:, ::-1]
        np.cumsum(flipped, axis=1, out=flipped)
        np.subtract(self.reps, counts, out=counts)
        return counts

    def iter_rows(self) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        n = self.base.n
        planes = self.draw_planes(self.base.words.size)
        for p in self.parts:
            left = bitset.pack_indices(n, self.members[self.part == p])
            base = self.base.words & ~left
            for r in range(self.reps):
                for i in range(self.levels):
                    yield left, planes[r, i] & base


def side_masks(n: int, positions: np.ndarray) -> np.ndarray:
    """The (2b+2, w) stack of bit-decoding sides of a recovery domain,
    with b = ``params.ser_bits(domain)``; ``positions[k]`` carries domain
    index k.

    Sides: the whole domain, the b one-bit sides (bit j of the index
    set), the b zero-bit sides (bit j clear) and verify (the whole domain
    again).
    """
    index = np.arange(positions.size)
    hi = ((index[:, None] >> np.arange(params.ser_bits(positions.size))) & 1
          ).astype(bool)
    whole = np.ones((index.size, 1), dtype=bool)
    inside = np.concatenate([whole, hi, ~hi, whole], axis=1)
    side, k = np.nonzero(inside.T)
    return bitset.pack_rows(n, side, positions[k], inside.shape[1])


class SidesSubsampleBlock:
    r"""Seeded subsample masks of a domain cut by bit-decoding sides.

    The block holds the member ids of its left and a packed base B,
    which blocks may share; its domain is B \ left (``domain``), in id
    order, and its sides are those of ``side_masks``.  A row lies
    inside the domain, so no row can overlap its left: ``validate``
    refuses only a malformed block, one with a repeated or out-of-range
    member or a base that is not the plan's size or holds an id past it.
    The masks, of shape (reps, levels, w) with levels =
    ``params.ser_levels(|domain|)``, are nested subsamples of the domain
    drawn from ``rng_for(seed, "ser-plan")``; the block stores that
    seed, not the masks, and ``draw_masks`` draws them afresh for each
    use.  Row for (level l, rep r, side q) is masks[r, l] & side q; row
    index l * reps * n_sides + r * n_sides + q.
    Every single element recovery plan is one of these blocks.

    Answers depend only on the support S = Gamma(left) ∩ domain, and a
    block is read only through its decoded pool, so ``evaluate`` returns
    the pool, not the answers.  Repetition r certifies a level l (whole
    side hit, every bit hit on exactly one side, verify hit) iff exactly
    one vertex of S survives in masks[r, l]: none misses the whole side,
    and two survivors have distinct domain indices, which differ in some
    bit, so that bit hits both sides.  The masks are nested, so the
    survivor count cannot rise with l, and the first level where it is 1
    is the first certified level; its one survivor is the certified
    vertex, so a pool holds vertex ids and domain indices live only in
    the sides (``iter_rows``).  ``pool`` counts survivors per (rep,
    level) on the word columns of S alone, sized by ``domain_size``
    without building the domain; ``evaluate`` finds S in the graph's
    adjacency lists, as a shared-plane block finds its supports, and the
    abstract SER plans (``element_recovery.answer_plan``) call ``pool``
    with a known support.
    """

    __slots__ = ("tag", "left", "base", "reps", "seed")

    def __init__(self, tag: str, left: np.ndarray, base: np.ndarray,
                 reps: int, seed):
        self.tag = tag
        self.left = np.asarray(left, dtype=np.int64)
        self.base = base
        self.reps = reps
        self.seed = seed

    def domain(self) -> np.ndarray:
        """The packed domain: base with the left's bits cleared, in a
        copy of base's words; only the reference rows (``iter_rows``,
        ``draw_masks``) build it."""
        words = self.base.copy()
        np.bitwise_and.at(words, self.left >> 6, ~np.left_shift(
            np.uint64(1), (self.left & 63).astype(np.uint64)))
        return words

    def domain_size(self) -> int:
        r"""|B \ left|: the base's popcount less the left ids set in it."""
        held = (self.base[self.left >> 6]
                >> (self.left & 63).astype(np.uint64) & np.uint64(1))
        return bitset.popcount(self.base) - int(np.count_nonzero(held))

    def n_queries(self) -> int:
        return params.ser_queries(self.domain_size(), self.reps)

    def draw_masks(self, cols: Optional[np.ndarray] = None) -> np.ndarray:
        """The (reps, levels, w) subsample masks, drawn inside the domain,
        or only their word columns cols."""
        domain = self.domain()
        levels = params.ser_levels(bitset.popcount(domain))
        return bitset.nested_rate_masks(rng_for(self.seed, "ser-plan"),
                                        domain, levels, self.reps, cols)

    def validate(self, n: int) -> None:
        _check_words(self.tag, self.base, n)
        _check_members(self.tag, self.left, n)

    def evaluate(self, graph: Graph) -> np.ndarray:
        """The recovery pool of the support Gamma(left) ∩ domain; see
        ``pool``."""
        return self.pool(bitset.pack_indices(graph.n, _supports(
            graph, self.left, np.zeros_like(self.left), self.base)[1]))

    def pool(self, support: np.ndarray) -> np.ndarray:
        """Vertex ids recovered from the support words ``support`` (a
        subset of the domain), int64 in scan order.

        One entry per repetition with a certified level: the one survivor
        at its first such level.  Scan order is level-major (level 0, the
        densest subsample, first), repetitions ascending.  The masks are
        drawn over the support, on its word columns only: the same
        full-width draw from the same stream, and, the support lying
        inside the domain, the domain's masks ANDed with the support.
        The survivor is the one set bit of its level's words.
        """
        cols = np.flatnonzero(support)
        if not cols.size:
            return np.empty(0, dtype=np.int64)
        held = bitset.nested_rate_masks(
            rng_for(self.seed, "ser-plan"), support,
            params.ser_levels(self.domain_size()), self.reps, cols)
        single = np.bitwise_count(held).sum(axis=2) == 1    # (reps, levels)
        rep = np.flatnonzero(single.any(axis=1))
        level = single.argmax(axis=1)[rep]
        order = np.argsort(level, kind="stable")
        words = held[rep[order], level[order]]    # one nonzero word each
        return (cols[words.argmax(axis=1)] * bitset.WORD_BITS
                + np.bitwise_count(words.max(axis=1) - np.uint64(1)))

    def iter_rows(self) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        masks = self.draw_masks()
        reps, levels, w = masks.shape
        n = w * bitset.WORD_BITS
        left = bitset.pack_indices(n, self.left)
        sides = side_masks(n, bitset.members(self.domain()))
        for l in range(levels):
            for r in range(reps):
                for side in sides:
                    yield left, masks[r, l] & side


class QueryPlan:
    """Ordered blocks of queries, built entirely before any submission."""

    def __init__(self, n: int, blocks: Optional[list] = None):
        self.n = n
        self.blocks = list(blocks) if blocks else []

    def size(self) -> int:
        return sum(b.n_queries() for b in self.blocks)

    def validate(self) -> None:
        """Check every block against the plan's n."""
        for b in self.blocks:
            b.validate(self.n)

    def iter_rows(self) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        for b in self.blocks:
            yield from b.iter_rows()


class Results(Sequence):
    """Results of one charged submission, one per block, evaluated when read.

    Item i is ``blocks[i].evaluate(graph)``: explicit-row answers, a
    shared-plane block's per-level no-edge counts or a recovery block's
    pool.  It is
    computed on every read and not kept, so a caller holds only the
    results it still references.
    Only `BisOracle.submit` builds one, after the plan was validated and
    charged, so a result exists only for queries already paid for.
    """

    __slots__ = ("_graph", "_blocks")

    def __init__(self, graph: Graph, blocks: tuple):
        self._graph = graph
        self._blocks = blocks

    def __len__(self) -> int:
        return len(self._blocks)

    def __getitem__(self, i: int) -> np.ndarray:
        return self._blocks[i].evaluate(self._graph)

    def __iter__(self) -> Iterator[np.ndarray]:
        # not Sequence's index loop, which would end quietly on an
        # IndexError raised inside evaluate
        return (b.evaluate(self._graph) for b in self._blocks)


# ---------------------------------------------------------------------------
# the oracle
# ---------------------------------------------------------------------------

class BisOracle:
    """Answers edge-existence queries against a hidden Graph.

    Answers are a pure function of (graph, query).  Every submission is
    counted; a submission outside a round scope is charged its own round.
    """

    def __init__(self, graph: Graph, ledger: Optional[QueryLedger] = None):
        self.graph = graph
        self.ledger = ledger if ledger is not None else QueryLedger()
        self._depth = 0
        self._charged = False

    @property
    def n(self) -> int:
        return self.graph.n

    @contextmanager
    def round(self):
        self._depth += 1
        try:
            yield self
        finally:
            self._depth -= 1
            if self._depth == 0:
                self._charged = False

    def _charge_round(self) -> int:
        if self._depth == 0:
            return 1
        if not self._charged:
            self._charged = True
            return 1
        return 0

    def submit(self, plan: QueryPlan) -> Results:
        """Validate and charge every query in the plan; one result per block.

        The whole plan is charged here, each block ``n_queries()``, whether
        or not its result is ever read.  A result is an explicit-row
        block's answer array, a shared-plane block's (parts, levels)
        no-edge counts (the count at (p, i) is the number of repetitions
        whose row (p, r, i) answers 1) or a recovery block's pool of
        certified vertices; it is evaluated when read (see
        `Results`), over the blocks the plan held at submit.  A plan
        built for another n, or with a block that does not fit its n, is
        refused before any charge.
        """
        if plan.n != self.n:
            raise ValueError(f"plan for n={plan.n} submitted to a graph "
                             f"of n={self.n}")
        plan.validate()
        rounds = self._charge_round()
        self.ledger.charge("_batch", 0, batches=1, rounds=rounds)
        for b in plan.blocks:
            self.ledger.charge(b.tag, b.n_queries())
        return Results(self.graph, tuple(plan.blocks))

    def bis(self, left: VertexSet, right: VertexSet, tag: str = "adhoc") -> int:
        """Single query: 1 iff no edge joins left and right."""
        if not left.isdisjoint(right):
            raise DisjointnessError("bis: L and R overlap")
        rounds = self._charge_round()
        gamma = self.graph.neighborhood_words(left.members())
        answer = 0 if (gamma & right.words).any() else 1
        self.ledger.charge(tag, 1, batches=1, rounds=rounds)
        return answer

