"""Bipartite-edge-existence oracle with exact query and round accounting.

A query gives two disjoint vertex sets (L, R) and the oracle answers 1
iff no edge of the hidden graph crosses between them.  Queries are
submitted in plans (batches of blocks); a plan built without looking at
any prior answer costs one adaptivity round, which callers express with
``with oracle.round(): ...`` scopes.

Blocks come in three kinds, each storing only what its rows are a
function of: explicit rows (the coarse bootstrap), subsample planes
shared by many (left, base) parts (the degree sketch, a part per cell,
and the NS plan, one part), and the subsample masks of single element
recovery, cut by bit-decoding sides derived from ``base`` itself
(``side_bits``).  Both subsample kinds hold the seed their planes or
masks are drawn from, not the planes or masks.  Evaluation is exact and
equivalent to answering every materialized (L, R) row separately, which
`iter_rows` exposes for verification.

`BisOracle.submit` validates and charges a whole plan at once and
returns its `Results`, which evaluate a block only when its result is
read: answers are a pure function of (graph, query), so when they are
computed changes no answer, and a caller holds only the results it
still references.  A block's result is its answers, one uint8 per row
in `iter_rows` order, except for a shared-plane block: its result is
the int8 top survival depths of shape (parts, reps), and row (p, r, i)
answers 1 iff i > top[p, r].  The degree sketch and the NS estimator
read per-level counts from that summary directly, so the parts x reps x
levels answers are never built.
"""
from __future__ import annotations

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
    """Explicit query rows: row k is (left[k], right[k])."""

    __slots__ = ("tag", "left", "right")

    def __init__(self, tag: str, left: np.ndarray, right: np.ndarray):
        if left.shape != right.shape:
            raise ValueError("left and right need one row per query each")
        self.tag = tag
        self.left = left
        self.right = right

    def n_queries(self) -> int:
        return self.right.shape[0]

    def validate(self) -> None:
        bad = (self.left & self.right).any(axis=1)
        if bad.any():
            raise DisjointnessError(
                f"block {self.tag!r}: query {int(np.argmax(bad))} "
                "has overlapping L and R")

    def evaluate(self, graph: Graph) -> np.ndarray:
        gammas = np.empty_like(self.left)
        for i, left in enumerate(self.left):
            gammas[i] = graph.neighborhood_words(bitset.members(left, graph.n))
        hit = (self.right & gammas).any(axis=1)
        return (~hit).astype(np.uint8)

    def iter_rows(self) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        return zip(self.left, self.right)


class SharedSubsampleBlock:
    """Many (left, base) pairs sharing one stack of seeded subsample planes.

    The planes, of shape (reps, levels, w), are nested subsamples of the
    whole vertex domain drawn from ``rng_for(*stream)`` (level 0 holds
    every vertex, each level thins the one before by a fair coin); the
    block stores that stream, not the planes, and ``draw_planes`` draws
    them afresh for each use.  The materialized row for part p is
    planes[r, i] & base_p.  Row index: p * reps * levels + r * levels + i.
    ``parts`` is nonempty: a cell each in the degree sketch, or the one
    (L, R) of the NS plan.

    Evaluation uses survival depths (the max-rank idea of Flajolet-Martin
    and HyperLogLog): depth[u, r] is the deepest level whose plane holds
    u.  Nesting makes u present at every level up to its depth, so row
    (p, r, i) hits an edge iff the largest depth over part p's support
    Gamma(left_p) ∩ base_p is at least i.  ``evaluate`` returns those
    maxima, top of shape (parts, reps), instead of the answers: row
    (p, r, i) answers 1 iff i > top[p, r], so top encodes every answer.
    """

    __slots__ = ("tag", "parts", "reps", "levels", "stream")

    def __init__(self, tag: str, parts: list[tuple[np.ndarray, np.ndarray]],
                 reps: int, levels: int, stream: tuple):
        self.tag = tag
        self.parts = parts
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

    def _stacked(self) -> tuple[np.ndarray, np.ndarray]:
        """Lefts and bases as two (parts, w) arrays."""
        lefts = np.array([left for left, _ in self.parts], dtype=np.uint64)
        bases = np.array([base for _, base in self.parts], dtype=np.uint64)
        return lefts, bases

    def validate(self) -> None:
        lefts, bases = self._stacked()
        bad = (lefts & bases).any(axis=1)
        if bad.any():
            raise DisjointnessError(
                f"block {self.tag!r}: part {int(np.argmax(bad))} left "
                "overlaps base")

    def _depth_table(self, w: int, cols: np.ndarray) -> np.ndarray:
        """Survival depths in word columns ``cols``, int8 of shape
        (64 * cols.size, reps); row 64 * j + b is bit b of column cols[j].

        Level 0 holds every vertex, so depths start at 0 and levels 1..
        are added one at a time: the transient is one level's bits.
        Accumulating rep-major and transposing once is ~4x faster than
        adding each level through a transposed view.
        """
        planes = self.draw_planes(w, cols)
        depth = np.zeros((self.reps, cols.size * bitset.WORD_BITS),
                         dtype=np.int8)
        for i in range(1, self.levels):
            depth += np.unpackbits(planes[:, i].view(np.uint8), axis=1,
                                   bitorder="little").view(np.int8)
        del planes
        return np.ascontiguousarray(depth.T)

    def _supports(self, graph: Graph) -> tuple[np.ndarray, np.ndarray]:
        """(part, id) pairs of every support Gamma(left_p) ∩ base_p.

        One OR-reduction over the adjacency rows of all lefts' members,
        grouped by part; parts with an empty left have an empty support.
        """
        lefts, bases = self._stacked()
        part, member = bitset.members_rows(lefts, graph.n)
        if not part.size:
            return part, member
        starts = np.flatnonzero(np.diff(part, prepend=-1))
        owners = part[starts]
        gamma = np.bitwise_or.reduceat(graph.adj_words[member], starts,
                                       axis=0)
        row, ids = bitset.members_rows(gamma & bases[owners], graph.n)
        return owners[row], ids

    def evaluate(self, graph: Graph) -> np.ndarray:
        """Top depths, int8 of shape (parts, reps); -1 for empty supports.

        The depth table covers only the word columns holding a support
        vertex.  The max over each support goes by rank step: parts sorted by support
        size k, descending, start from their first support id's depth
        row, and step j folds in the j-th id of the parts with k > j,
        which are a prefix of that order.
        """
        top = np.full((len(self.parts), self.reps), -1, dtype=np.int8)
        part, ids = self._supports(graph)
        if not ids.size:
            return top
        cols, col_of = np.unique(ids >> 6, return_inverse=True)
        ids = col_of * bitset.WORD_BITS + (ids & 63)
        depth = self._depth_table(graph.adj_words.shape[1], cols)
        k = np.bincount(part, minlength=len(self.parts))
        first = np.cumsum(k) - k
        order = np.argsort(-k, kind="stable")[:np.count_nonzero(k)]
        k, first = k[order], first[order]
        acc = depth[ids[first]]
        for j in range(1, int(k[0])):
            m = int(np.count_nonzero(k > j))
            np.maximum(acc[:m], depth[ids[first[:m] + j]], out=acc[:m])
        top[order] = acc
        return top

    def iter_rows(self) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        planes = self.draw_planes(self.parts[0][1].size)
        for left, base in self.parts:
            for r in range(self.reps):
                for i in range(self.levels):
                    yield left, planes[r, i] & base


def side_bits(index: np.ndarray, domain: int) -> np.ndarray:
    """Which bit-decoding sides hold each domain index: bool (k, 2b+2).

    Columns: the whole domain, the b one-bit sides (bit j of the index
    set), the b zero-bit sides (bit j clear) and verify (the whole domain
    again), with b = ``params.ser_bits(domain)``.
    """
    hi = ((index[:, None] >> np.arange(params.ser_bits(domain))) & 1
          ).astype(bool)
    whole = np.ones((index.size, 1), dtype=bool)
    return np.concatenate([whole, hi, ~hi, whole], axis=1)


def side_masks(n: int, positions: np.ndarray) -> np.ndarray:
    """The (2b+2, w) side stack; ``positions[k]`` carries domain index k."""
    inside = side_bits(np.arange(positions.size), positions.size)
    side, k = np.nonzero(inside.T)
    return bitset.pack_rows(n, side, positions[k], inside.shape[1])


class SidesSubsampleBlock:
    """Seeded subsample masks of a base cut by bit-decoding sides.

    The domain is members(base) in id order and its sides are
    ``side_bits`` of the domain indices.  The masks, of shape (reps,
    levels, w) with levels = ``params.ser_levels(|base|)``, are nested
    subsamples of base drawn from ``rng_for(seed, "ser-plan")``; the
    block stores that seed, not the masks, and ``draw_masks`` draws them
    afresh for each use.  Row for (level l, rep r, side q) is
    masks[r, l] & side q; row index l * reps * n_sides + r * n_sides + q.
    Used by the single-element recovery plans.

    Evaluation reads only the support Gamma(left) ∩ base: it gathers the
    mask bits of the k support vertices and the side bits of their domain
    indices, and row (l, r, q) hits iff some support vertex is held by
    both masks[r, l] and side q, so one (reps * levels, k) @ (k, n_sides)
    product counts every row's hits.
    """

    __slots__ = ("tag", "left", "base", "reps", "seed")

    def __init__(self, tag: str, left: np.ndarray, base: np.ndarray,
                 reps: int, seed):
        self.tag = tag
        self.left = left
        self.base = base
        self.reps = reps
        self.seed = seed

    def n_queries(self) -> int:
        return params.ser_queries(bitset.popcount(self.base), self.reps)

    def draw_masks(self) -> np.ndarray:
        """The (reps, levels, w) subsample masks, drawn inside base."""
        levels = params.ser_levels(bitset.popcount(self.base))
        return bitset.nested_rate_masks(rng_for(self.seed, "ser-plan"),
                                        self.base, levels, self.reps)

    def validate(self) -> None:
        if (self.left & self.base).any():
            raise DisjointnessError(
                f"block {self.tag!r}: left overlaps the sampled base set")

    def evaluate(self, graph: Graph) -> np.ndarray:
        masks = self.draw_masks()
        reps, levels, _ = masks.shape
        domain = bitset.members(self.base, graph.n)
        support = graph.neighborhood_words(
            bitset.members(self.left, graph.n)) & self.base
        ids = bitset.members(support, graph.n)
        byte, shift = ids >> 3, (ids & 7).astype(np.uint8)
        held = (masks.view(np.uint8)[:, :, byte] >> shift) & 1
        inside = side_bits(np.searchsorted(domain, ids), domain.size)
        counts = (held.reshape(reps * levels, -1).astype(np.float32)
                  @ inside.astype(np.float32))
        hit = (counts > 0.5).reshape(reps, levels, -1).transpose(1, 0, 2)
        return (~hit).astype(np.uint8).ravel()

    def iter_rows(self) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        masks = self.draw_masks()
        reps, levels, w = masks.shape
        n = w * bitset.WORD_BITS
        sides = side_masks(n, bitset.members(self.base, n))
        for l in range(levels):
            for r in range(reps):
                for side in sides:
                    yield self.left, masks[r, l] & side


class QueryPlan:
    """Ordered blocks of queries, built entirely before any submission."""

    def __init__(self, n: int, blocks: Optional[list] = None):
        self.n = n
        self.blocks = list(blocks) if blocks else []

    def add(self, block) -> None:
        self.blocks.append(block)

    def size(self) -> int:
        return sum(b.n_queries() for b in self.blocks)

    def phase_counts(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for b in self.blocks:
            out[b.tag] = out.get(b.tag, 0) + b.n_queries()
        return out

    def validate(self) -> None:
        for b in self.blocks:
            b.validate()

    def iter_rows(self) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        for b in self.blocks:
            yield from b.iter_rows()


class Results(Sequence):
    """Results of one charged submission, one per block, evaluated when read.

    Item i is ``blocks[i].evaluate(graph)``, computed on every read and
    not kept, so a caller holds only the results it still references.
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
        or not its result is ever read.  A result is the block's answer
        array, or for a shared-plane block its (parts, reps) top depths,
        row (p, r, i) answering 1 iff i > top[p, r]; it is evaluated when
        read (see `Results`), over the blocks the plan held at submit.
        """
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

