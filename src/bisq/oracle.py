"""Bipartite-edge-existence oracle with exact query and round accounting.

A query gives two disjoint vertex sets (L, R) and the oracle answers 1
iff no edge of the hidden graph crosses between them.  Queries are
submitted in plans (batches of blocks); a plan built without looking at
any prior answer costs one adaptivity round, which callers express with
``with oracle.round(): ...`` scopes.

Blocks come in three kinds, each storing only what its rows are a
function of: explicit rows in groups sharing one left (the coarse
bootstrap, and the NS plan as one group of subsample rows), shared
subsample planes for many (left, base) parts (the degree sketch), and
the subsample masks of single element recovery, held as the seed they
are drawn from and cut by bit-decoding sides derived from ``base``
itself (``side_bits``).  Evaluation is exact and equivalent to
answering every materialized (L, R) row separately, which `iter_rows`
exposes for verification.

`BisOracle.submit` validates and charges a whole plan at once and
returns its `Results`, which evaluate a block only when its result is
read: answers are a pure function of (graph, query), so when they are
computed changes no answer, and a caller holds only the results it
still references.  A block's result is its answers, one uint8 per row
in `iter_rows` order, except for a shared-plane block: its result is
the int8 top survival depths of shape (parts, reps), and row (p, r, i)
answers 1 iff i > top[p, r].  The degree sketch reads per-level counts
from that summary directly, so the parts x reps x levels answers are
never built.
"""
from __future__ import annotations

import threading
from collections.abc import Sequence
from contextlib import contextmanager
from typing import Iterator, Optional

import numpy as np

from . import bitset, params
from .errors import DisjointnessError, PlanError
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
    """Explicit query rows; ``left`` has one row per group of right rows."""

    __slots__ = ("tag", "left", "right", "rows_per_group")

    def __init__(self, tag: str, left: np.ndarray, right: np.ndarray,
                 rows_per_group: int):
        if right.shape[0] != left.shape[0] * rows_per_group:
            raise ValueError("right row count must be groups * rows_per_group")
        self.tag = tag
        self.left = left
        self.right = right
        self.rows_per_group = rows_per_group

    def n_queries(self) -> int:
        return self.right.shape[0]

    def validate(self) -> None:
        """One OR over each group's rows against its left; the offending
        row is located only when that check fails."""
        g = self.left.shape[0]
        r3 = self.right.reshape(g, self.rows_per_group, -1)
        bad = (np.bitwise_or.reduce(r3, axis=1) & self.left).any(axis=1)
        if bad.any():
            gi = int(np.argmax(bad))
            ri = int(np.argmax((r3[gi] & self.left[gi]).any(axis=1)))
            raise DisjointnessError(
                f"block {self.tag!r}: query {gi * self.rows_per_group + ri} "
                "has overlapping L and R")

    def evaluate(self, graph: Graph) -> np.ndarray:
        g = self.left.shape[0]
        n = graph.n
        gammas = np.empty_like(self.left)
        for i in range(g):
            gammas[i] = graph.neighborhood_words(bitset.members(self.left[i], n))
        r3 = self.right.reshape(g, self.rows_per_group, -1)
        hit = (r3 & gammas[:, None, :]).any(axis=2)
        return (~hit).astype(np.uint8).ravel()

    def iter_rows(self) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        for idx in range(self.right.shape[0]):
            yield self.left[idx // self.rows_per_group], self.right[idx]


class SharedSubsampleBlock:
    """Many (left, base) pairs sharing one stack of subsample planes.

    ``planes`` has shape (reps, levels, w) over the full vertex domain and
    must be nested within each repetition (level i+1 a subset of level i);
    the materialized row for part p is planes[r, i] & base_p.  Row index:
    p * reps * levels + r * levels + i.

    Evaluation uses survival depths (the max-rank idea of Flajolet-Martin
    and HyperLogLog): depth[u, r] is the deepest level whose plane holds
    u, or -1.  Nesting makes u present at every level up to its depth, so
    row (p, r, i) hits an edge iff the largest depth over part p's support
    Gamma(left_p) ∩ base_p is at least i.  ``evaluate`` returns those
    maxima, top of shape (parts, reps), instead of the answers: row
    (p, r, i) answers 1 iff i > top[p, r], so top encodes every answer.
    """

    __slots__ = ("tag", "planes", "parts")

    def __init__(self, tag: str, planes: np.ndarray,
                 parts: list[tuple[np.ndarray, np.ndarray]]):
        self.tag = tag
        self.planes = planes
        self.parts = parts

    def n_queries(self) -> int:
        return len(self.parts) * self.planes.shape[0] * self.planes.shape[1]

    def _stacked(self) -> tuple[np.ndarray, np.ndarray]:
        """Lefts and bases as two (parts, w) arrays."""
        w = self.planes.shape[2]
        lefts = np.array([left for left, _ in self.parts],
                         dtype=np.uint64).reshape(-1, w)
        bases = np.array([base for _, base in self.parts],
                         dtype=np.uint64).reshape(-1, w)
        return lefts, bases

    def validate(self) -> None:
        """Nesting checked one level against the one before, so the
        scratch is one (reps, w) level; then disjointness of every part."""
        for i in range(1, self.planes.shape[1]):
            if (self.planes[:, i] & ~self.planes[:, i - 1]).any():
                raise PlanError(
                    f"block {self.tag!r}: planes are not nested within a rep")
        lefts, bases = self._stacked()
        bad = (lefts & bases).any(axis=1)
        if bad.any():
            raise DisjointnessError(
                f"block {self.tag!r}: part {int(np.argmax(bad))} left "
                "overlaps base")

    def _depth_table(self, n: int) -> np.ndarray:
        """Survival depths, int8 of shape (n, reps); -1 where u is absent.

        Built one level at a time, so the transient is reps x n bytes;
        accumulating rep-major and transposing once is ~4x faster than
        adding each level through a transposed view.
        """
        reps, levels, _ = self.planes.shape
        depth = np.full((reps, n), -1, dtype=np.int8)
        for i in range(levels):
            held = np.unpackbits(self.planes[:, i].view(np.uint8), axis=1,
                                 bitorder="little")[:, :n]
            depth += held.view(np.int8)
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

        The max over each support goes by rank step: parts sorted by
        support size k, descending, start from their first support id's
        depth row, and step j folds in the j-th id of the parts with
        k > j, which are a prefix of that order.
        """
        reps = self.planes.shape[0]
        top = np.full((len(self.parts), reps), -1, dtype=np.int8)
        part, ids = self._supports(graph)
        if not ids.size:
            return top
        depth = self._depth_table(graph.n)
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
        reps, levels, _ = self.planes.shape
        for left, base in self.parts:
            for r in range(reps):
                for i in range(levels):
                    yield left, self.planes[r, i] & base


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

