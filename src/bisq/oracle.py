"""Bipartite-edge-existence oracle with exact query and round accounting.

A query gives two disjoint vertex sets (L, R) and the oracle answers 1
iff no edge of the hidden graph crosses between them.  Queries are
submitted in plans (batches of blocks); a plan built without looking at
any prior answer costs one adaptivity round, which callers express with
``with oracle.round(): ...`` scopes.

Blocks come in four types (explicit rows, one-left subsample masks,
shared subsample planes for many parts, side-refined subsample masks) so
the planners can hand over structured subsample masks instead of one row
per query; evaluation is exact and equivalent to answering every
materialized (L, R) row separately, which `iter_rows` exposes for
verification.

A block's result is its answers, one uint8 per row in `iter_rows`
order, except for a shared-plane block: its result is the int8 top
survival depths of shape (parts, reps), and row (p, r, i) answers 1 iff
i > top[p, r].  The degree sketch reads per-level counts from that
summary directly, so the parts x reps x levels answers are never built.
"""
from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Iterator, Optional

import numpy as np

from . import bitset
from .errors import DisjointnessError, PlanError
from .graph import Graph, VertexSet


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

    def as_dict(self) -> dict:
        return self.snapshot()


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
        g = self.left.shape[0]
        r3 = self.right.reshape(g, self.rows_per_group, -1)
        bad = (r3 & self.left[:, None, :]).any(axis=2)
        if bad.any():
            gi, ri = np.argwhere(bad)[0]
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


class SubsampleBlock:
    """One left set against nested subsample masks of a base set.

    ``masks`` has shape (reps, levels, w); row index r * levels + i maps
    to the query (left, masks[r, i] & base).  Planners draw masks inside
    base, so the intersection only pins down what a row is.
    """

    __slots__ = ("tag", "left", "base", "masks")

    def __init__(self, tag: str, left: np.ndarray, base: np.ndarray,
                 masks: np.ndarray):
        self.tag = tag
        self.left = left
        self.base = base
        self.masks = masks

    @property
    def reps(self) -> int:
        return self.masks.shape[0]

    @property
    def levels(self) -> int:
        return self.masks.shape[1]

    def n_queries(self) -> int:
        return self.masks.shape[0] * self.masks.shape[1]

    def validate(self) -> None:
        if (self.left & self.base).any():
            raise DisjointnessError(
                f"block {self.tag!r}: left overlaps the sampled base set")

    def evaluate(self, graph: Graph) -> np.ndarray:
        support = graph.neighborhood_words(
            bitset.members(self.left, graph.n)) & self.base
        hit = (self.masks & support).any(axis=-1)
        return (~hit).astype(np.uint8).ravel()

    def row_words(self, rep: int, level: int) -> np.ndarray:
        return self.masks[rep, level] & self.base

    def iter_rows(self) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        reps, levels, _ = self.masks.shape
        for r in range(reps):
            for i in range(levels):
                yield self.left, self.masks[r, i] & self.base


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
        if (self.planes[:, 1:] & ~self.planes[:, :-1]).any():
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


class SidesSubsampleBlock:
    """Subsample masks refined by fixed side masks (bit-decoding queries).

    Row for (level l, rep r, side q) is masks[r, l] & base & sides[q];
    row index l * reps * n_sides + r * n_sides + q.  Used by the
    single-element recovery plans, where sides are the bit-slice sets of
    the domain and masks are drawn inside base.

    Evaluation reads only the support Gamma(left) ∩ base: it gathers the
    mask and side bits of the k support vertices, and row (l, r, q) hits
    iff some support vertex is held by both masks[r, l] and sides[q], so
    one (reps * levels, k) @ (k, n_sides) product counts every row's hits.
    """

    __slots__ = ("tag", "left", "base", "masks", "sides")

    def __init__(self, tag: str, left: np.ndarray, base: np.ndarray,
                 masks: np.ndarray, sides: np.ndarray):
        self.tag = tag
        self.left = left
        self.base = base
        self.masks = masks          # (reps, levels, w)
        self.sides = sides          # (n_sides, w)

    def n_queries(self) -> int:
        reps, levels, _ = self.masks.shape
        return levels * reps * self.sides.shape[0]

    def validate(self) -> None:
        if (self.left & self.base).any():
            raise DisjointnessError(
                f"block {self.tag!r}: left overlaps the sampled base set")

    def evaluate(self, graph: Graph) -> np.ndarray:
        reps, levels, _ = self.masks.shape
        support = graph.neighborhood_words(
            bitset.members(self.left, graph.n)) & self.base
        ids = bitset.members(support, graph.n)
        byte, shift = ids >> 3, (ids & 7).astype(np.uint8)
        held = (self.masks.view(np.uint8)[:, :, byte] >> shift) & 1
        inside = (self.sides.view(np.uint8)[:, byte] >> shift) & 1
        counts = (held.reshape(reps * levels, -1).astype(np.float32)
                  @ inside.T.astype(np.float32))
        hit = (counts > 0.5).reshape(reps, levels, -1).transpose(1, 0, 2)
        return (~hit).astype(np.uint8).ravel()

    def iter_rows(self) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        reps, levels, _ = self.masks.shape
        for l in range(levels):
            for r in range(reps):
                row = self.masks[r, l] & self.base
                for q in range(self.sides.shape[0]):
                    yield self.left, row & self.sides[q]


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

    def submit(self, plan: QueryPlan) -> list[np.ndarray]:
        """Answer every query in the plan; one result per block.

        A result is the block's answer array, or for a shared-plane block
        its (parts, reps) top depths, row (p, r, i) answering 1 iff
        i > top[p, r].  Each block is charged ``n_queries()``.
        """
        plan.validate()
        rounds = self._charge_round()
        results = [b.evaluate(self.graph) for b in plan.blocks]
        self.ledger.charge("_batch", 0, batches=1, rounds=rounds)
        for b in plan.blocks:
            self.ledger.charge(b.tag, b.n_queries())
        return results

    def bis(self, left: VertexSet, right: VertexSet, tag: str = "adhoc") -> int:
        """Single query: 1 iff no edge joins left and right."""
        if not left.isdisjoint(right):
            raise DisjointnessError("bis: L and R overlap")
        rounds = self._charge_round()
        gamma = self.graph.neighborhood_words(left.members())
        answer = 0 if (gamma & right.words).any() else 1
        self.ledger.charge(tag, 1, batches=1, rounds=rounds)
        return answer

