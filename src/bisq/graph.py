"""Hidden graph, generators, edge-list I/O, and exact brute-force oracles.

The graph is immutable after construction.  Its one stored adjacency is
the sorted array of its edge keys u * n + v, u < v, and the adjacency
lists derived from it: the query oracle reads the lists to find the
neighbors its queries test, or the edges to test many rows at once.
Test code uses the exact oracles here as ground truth for everything
the estimators report.
"""
from __future__ import annotations

import re
from typing import Iterable, Optional, Sequence

import numpy as np

from . import bitset
from .errors import GraphParseError
from .seeding import rng_for

# edges per formatted block of dump_edge_list
_DUMP_EDGES = 1 << 12


class VertexSet:
    """Dense bit-indexed subset of 0..n-1."""

    __slots__ = ("n", "words")

    def __init__(self, n: int, words: Optional[np.ndarray] = None):
        self.n = n
        if words is None:
            words = bitset.empty_words(n)
        self.words = words
        self.words.setflags(write=False)

    @classmethod
    def from_indices(cls, n: int, indices) -> "VertexSet":
        return cls(n, bitset.pack_indices(n, indices))

    @classmethod
    def full(cls, n: int) -> "VertexSet":
        return cls(n, bitset.full_words(n))

    @classmethod
    def empty(cls, n: int) -> "VertexSet":
        return cls(n)

    def members(self) -> np.ndarray:
        return bitset.members(self.words, self.n)

    def __len__(self) -> int:
        return bitset.popcount(self.words)

    def __contains__(self, v: int) -> bool:
        return 0 <= v < self.n and bitset.contains(self.words, v)

    def __and__(self, other: "VertexSet") -> "VertexSet":
        return VertexSet(self.n, self.words & other.words)

    def __or__(self, other: "VertexSet") -> "VertexSet":
        return VertexSet(self.n, self.words | other.words)

    def difference(self, other: "VertexSet") -> "VertexSet":
        return VertexSet(self.n, self.words & ~other.words)

    def complement(self) -> "VertexSet":
        return VertexSet(self.n, bitset.trim_tail(~self.words, self.n))

    def isdisjoint(self, other: "VertexSet") -> bool:
        return not bool((self.words & other.words).any())

    def __eq__(self, other) -> bool:
        return (isinstance(other, VertexSet) and self.n == other.n
                and bool(np.array_equal(self.words, other.words)))

    def __hash__(self) -> int:
        return hash((self.n, self.words.tobytes()))

    def __repr__(self) -> str:
        return f"VertexSet(n={self.n}, size={len(self)})"


class Graph:
    """Simple undirected graph on the vertex ids 0..n-1, stored as its edges.

    ``edge_keys``, int64 and read-only, holds every edge once as the key
    u * n + v, u < v, sorted: the one stored adjacency, which ``ends``
    reads back as pairs and the adjacency lists (``csr``) and degrees
    derive from on first use.  ``pair_keys`` validates pairs into keys,
    and ``__init__`` merges repeated keys; ``from_edges`` does both.
    """

    __slots__ = ("n", "m", "edge_keys", "_csr")

    def __init__(self, n: int, keys: np.ndarray):
        """``keys``: int64, u * n + v with u < v per edge, in any order
        and possibly repeated; it is sorted in place and kept."""
        keys.sort()
        # a flag per key, not a diff: the keys can be most of the scratch
        repeats = np.flatnonzero(keys[1:] == keys[:-1])
        if repeats.size:
            keys = np.delete(keys, repeats + 1)
        keys.setflags(write=False)
        self.n = n
        self.m = keys.size
        self.edge_keys = keys
        self._csr = None

    def __reduce__(self):
        # rebuild through __init__ so an unpickled graph is read-only too
        return Graph, (self.n, self.edge_keys)

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        return cls(n, pair_keys(n, list(edges)))

    def ends(self, lo: int = 0,
             hi: Optional[int] = None) -> tuple[np.ndarray, np.ndarray]:
        """(u, v), int64: the ends of edges lo..hi-1, every edge by
        default, u < v, sorted by u then v."""
        return np.divmod(self.edge_keys[lo:hi], self.n)

    def degree(self, v: int) -> int:
        indptr = self.csr[0]
        return int(indptr[v + 1] - indptr[v])

    @property
    def degrees(self) -> np.ndarray:
        degs = np.diff(self.csr[0])
        degs.setflags(write=False)
        return degs

    @property
    def csr(self) -> tuple[np.ndarray, np.ndarray]:
        """Adjacency lists (indptr, indices), int64: the neighbors of v,
        ascending, are indices[indptr[v]:indptr[v + 1]].

        O(n + m), built on first use and kept.  Edge (u, v) goes in as
        v's neighbor u and u's neighbor v; the edges come sorted by u then
        v, so a stable sort by owner keeps each list ascending.
        """
        if self._csr is None:
            u, v = self.ends()
            owner = np.concatenate([v, u])
            indices = np.concatenate([u, v])[np.argsort(owner, kind="stable")]
            indptr = np.zeros(self.n + 1, dtype=np.int64)
            np.cumsum(np.bincount(owner, minlength=self.n), out=indptr[1:])
            indptr.setflags(write=False)
            indices.setflags(write=False)
            self._csr = (indptr, indices)
        return self._csr

    def neighbors(self, v: int) -> np.ndarray:
        indptr, indices = self.csr
        return indices[indptr[v]:indptr[v + 1]]

    def neighbor_lists(self, member_ids) -> tuple[np.ndarray, np.ndarray]:
        """(deg, ids): each list's length and the adjacency lists of
        member_ids concatenated in order, gathered in one index array."""
        indptr, indices = self.csr
        start = indptr[member_ids]
        deg = indptr[member_ids + 1] - start
        at = np.repeat(start - (np.cumsum(deg) - deg), deg)
        at += np.arange(at.size)
        return deg, indices[at]

    def neighborhood_words(self, member_ids) -> np.ndarray:
        """Packed union of adjacency lists: Gamma(S) for S given by ids."""
        return bitset.pack_indices(self.n, self.neighbor_lists(member_ids)[1])

    def has_edge(self, u, v):
        """Whether u and v are adjacent; for arrays of ids, elementwise:
        a key is an edge's iff its right insertion point in the edge keys
        lies past its left one."""
        u, v = np.asarray(u, dtype=np.int64), np.asarray(v, dtype=np.int64)
        want = np.minimum(u, v) * self.n + np.maximum(u, v)
        hit = (np.searchsorted(self.edge_keys, want, side="right")
               > np.searchsorted(self.edge_keys, want))
        return hit if hit.ndim else bool(hit)

    def edges(self, lo: int = 0,
              hi: Optional[int] = None) -> list[tuple[int, int]]:
        """Edges lo..hi-1 (all by default) as (u, v) tuples of ints, u < v,
        sorted by u then v."""
        u, v = self.ends(lo, hi)
        return list(zip(u.tolist(), v.tolist()))

    @property
    def adj_words(self) -> np.ndarray:
        """The (n, word_count(n)) bit matrix, packed from the lists on each
        read.  No code in bisq reads it; it stays for the generate-gnp8k
        gate of perfbench/run.py, and goes when ROADMAP item 1 makes that
        gate compare edges."""
        u, v = self.ends()
        return bitset.pack_rows(self.n, np.concatenate([u, v]),
                                np.concatenate([v, u]), self.n)


def pair_keys(n: int, pairs) -> np.ndarray:
    """``Graph`` keys min(u, v) * n + max(u, v), int64, of the rows of a
    (k, 2) array-like of pairs; a self-loop or an id outside 0..n-1
    raises ValueError naming the first bad pair."""
    e = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    bad = (e[:, 0] == e[:, 1]) | ((e < 0) | (e >= n)).any(axis=1)
    if bad.any():
        u, v = e[np.argmax(bad)].tolist()
        if u == v:
            raise ValueError(f"self-loop ({u},{v})")
        raise ValueError(f"edge ({u},{v}) out of range for n={n}")
    return e.min(axis=1) * n + e.max(axis=1)


# ---------------------------------------------------------------------------
# exact oracles (test ground truth)
# ---------------------------------------------------------------------------

def exact_neighborhood_size(g: Graph, left: VertexSet, right: VertexSet) -> int:
    """|Gamma(L) ∩ R| by direct enumeration.  L and R must be disjoint."""
    if not left.isdisjoint(right):
        raise ValueError("left and right sets overlap")
    gamma = g.neighborhood_words(left.members())
    return bitset.popcount(gamma & right.words)


def components(n: int, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Label each of 0..n-1 with the least vertex of its component.

    The edges are (u[i], v[i]); repeats are harmless.  Label propagation
    with pointer jumping (the hook-and-shortcut scheme of Shiloach and
    Vishkin): each sweep lowers the labels of u, v, label[u] and label[v]
    to min(label[u], label[v]), then sets label = label[label], until no
    label changes.  A label always names a vertex of the same component,
    so at the fixed point each component carries its least vertex.
    """
    label = np.arange(n, dtype=np.int64)
    while True:
        lu, lv = label[u], label[v]
        low = np.minimum(lu, lv)
        swept = label.copy()
        for ends in (u, v, lu, lv):
            np.minimum.at(swept, ends, low)
        swept = swept[swept]
        if np.array_equal(swept, label):
            return label
        label = swept


def exact_components(g: Graph) -> list[list[int]]:
    """Connected components as sorted vertex lists, least vertex first."""
    label = components(g.n, *g.ends())
    order = np.argsort(label, kind="stable")
    starts = np.flatnonzero(np.diff(label[order])) + 1
    return [part.tolist() for part in np.split(order, starts)] if g.n else []


def exact_connected(g: Graph) -> tuple[bool, list[list[int]]]:
    """(is_connected, components).  n <= 1 counts as connected."""
    comps = exact_components(g)
    return len(comps) <= 1, comps


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------

def gen_gnp(n: int, p: float, seed=0) -> Graph:
    """G(n, p): every unordered pair is an edge independently w.p. p.

    Pair (i, j), i < j, is an edge iff entry (i, j) of an n x n uniform
    draw, read row-major from the stream ``rng_for(seed, "gnp", n)``,
    falls below p.  The draw is made row by row from the same stream:
    row i skips its i + 1 entries up to the diagonal with
    ``bit_generator.advance`` (a double takes one 64-bit output) and
    draws its n - i - 1 entries right of it.  The scratch is each row's
    kept offsets j - i - 1 as int32 ids, O(n + m), never the n x n draw;
    they become the edge keys row by row, so the peak is the keys plus
    those ids, 12 bytes per edge.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    if p == 0.0 or n < 2:
        return Graph(n, np.empty(0, dtype=np.int64))
    rng = rng_for(seed, "gnp", n)
    kept = []
    for i in range(n):
        rng.bit_generator.advance(i + 1)
        kept.append((rng.random(n - i - 1) < p).nonzero()[0]
                    .astype(np.int32))
    keys = np.empty(sum(k.size for k in kept), dtype=np.int64)
    at = 0
    for i in range(n):     # row i's offset k is pair (i, i + 1 + k)
        row = keys[at:at + kept[i].size]
        np.add(kept[i], i * (n + 1) + 1, out=row, dtype=np.int64)
        at += row.size
        kept[i] = None
    return Graph(n, keys)


def _block_edges(kind: str, size: int, offset: int, p: float,
                 seed) -> list[tuple[int, int]]:
    ids = list(range(offset, offset + size))
    if kind == "clique":
        return [(ids[i], ids[j]) for i in range(size) for j in range(i + 1, size)]
    if kind == "path":
        return [(ids[i], ids[i + 1]) for i in range(size - 1)]
    if kind == "star":
        return [(ids[0], ids[i]) for i in range(1, size)]
    if kind == "cycle":
        edges = [(ids[i], ids[i + 1]) for i in range(size - 1)]
        if size > 2:
            edges.append((ids[0], ids[-1]))
        return edges
    if kind == "gnp":
        sub = gen_gnp(size, p, seed)
        return [(u + offset, v + offset) for u, v in sub.edges()]
    raise ValueError(f"unknown component kind {kind!r}")


def gen_family(kind: str, *, n: int = 0, a: int = 0, b: int = 0, k: int = 0,
               size: int = 0, sizes: Optional[Sequence[int]] = None,
               inner: str = "clique", p: float = 0.5, seed=0) -> Graph:
    """Named deterministic topologies.

    kinds: star, path, clique, cycle, complete_bipartite(a, b), and
    components(k, sizes|size, inner) which lays out k disjoint blocks.
    """
    if kind in ("star", "path", "clique", "cycle"):
        if n < 1:
            raise ValueError("n must be >= 1")
        return Graph.from_edges(n, _block_edges(kind, n, 0, p, seed))
    if kind == "complete_bipartite":
        if a < 1 or b < 1:
            raise ValueError("both sides must be nonempty")
        edges = [(i, a + j) for i in range(a) for j in range(b)]
        return Graph.from_edges(a + b, edges)
    if kind == "components":
        if sizes is None:
            if k < 1 or size < 1:
                raise ValueError("components needs k and size (or sizes)")
            sizes = [size] * k
        if k and len(sizes) != k:
            raise ValueError("len(sizes) must equal k")
        edges: list[tuple[int, int]] = []
        offset = 0
        for idx, sz in enumerate(sizes):
            edges.extend(_block_edges(inner, sz, offset, p, (seed, idx)))
            offset += sz
        return Graph.from_edges(offset, edges)
    raise ValueError(f"unknown family kind {kind!r}")


# ---------------------------------------------------------------------------
# edge-list text I/O
# ---------------------------------------------------------------------------

def load_edge_list(text: str) -> Graph:
    """Parse "u v" lines into a Graph.

    An optional leading header "# n=<N>" fixes the vertex count; without
    it, n is 1 + the largest id seen.  Lines that are blank are skipped.
    Self-loops and malformed lines raise GraphParseError naming the line.
    Lines, ended by newlines, are read one at a time into one array('q').
    """
    # imported here: its extension module costs every command that reads
    # no file resident memory
    from array import array
    n_header: Optional[int] = None
    ids = array("q")
    max_id = -1
    for lineno, match in enumerate(re.finditer("^.*$", text, re.M), start=1):
        line = match.group().strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            if body.startswith("n="):
                try:
                    n_header = int(body[2:])
                    if n_header < 0:
                        raise ValueError(n_header)
                except ValueError:
                    raise GraphParseError(f"line {lineno}: bad header {line!r}")
            continue
        try:
            u, v = map(int, line.split())
        except ValueError:
            raise GraphParseError(f"line {lineno}: expected two integers, got {line!r}")
        if u == v:
            raise GraphParseError(f"line {lineno}: self-loop {u}")
        if u < 0 or v < 0:
            raise GraphParseError(f"line {lineno}: negative vertex id")
        if n_header is not None and (u >= n_header or v >= n_header):
            raise GraphParseError(
                f"line {lineno}: vertex id exceeds declared n={n_header}")
        max_id = max(max_id, u, v)
        ids.extend((u, v))
    n = n_header if n_header is not None else max_id + 1
    return Graph(n, pair_keys(n, np.frombuffer(ids, dtype=np.int64)))


def dump_edge_list(g: Graph) -> str:
    """Writer form: header plus one "u v" line per edge, u < v, sorted.

    The lines are formatted ``_DUMP_EDGES`` edges at a time, so one
    block's tuples and strings are alive at once beside the text.
    """
    blocks = ("".join(f"{u} {v}\n" for u, v in g.edges(lo, lo + _DUMP_EDGES))
              for lo in range(0, g.m, _DUMP_EDGES))
    return "".join([f"# n={g.n}\n", *blocks])
