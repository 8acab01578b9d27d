"""Hidden graph, generators, edge-list I/O, and exact brute-force oracles.

The graph is immutable after construction.  Adjacency lives in a packed
bit matrix so the query oracle can answer set-vs-set edge tests with a
few word operations; test code uses the exact oracles here as ground
truth for everything the estimators report.
"""
from __future__ import annotations

from typing import Iterable, Optional, Sequence

import numpy as np

from . import bitset
from .errors import GraphParseError
from .seeding import rng_for


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
    """Simple undirected graph with packed adjacency.

    Vertex ids are dense 0..n-1.  Construction validates simplicity
    (no self-loops, symmetric adjacency) and caches m.  The adjacency
    lists (``csr``) are built on first use, not here.
    """

    __slots__ = ("n", "adj_words", "m", "_degrees", "_csr")

    def __init__(self, n: int, adj_words: np.ndarray):
        if adj_words.shape != (n, bitset.word_count(n)):
            raise ValueError("adjacency matrix shape mismatch")
        self.n = n
        self.adj_words = adj_words
        self.adj_words.setflags(write=False)
        degs = np.bitwise_count(adj_words).sum(axis=1).astype(np.int64)
        self._degrees = degs
        self._degrees.setflags(write=False)
        total = int(degs.sum())
        if total % 2:
            raise ValueError("degree sum is odd; adjacency not symmetric")
        self.m = total // 2
        self._csr = None
        self._check_invariants()

    def _check_invariants(self) -> None:
        """No self-loop, then symmetry one 64-row slab at a time.

        Rows 64j..64j+63, unpacked, must equal word column j of every
        row, unpacked and transposed, so the scratch is O(64 n) bytes.
        """
        n = self.n
        v = np.arange(n)
        diag = self.adj_words[v, v >> 6] >> (v & 63).astype(np.uint64)
        loops = np.flatnonzero(diag & np.uint64(1))
        if loops.size:
            raise ValueError(f"self-loop at vertex {loops[0]}")
        for j in range(self.adj_words.shape[1]):
            rows = np.unpackbits(
                self.adj_words[j * 64:(j + 1) * 64].view(np.uint8), axis=1,
                bitorder="little")[:, :n]
            column = self.adj_words[:, j:j + 1].copy().view(np.uint8)
            bits = np.unpackbits(column, axis=1, bitorder="little")
            if not np.array_equal(rows, bits[:, :rows.shape[0]].T):
                raise ValueError("adjacency is not symmetric")

    def __reduce__(self):
        # rebuild through __init__ so an unpickled graph is read-only too
        return Graph, (self.n, self.adj_words)

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        e = np.array(list(edges), dtype=np.int64).reshape(-1, 2)
        bad = (e[:, 0] == e[:, 1]) | ((e < 0) | (e >= n)).any(axis=1)
        if bad.any():
            u, v = e[np.argmax(bad)].tolist()
            if u == v:
                raise ValueError(f"self-loop ({u},{v})")
            raise ValueError(f"edge ({u},{v}) out of range for n={n}")
        rows = np.concatenate([e[:, 0], e[:, 1]])
        cols = np.concatenate([e[:, 1], e[:, 0]])
        return cls(n, bitset.pack_rows(n, rows, cols, n))

    def degree(self, v: int) -> int:
        return int(self._degrees[v])

    @property
    def degrees(self) -> np.ndarray:
        return self._degrees

    def neighbors(self, v: int) -> np.ndarray:
        return bitset.members(self.adj_words[v], self.n)

    @property
    def csr(self) -> tuple[np.ndarray, np.ndarray]:
        """Adjacency lists (indptr, indices), int64: the neighbors of v,
        ascending, are indices[indptr[v]:indptr[v + 1]].

        O(n + m), built on first use and kept.  The bit rows are unpacked
        in blocks of about ``bitset.SCRATCH_BYTES`` of adjacency words, so
        the transient stays small next to the lists.
        """
        if self._csr is None:
            indptr = np.zeros(self.n + 1, dtype=np.int64)
            np.cumsum(self._degrees, out=indptr[1:])
            indices = np.empty(indptr[-1], dtype=np.int64)
            step = max(1, bitset.SCRATCH_BYTES
                       // (8 * max(1, self.adj_words.shape[1])))
            for a in range(0, self.n, step):
                b = min(a + step, self.n)
                indices[indptr[a]:indptr[b]] = bitset.members_rows(
                    self.adj_words[a:b], self.n)[1]
            indptr.setflags(write=False)
            indices.setflags(write=False)
            self._csr = (indptr, indices)
        return self._csr

    def neighborhood_words(self, member_ids: np.ndarray) -> np.ndarray:
        """Packed union of adjacency rows: Gamma(S) for S given by ids."""
        if len(member_ids) == 0:
            return bitset.empty_words(self.n)
        return np.bitwise_or.reduce(self.adj_words[member_ids], axis=0)

    def neighborhood_rows(self, lefts: np.ndarray) -> np.ndarray:
        """Gamma(left) of every row of a (rows, w) stack of left masks.

        Rows go through in blocks of about ``bitset.SCRATCH_BYTES`` of
        member adjacency rows (a block holds at least one row); each
        block's members are gathered and OR-reduced per row.  A row whose
        left is empty stays zero.
        """
        gammas = np.zeros_like(lefts)
        counts = np.bitwise_count(lefts).sum(axis=1, dtype=np.int64)
        step = max(1, bitset.SCRATCH_BYTES // (8 * max(1, lefts.shape[1])))
        cuts = np.flatnonzero(np.diff((np.cumsum(counts) - counts) // step,
                                      prepend=-1))
        for a, b in zip(cuts, np.append(cuts[1:], counts.size)):
            row, member = bitset.members_rows(lefts[a:b], self.n)
            if row.size:
                starts = np.flatnonzero(np.diff(row, prepend=-1))
                gammas[a + row[starts]] = np.bitwise_or.reduceat(
                    self.adj_words[member], starts, axis=0)
        return gammas

    def has_edge(self, u, v):
        """Whether u and v are adjacent; for arrays of ids, elementwise in
        one gather of adjacency bits."""
        v = np.asarray(v)
        bits = self.adj_words[u, v >> 6] >> (v & 63).astype(np.uint64)
        hit = (bits & 1).astype(bool)
        return hit if hit.ndim else bool(hit)

    def edges(self) -> list[tuple[int, int]]:
        """Every edge once as (u, v), u < v, sorted by u then v."""
        u, v = bitset.members_rows(self.adj_words, self.n)
        keep = u < v
        return list(zip(u[keep].tolist(), v[keep].tolist()))


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
    label = components(g.n, *bitset.members_rows(g.adj_words, g.n))
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
    draws its n - i - 1 entries right of it.  The scratch is the kept
    (i, j) as int32 ids, O(n + m), never the n x n draw.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    adj = np.zeros((n, bitset.word_count(n)), dtype=np.uint64)
    if p == 0.0 or n < 2:
        return Graph(n, adj)
    rng = rng_for(seed, "gnp", n)
    kept = []
    for i in range(n):
        rng.bit_generator.advance(i + 1)
        kept.append((rng.random(n - i - 1) < p).nonzero()[0]
                    .astype(np.int32))
    u = np.repeat(np.arange(n, dtype=np.int32), [k.size for k in kept])
    v = np.concatenate(kept)
    del kept    # the per-row arrays, before the adjacency is filled
    v += u
    v += 1
    bitset.or_bits(adj, u, v)
    bitset.or_bits(adj, v, u)
    return Graph(n, adj)


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
    """
    n_header: Optional[int] = None
    edges: list[tuple[int, int]] = []
    max_id = -1
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
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
        parts = line.split()
        if len(parts) != 2:
            raise GraphParseError(f"line {lineno}: expected two integers, got {line!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
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
        edges.append((min(u, v), max(u, v)))
    n = n_header if n_header is not None else max_id + 1
    return Graph.from_edges(n, sorted(set(edges)))


def dump_edge_list(g: Graph) -> str:
    """Writer form: header plus one "u v" line per edge, u < v, sorted."""
    lines = [f"# n={g.n}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"
