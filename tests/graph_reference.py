"""Dense reference for ``Graph``, shared by the tests.

A ``Graph`` stores its edges as sorted keys and derives its adjacency
lists from them.  The reference here is the representation it replaced:
a packed n x n bit matrix with both (u, v) and (v, u) set for every
input pair, read the long way, one row or one bit at a time.
"""
import numpy as np

from bisq import bitset


class DenseReference:
    """Packed adjacency rows of the graph on 0..n-1 with the given pairs;
    reversed and repeated pairs set the same bits."""

    def __init__(self, n: int, pairs):
        self.n = n
        self.rows = np.zeros((n, bitset.word_count(n)), dtype=np.uint64)
        for u, v in pairs:
            assert u != v and 0 <= u < n and 0 <= v < n, (u, v)
            for a, b in ((u, v), (v, u)):
                self.rows[a, b >> 6] |= np.uint64(1) << np.uint64(b & 63)

    def has_edge(self, u: int, v: int) -> bool:
        return bitset.contains(self.rows[u], v)

    def neighbors(self, v: int) -> np.ndarray:
        return bitset.members(self.rows[v], self.n)

    def degrees(self) -> list[int]:
        return [int(bitset.popcount(row)) for row in self.rows]

    def edges(self) -> list[tuple[int, int]]:
        return [(u, int(v)) for u in range(self.n)
                for v in self.neighbors(u) if u < v]

    def neighborhood_words(self, ids) -> np.ndarray:
        gamma = bitset.empty_words(self.n)
        for v in ids:
            gamma |= self.rows[v]
        return gamma

    def components(self) -> list[list[int]]:
        """Vertex lists by depth-first search, each sorted, ordered by
        least vertex."""
        seen = [False] * self.n
        comps = []
        for s in range(self.n):
            if seen[s]:
                continue
            seen[s] = True
            stack, comp = [s], []
            while stack:
                v = stack.pop()
                comp.append(v)
                for u in self.neighbors(v).tolist():
                    if not seen[u]:
                        seen[u] = True
                        stack.append(u)
            comps.append(sorted(comp))
        return comps
