import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bisq import bitset
from bisq import (Graph, VertexSet, components, dump_edge_list,
                  exact_components, exact_connected, exact_neighborhood_size,
                  gen_family, gen_gnp, load_edge_list)
from bisq.errors import GraphParseError


def test_empty_graph_with_header():
    g = load_edge_list("# n=3\n")
    assert g.n == 3 and g.m == 0


def test_triangle_load():
    g = load_edge_list("0 1\n1 2\n0 2\n")
    assert g.n == 3 and g.m == 3
    assert g.degree(0) == g.degree(1) == g.degree(2) == 2


def test_self_loop_rejected():
    with pytest.raises(GraphParseError, match="line 1"):
        load_edge_list("0 0\n")


def test_malformed_line_names_line_number():
    with pytest.raises(GraphParseError, match="line 2"):
        load_edge_list("0 1\n0 1 2\n")


def test_negative_header_rejected():
    with pytest.raises(GraphParseError, match="line 1: bad header"):
        load_edge_list("# n=-5\n")


def test_header_bound_enforced():
    with pytest.raises(GraphParseError, match="line 2"):
        load_edge_list("# n=2\n0 5\n")


def test_duplicate_edges_deduplicated():
    g = load_edge_list("0 1\n1 0\n0 1\n")
    assert g.m == 1


def test_round_trip():
    g = gen_gnp(50, 0.1, seed=2)
    g2 = load_edge_list(dump_edge_list(g))
    assert g2.n == g.n and g2.m == g.m
    assert np.array_equal(g.adj_words, g2.adj_words)


def test_gnp_extremes():
    assert gen_gnp(10, 0.0, seed=1).m == 0
    assert gen_gnp(10, 1.0, seed=1).m == 45


def _gnp_full_draw(n, p, seed):
    # G(n, p) from one n x n uniform draw, kept as the reference
    from bisq.seeding import rng_for
    if p == 0.0:
        return np.zeros((n, bitset.word_count(n)), dtype=np.uint64)
    tri = np.triu(rng_for(seed, "gnp", n).random((n, n)) < p, k=1)
    return bitset.pack_bool(tri | tri.T)


@pytest.mark.parametrize("n", [0, 1, 2, 63, 64, 65, 300])
@pytest.mark.parametrize("p", [0.0, 0.01, 0.5, 1.0])
def test_gnp_rows_equal_the_full_draw(n, p):
    for seed in (0, 7, ("c7", 1)):
        g = gen_gnp(n, p, seed)
        assert np.array_equal(g.adj_words, _gnp_full_draw(n, p, seed))


def test_gnp_scratch_stays_under_the_full_draw():
    # at p = 1 every pair is kept, the worst case for the int32 pair ids;
    # the n x n float draw alone was 8 n^2 bytes
    import tracemalloc
    n = 1000
    tracemalloc.start()
    try:
        g = gen_gnp(n, 1.0, seed=2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert g.m == n * (n - 1) // 2
    assert peak < 8 * n * n


def test_gnp_binomial_mean():
    g = gen_gnp(1024, 0.01, seed=7)
    pairs = 1024 * 1023 // 2
    mean = pairs * 0.01
    sigma = math.sqrt(pairs * 0.01 * 0.99)
    assert abs(g.m - mean) <= 3 * sigma


def test_gnp_deterministic_given_seed():
    a, b = gen_gnp(128, 0.05, seed=9), gen_gnp(128, 0.05, seed=9)
    assert np.array_equal(a.adj_words, b.adj_words)


def test_star_degrees():
    g = gen_family("star", n=5)
    assert sorted(g.degrees.tolist(), reverse=True) == [4, 1, 1, 1, 1]


def test_path():
    g = gen_family("path", n=4)
    assert g.m == 3
    assert exact_connected(g)[0]


def test_components_family():
    g = gen_family("components", k=3, sizes=[4, 4, 4], inner="clique")
    ok, comps = exact_connected(g)
    assert not ok and len(comps) == 3
    assert g.m == 3 * 6


def test_complete_bipartite():
    g = gen_family("complete_bipartite", a=3, b=4)
    assert g.n == 7 and g.m == 12


def test_singleton_connected():
    g = Graph.from_edges(1, [])
    assert exact_connected(g)[0]


def test_exact_ns_triangle():
    g = load_edge_list("0 1\n1 2\n0 2\n")
    L = VertexSet.from_indices(3, [0])
    R = VertexSet.from_indices(3, [1, 2])
    assert exact_neighborhood_size(g, L, R) == 2


def test_exact_ns_empty_left():
    g = gen_gnp(32, 0.2, seed=1)
    assert exact_neighborhood_size(
        g, VertexSet.empty(32), VertexSet.full(32)) == 0


def test_exact_ns_rejects_overlap():
    g = gen_gnp(8, 0.5, seed=1)
    s = VertexSet.from_indices(8, [1, 2])
    with pytest.raises(ValueError):
        exact_neighborhood_size(g, s, s)


def test_graph_rejects_self_loop_edges():
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(1, 1)])


def test_adjacency_immutable():
    g = gen_gnp(16, 0.2, seed=1)
    with pytest.raises(ValueError):
        g.adj_words[0, 0] = np.uint64(1)


def test_unpickled_graph_is_read_only():
    g = gen_gnp(70, 0.2, seed=3)
    h = pickle.loads(pickle.dumps(g))
    assert h.n == g.n and h.m == g.m
    assert np.array_equal(h.adj_words, g.adj_words)
    with pytest.raises(ValueError):
        h.adj_words[0, 0] = np.uint64(1)
    assert not h.degrees.flags.writeable


def test_from_edges_names_first_bad_edge():
    with pytest.raises(ValueError, match=r"edge \(2,5\) out of range"):
        Graph.from_edges(4, [(0, 1), (2, 5), (3, 3)])
    with pytest.raises(ValueError, match=r"self-loop \(3,3\)"):
        Graph.from_edges(4, [(0, 1), (3, 3), (2, 5)])
    with pytest.raises(ValueError, match=r"edge \(-1,2\) out of range"):
        Graph.from_edges(4, [(-1, 2)])
    assert Graph.from_edges(0, []).n == 0


def test_pack_bool_matches_pack_indices():
    rng = np.random.default_rng(5)
    for n in (0, 1, 63, 64, 65, 130):
        flags = rng.random((3, n)) < 0.4
        words = bitset.pack_bool(flags)
        assert words.shape == (3, bitset.word_count(n))
        for row, f in zip(words, flags):
            assert np.array_equal(row, bitset.pack_indices(n, np.nonzero(f)[0]))


@settings(max_examples=30, deadline=None)
@given(st.integers(10, 60), st.floats(0.0, 0.5), st.integers(0, 10 ** 6))
def test_handshake_and_symmetry(n, p, seed):
    g = gen_gnp(n, p, seed)
    assert int(g.degrees.sum()) == 2 * g.m
    for v in range(0, n, 7):
        for u in g.neighbors(v):
            assert g.has_edge(int(u), v)


@settings(max_examples=25, deadline=None)
@given(st.integers(8, 48), st.integers(0, 10 ** 6), st.data())
def test_ns_upper_bounds(n, seed, data):
    g = gen_gnp(n, 0.2, seed)
    ids = list(range(n))
    left = data.draw(st.sets(st.sampled_from(ids), min_size=1, max_size=4))
    rest = [v for v in ids if v not in left]
    right = data.draw(st.sets(st.sampled_from(rest), min_size=0,
                              max_size=len(rest)) if rest else st.just(set()))
    L = VertexSet.from_indices(n, sorted(left))
    R = VertexSet.from_indices(n, sorted(right))
    ns = exact_neighborhood_size(g, L, R)
    assert ns <= len(right)
    assert ns <= sum(g.degree(v) for v in left)


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 80), st.data())
def test_vertex_set_matches_python_sets(n, data):
    a = data.draw(st.sets(st.integers(0, n - 1)))
    b = data.draw(st.sets(st.integers(0, n - 1)))
    A = VertexSet.from_indices(n, sorted(a))
    B = VertexSet.from_indices(n, sorted(b))
    assert set((A & B).members().tolist()) == a & b
    assert set((A | B).members().tolist()) == a | b
    assert set(A.difference(B).members().tolist()) == a - b
    assert set(A.complement().members().tolist()) == set(range(n)) - a
    assert len(A) == len(a)
    assert A.isdisjoint(B) == a.isdisjoint(b)


def test_members_rows_matches_members():
    # the support-pair helper lists, row by row, exactly what members
    # lists: stray bits past n (tail bits) are dropped, empty rows give
    # no pairs
    rng = np.random.default_rng(11)
    for n in (1, 63, 64, 65, 130, 200):
        w = bitset.word_count(n)
        words = bitset.random_planes(rng, (5, w))
        words[1] = 0
        words[2, 0] = 0
        words[3] &= bitset.random_planes(rng, w)
        row, ids = bitset.members_rows(words, n)
        assert bool(n % 64) == any(
            bitset.members(r, w * 64).max() >= n for r in words if r.any())
        for r in range(words.shape[0]):
            assert np.array_equal(ids[row == r],
                                  bitset.members(words[r], n))
        assert np.array_equal(row, np.sort(row, kind="stable"))
    row, ids = bitset.members_rows(np.zeros((0, 2), dtype=np.uint64), 100)
    assert row.size == ids.size == 0


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 150), st.floats(0.0, 0.6), st.integers(0, 12),
       st.sampled_from([1, 3, 64, None]), st.integers(0, 10 ** 6))
def test_neighborhood_rows_equal_per_row_unions(n, p, rows, block, seed):
    # a stack of lefts of mixed density, some empty, through blocks of
    # about `block` member adjacency rows (None: the default budget)
    g = gen_gnp(n, p, seed)
    w = bitset.word_count(n)
    rng = np.random.default_rng(seed)
    lefts = bitset.random_planes(rng, (rows, w))
    for r in range(rows):
        for _ in range(r % 4):
            lefts[r] &= bitset.random_planes(rng, w)
    lefts[::5] = 0
    bitset.trim_tail(lefts, n)
    with pytest.MonkeyPatch.context() as mp:
        if block is not None:
            mp.setattr(bitset, "SCRATCH_BYTES", block * 8 * w)
        got = g.neighborhood_rows(lefts)
    assert got.shape == lefts.shape
    for left, gamma in zip(lefts, got):
        assert np.array_equal(
            gamma, g.neighborhood_words(bitset.members(left, n)))


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 150), st.floats(0.0, 0.6), st.integers(0, 10 ** 6))
def test_edges_match_the_row_by_row_loop(n, p, seed):
    # reference: per-row neighbors, keeping u < v, in row order; n runs
    # across word boundaries, so most last words are partly filled
    g = gen_gnp(n, p, seed)
    expect = [(u, int(v)) for u in range(n) for v in g.neighbors(u) if u < v]
    assert g.edges() == expect
    assert all(type(u) is int and type(v) is int for u, v in g.edges())


def _packed(n, pairs):
    """Adjacency words with exactly the given (row, column) bits set."""
    rows, cols = zip(*pairs)
    return bitset.pack_rows(n, np.array(rows), np.array(cols), n)


def test_graph_rejects_asymmetric_adjacency():
    # an even degree sum, so only the symmetry check can catch it; the
    # one-way bits sit in both words of a 70-vertex row
    adj = _packed(70, [(1, 2), (2, 1), (3, 67), (66, 69)])
    with pytest.raises(ValueError, match="^adjacency is not symmetric$"):
        Graph(70, adj)
    Graph(70, _packed(70, [(1, 2), (2, 1), (3, 67), (67, 3)]))


def test_graph_rejects_self_looped_adjacency():
    # two loops keep the degree sum even; the lowest one is named, even
    # though the matrix is also asymmetric
    adj = _packed(70, [(68, 68), (5, 5), (0, 65), (1, 65)])
    with pytest.raises(ValueError, match="^self-loop at vertex 5$"):
        Graph(70, adj)


def _least_vertex_labels(n, u, v):
    """Reference labels: scipy's components, each named by its least vertex."""
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import connected_components
    adj = coo_matrix((np.ones(len(u)), (u, v)), shape=(n, n))
    _, lab = connected_components(adj, directed=False)
    least = np.full(n, n)
    np.minimum.at(least, lab, np.arange(n))
    return least[lab]


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 120).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.tuples(st.integers(0, max(n - 1, 0)),
                                   st.integers(0, max(n - 1, 0))),
                         max_size=3 * n if n else 0))))
def test_components_match_scipy(case):
    # n = 0 and 1, edgeless graphs and repeated edges all come up
    n, pairs = case
    e = np.array(pairs, dtype=np.int64).reshape(-1, 2)
    e = np.concatenate([e, e[: len(e) // 2]])          # repeated edges
    labels = components(n, e[:, 0], e[:, 1])
    assert labels.dtype == np.int64
    assert np.array_equal(labels, _least_vertex_labels(n, e[:, 0], e[:, 1]))


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 3000), st.integers(1, 4), st.integers(0, 10 ** 6))
def test_components_of_permuted_paths(n, pieces, seed):
    # long paths through a random vertex order need many sweeps, so a
    # routine that stops early leaves labels above the least vertex
    rng = np.random.default_rng(seed)
    order = rng.permutation(n)
    cuts = np.sort(rng.choice(max(n - 1, 1), size=pieces - 1))
    keep = np.ones(max(n - 1, 0), dtype=bool)
    keep[cuts[cuts < n - 1]] = False
    u, v = order[:-1][keep], order[1:][keep]
    flip = rng.random(u.size) < 0.5
    u, v = np.where(flip, v, u), np.where(flip, u, v)
    assert np.array_equal(components(n, u, v), _least_vertex_labels(n, u, v))


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 150), st.floats(0.0, 0.05), st.integers(0, 10 ** 6))
def test_exact_components_group_by_least_vertex(n, p, seed):
    g = gen_gnp(n, p, seed)
    e = np.array(g.edges(), dtype=np.int64).reshape(-1, 2)
    labels = _least_vertex_labels(n, e[:, 0], e[:, 1])
    expect = [np.flatnonzero(labels == r).tolist() for r in np.unique(labels)]
    assert exact_components(g) == expect
    assert exact_connected(g) == (len(expect) <= 1, expect)


@pytest.mark.parametrize("make", [
    lambda: Graph.from_edges(1, []),
    lambda: gen_gnp(64, 0.2, seed=3),
    lambda: gen_gnp(65, 0.2, seed=4),
    lambda: Graph.from_edges(70, []),
    lambda: gen_family("star", n=65)])
@pytest.mark.parametrize("rows", [None, 3])
def test_csr_lists_equal_neighbors(make, rows):
    # built on first use only, so constructing a graph does not pay for
    # it; ``rows`` adjacency rows per unpacked block (None: the default
    # budget)
    g = make()
    assert g._csr is None
    with pytest.MonkeyPatch.context() as mp:
        if rows is not None:
            mp.setattr(bitset, "SCRATCH_BYTES", rows * 8 * g.adj_words.shape[1])
        indptr, indices = g.csr
    assert g.csr[0] is indptr
    assert indptr.dtype == indices.dtype == np.int64
    assert indptr.shape == (g.n + 1,) and indices.size == 2 * g.m
    for v in range(g.n):
        assert np.array_equal(indices[indptr[v]:indptr[v + 1]],
                              g.neighbors(v))
    with pytest.raises(ValueError):
        indices[:1] = 0
