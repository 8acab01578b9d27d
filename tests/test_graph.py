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
    assert np.array_equal(g.edge_keys, g2.edge_keys)


def test_gnp_extremes():
    assert gen_gnp(10, 0.0, seed=1).m == 0
    assert gen_gnp(10, 1.0, seed=1).m == 45


def _gnp_full_draw(n, p, seed):
    # G(n, p) from one n x n uniform draw, kept as the reference: the
    # (u, v) rows of its edges, u < v, sorted
    from bisq.seeding import rng_for
    if p == 0.0:
        return np.zeros((0, 2), dtype=np.int64)
    return np.argwhere(np.triu(rng_for(seed, "gnp", n).random((n, n)) < p,
                               k=1))


@pytest.mark.parametrize("n", [0, 1, 2, 63, 64, 65, 300])
@pytest.mark.parametrize("p", [0.0, 0.01, 0.5, 1.0])
def test_gnp_rows_equal_the_full_draw(n, p):
    for seed in (0, 7, ("c7", 1)):
        g = gen_gnp(n, p, seed)
        ref = _gnp_full_draw(n, p, seed)
        assert np.array_equal(np.stack(g.ends(), axis=1), ref)
        assert g.edges() == [tuple(e) for e in ref.tolist()]


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
    assert np.array_equal(a.edge_keys, b.edge_keys)


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
        g.edge_keys[0] = 1
    for lists in g.csr:
        with pytest.raises(ValueError):
            lists[0] = 1


def test_unpickled_graph_is_read_only():
    g = gen_gnp(70, 0.2, seed=3)
    h = pickle.loads(pickle.dumps(g))
    assert h.n == g.n and h.m == g.m
    assert np.array_equal(h.edge_keys, g.edge_keys)
    assert h.edges() == g.edges()
    with pytest.raises(ValueError):
        h.edge_keys[0] = 1
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


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 150), st.floats(0.0, 0.6), st.integers(0, 10 ** 6))
def test_edges_match_the_row_by_row_loop(n, p, seed):
    # reference: per-row neighbors, keeping u < v, in row order; n runs
    # across word boundaries, so most last words are partly filled
    g = gen_gnp(n, p, seed)
    expect = [(u, int(v)) for u in range(n) for v in g.neighbors(u) if u < v]
    assert g.edges() == expect
    assert all(type(u) is int and type(v) is int for u, v in g.edges())


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
@pytest.mark.parametrize("repeats", [None, 3])
def test_csr_lists_equal_neighbors(make, repeats):
    # built on first use only, so constructing a graph does not pay for
    # it; with ``repeats``, the graph is rebuilt from its edges reversed
    # and given that many times, which must merge into the same lists
    g = make()
    if repeats is not None:
        g = Graph.from_edges(g.n, [(v, u) for u, v in g.edges()] * repeats)
    assert g._csr is None
    indptr, indices = g.csr
    assert g.csr[0] is indptr
    assert indptr.dtype == indices.dtype == np.int64
    assert indptr.shape == (g.n + 1,) and indices.size == 2 * g.m
    for v in range(g.n):
        assert np.array_equal(indices[indptr[v]:indptr[v + 1]],
                              g.neighbors(v))
    with pytest.raises(ValueError):
        indices[:1] = 0


def _reference_case(n, source, p, seed):
    """(graph, the pairs it was built from) for one reference case."""
    from bisq.graph import _block_edges
    if source == "gnp":
        return gen_gnp(n, p, seed), _gnp_full_draw(n, p, seed).tolist()
    if source == "pairs":
        rng = np.random.default_rng(seed)
        pairs = [(int(u), int(v)) for u, v in rng.integers(0, max(n, 1),
                                                           (2 * n, 2))
                 if u != v]
        # reversed and repeated pairs merge into one edge each
        pairs += [(v, u) for u, v in pairs[::3]] + pairs[::4]
        return Graph.from_edges(n, pairs), pairs
    if n < 2:
        return Graph.from_edges(n, []), []
    if source == "complete_bipartite":
        a = n // 3 + 1
        pairs = [(i, a + j) for i in range(a) for j in range(n - a)]
        return gen_family(source, a=a, b=n - a), pairs
    if source == "components":
        sizes = [n // 3, n - 2 * (n // 3), n // 3]
        pairs, offset = [], 0
        for idx, size in enumerate(sizes):
            pairs += _block_edges("gnp", size, offset, p, (seed, idx))
            offset += size
        g = gen_family(source, k=3, sizes=sizes, inner="gnp", p=p, seed=seed)
        return g, pairs
    return gen_family(source, n=n), _block_edges(source, n, 0, p, seed)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([0, 1, 2, 63, 64, 65]),
       st.sampled_from(["gnp", "pairs", "star", "path", "clique", "cycle",
                        "complete_bipartite", "components"]),
       st.floats(0.0, 0.5), st.integers(0, 10 ** 6), st.data())
def test_graph_readers_match_the_dense_reference(n, source, p, seed, data):
    # every reader of the edge keys and the lists they derive, against a
    # packed n x n matrix built from the same pairs
    from graph_reference import DenseReference
    g, pairs = _reference_case(n, source, p, seed)
    ref = DenseReference(n, pairs)
    assert g.n == n
    assert g.degrees.tolist() == ref.degrees()
    assert [g.degree(v) for v in range(n)] == ref.degrees()
    assert g.m == sum(ref.degrees()) // 2
    assert g.edges() == ref.edges()
    lo = data.draw(st.integers(0, g.m))
    assert g.edges(lo, lo + 5) == ref.edges()[lo:lo + 5]
    indptr, indices = g.csr
    for v in range(n):
        assert np.array_equal(g.neighbors(v), ref.neighbors(v))
        assert np.array_equal(indices[indptr[v]:indptr[v + 1]],
                              ref.neighbors(v))
    if n:
        u = np.repeat(np.arange(n), n)
        v = np.tile(np.arange(n), n)
        expect = [ref.has_edge(a, b) for a, b in zip(u.tolist(), v.tolist())]
        assert g.has_edge(u, v).tolist() == expect
        a, b = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
        assert g.has_edge(a, b) is ref.has_edge(a, b)
        ids = data.draw(st.lists(st.integers(0, n - 1), max_size=6,
                                 unique=True))
        assert np.array_equal(g.neighborhood_words(np.array(ids, dtype=int)),
                              ref.neighborhood_words(ids))
    assert exact_components(g) == ref.components()


def _traced_peak(fn):
    import tracemalloc
    tracemalloc.start()
    try:
        out = fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, peak


def test_from_edges_scratch_is_o_of_n_plus_m():
    # about n edges on n = 16384 vertices; the n x n bit matrix alone was
    # n^2 / 8 bytes, 32 MiB (measured: 0.9 MB)
    n = 16384
    rng = np.random.default_rng(3)
    pairs = [(u, v) for u, v in rng.integers(0, n, (n, 2)).tolist() if u != v]
    Graph.from_edges(64, [(0, 1)])      # lazy imports are not scratch
    g, peak = _traced_peak(lambda: Graph.from_edges(n, pairs))
    assert 0.99 * n < g.m <= n
    assert peak < 64 * (n + g.m)


def test_dump_edge_list_scratch_is_bounded():
    # the lines are formatted a block of edges at a time, so the scratch
    # is about the text and its blocks, not a tuple and a line per edge
    # (measured: 1.1 MB for a 0.33 MB text; all the lines at once took
    # 6.4 MB)
    g = gen_gnp(8192, 0.001, seed=1)
    dump_edge_list(gen_gnp(64, 0.1, seed=1))
    text, peak = _traced_peak(lambda: dump_edge_list(g))
    assert text.count("\n") == g.m + 1
    assert peak < 2 * len(text) + (1 << 20)
