import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bisq import (BisOracle, QueryPlan, SupernodeOracle, VertexSet, contract,
                  exact_connected, gen_family, gen_gnp, is_connected,
                  round1_neighbor_sampling)
from bisq import bitset, params
from bisq.edge_sampler import OK, sample_edges_batch
from bisq.element_recovery import (NeighborRecovery,
                                   build_neighbor_recovery)
from bisq.graph import Graph
from bisq.oracle import DenseBlock, SharedSubsampleBlock, SidesSubsampleBlock
from bisq.params import Constants
from bisq.seeding import rng_for
from ser_reference import fresh_row_answers, reference_pool

CONN_C = Constants(c_T=8.0, c2=1.0, c_lambda=16.0, ser_pool_scale=4.0,
                   c_nb=2.0, c_R=2.0)


def _rows(pairs):
    return np.array(sorted(pairs), dtype=np.int64).reshape(-1, 2)


def test_round1_recovers_real_edges_only():
    g = gen_gnp(96, 0.05, seed=1)
    o = BisOracle(g)
    edges = round1_neighbor_sampling(o, seed=2, constants=CONN_C)
    for u, v in edges:
        assert g.has_edge(u, v)
    assert o.ledger.round_count == 1


def test_round1_star_recovers_all_edges():
    g = gen_family("star", n=64)
    o = BisOracle(g)
    edges = round1_neighbor_sampling(o, seed=3, constants=CONN_C)
    assert len(edges) == 63


def test_round1_isolated_vertex_contributes_nothing():
    g = Graph.from_edges(8, [(1, 2)])
    o = BisOracle(g)
    edges = round1_neighbor_sampling(o, seed=4, constants=CONN_C)
    assert all(0 not in e for e in edges)


def _round1_reference(g, seed, constants, checked=None):
    """Round 1 the set-based way: per vertex, the first ``target`` pool
    entries as (min, max) pairs; also whether any pool ran past target.

    The pools of the vertices in ``checked`` (all by default) must equal
    the reference decode of fresh single answers to their blocks' rows.
    """
    n = g.n
    target = params.neighbor_sample_target(n, constants)
    reps = params.round1_reps(n, constants)
    full = VertexSet.full(n)
    recs = []
    for v in range(n):
        left = VertexSet.from_indices(n, [v])
        recs.append(build_neighbor_recovery(left.members(),
                                            full.difference(left).words, reps,
                                            (seed, "round1", v), tag="round1"))
    results = BisOracle(g).submit(QueryPlan(n, [r.block for r in recs]))
    checked = range(n) if checked is None else checked
    edges, cut = set(), False
    for v, (rec, result) in enumerate(zip(recs, results)):
        if v in checked:
            assert result.tolist() == reference_pool(
                rec.block, fresh_row_answers(g, rec.block)).tolist(), v
        pool = rec.decode_pool(result)
        cut |= pool.size > target
        edges |= {(min(v, int(u)), max(v, int(u))) for u in pool[:target]}
    return edges, cut


def test_round1_matches_the_set_based_reference():
    # default c_R plans more repetitions than target, so pools get cut
    c = Constants(c_nb=2.0)
    for i, g in enumerate([gen_family("star", n=64), gen_gnp(96, 0.5, seed=1),
                           gen_family("components", k=4, size=24,
                                      inner="path")]):
        edges = round1_neighbor_sampling(BisOracle(g), seed=("ref", i),
                                         constants=c)
        # a row-by-row check of all 96 blocks would take about 20 s
        expect, cut = _round1_reference(g, ("ref", i), c,
                                        checked=(0, g.n // 2, g.n - 1))
        assert cut, i           # some pool is longer than target
        assert edges.dtype == np.int64 and edges.shape == (len(expect), 2)
        assert edges.tolist() == [list(e) for e in sorted(expect)]
        keys = edges[:, 0] * g.n + edges[:, 1]
        assert (edges[:, 0] < edges[:, 1]).all() and (np.diff(keys) > 0).all()


class _Submitted(Exception):
    pass


def test_round1_plan_holds_no_words_per_block(monkeypatch):
    # at n = 4096 a block holds its vertex's id, its seed and the one
    # full base every block shares: about 340 bytes a vertex, the block,
    # its id array, its seed key and its recovery wrapper, where a left
    # and a base words array per block held 6.3 MiB in all
    import tracemalloc
    n = 4096
    o = BisOracle(gen_family("path", n=n))
    seen = {}

    def submit(oracle, plan):
        seen["held"] = tracemalloc.get_traced_memory()[0] - seen["before"]
        seen["plan"] = plan
        raise _Submitted

    monkeypatch.setattr(BisOracle, "submit", submit)
    for traced in (False, True):    # the first run warms lazy imports
        if traced:
            tracemalloc.start()
        seen["before"] = tracemalloc.get_traced_memory()[0]
        try:
            with pytest.raises(_Submitted):
                round1_neighbor_sampling(o, seed=1, constants=CONN_C)
        finally:
            tracemalloc.stop()
    blocks = seen["plan"].blocks
    assert len(blocks) == n
    assert all(b.base is blocks[0].base for b in blocks)
    assert [b.left.tolist() for b in blocks] == [[v] for v in range(n)]
    assert seen["held"] < 1.5 * 2 ** 20


def test_recovery_pools_are_pinned(monkeypatch):
    # every recovery pool decoded by round 1 on a small clique graph and
    # by the extended sketch of a small sampler batch, in decode order; a
    # rewrite of the recovery kernel must not move a single entry
    decode = NeighborRecovery.decode_pool
    pools = []

    def recorded(rec, result):
        pool = decode(rec, result)
        pools.append(pool.tolist())
        return pool

    monkeypatch.setattr(NeighborRecovery, "decode_pool", recorded)
    g = gen_family("components", k=3, size=10, inner="clique")
    round1_neighbor_sampling(BisOracle(g), seed=5, constants=CONN_C)
    assert len(pools) == g.n
    sample_edges_batch(BisOracle(gen_gnp(96, 0.03, seed=8)), 200, 0.25,
                       seed=99, constants=Constants(
                           c_T=8.0, c2=1.0, c_lambda=16.0,
                           ser_pool_scale=4.0))
    assert len(pools) > g.n and sum(map(len, pools)) > 1000
    digest = hashlib.sha256(repr(pools).encode()).hexdigest()
    assert digest == ("a2e04d4f389d888f2317358a0d4d4119"
                      "4248925732a841682bc10214b1825277")


def _bridged_cliques(k, size):
    """k cliques in a row, each joined to the next by one bridge edge."""
    edges = [(b * size + i, b * size + j) for b in range(k)
             for i in range(size) for j in range(i + 1, size)]
    edges += [(b * size + size - 1, (b + 1) * size) for b in range(k - 1)]
    return Graph.from_edges(k * size, edges)


def test_report_counts_match_the_set_based_loops():
    # few round-1 draws miss bridges, so round 2 samples real superedges,
    # many of them more than once
    c = Constants(c_T=8.0, c2=1.0, c_lambda=16.0, ser_pool_scale=4.0,
                  c_nb=0.05, c_R=2.0)
    g = _bridged_cliques(6, 6)
    rep = is_connected(BisOracle(g), seed=3, constants=c)
    edges, _ = _round1_reference(g, 3, c)
    sg = contract(_rows(edges), g.n)
    outputs = sample_edges_batch(SupernodeOracle(BisOracle(g), sg),
                                 params.superedge_sample_count(g.n, c), 0.25,
                                 (3, "round2"), c)
    draws = [out.edge for out in outputs if out.status == OK]
    superedges = {(min(a, b), max(a, b)) for a, b in draws}
    assert len(draws) > len(superedges) > 0
    assert (rep.round1_edges, rep.p_supernodes) == (len(edges), sg.p)
    assert rep.superedges_recovered == len(superedges)
    assert (rep.round1_edges, rep.p_supernodes, rep.superedges_recovered,
            rep.connected, rep.rounds) == (54, 3, 2, True, 2)


def test_contract_cases():
    assert contract(_rows(set()), 5).p == 5
    tree = {(0, 1), (1, 2), (2, 3), (3, 4)}
    assert contract(_rows(tree), 5).p == 1
    two = {(0, 1), (2, 3)}
    sg = contract(_rows(two), 4)
    assert sg.p == 2
    assert sg.supernode_of[0] == sg.supernode_of[1]
    assert sg.supernode_of[2] == sg.supernode_of[3]
    # supernodes are numbered by their least vertex
    sg = contract(_rows({(0, 5), (1, 4), (2, 4), (3, 5)}), 7)
    assert sg.p == 3
    assert sg.supernode_of.tolist() == [0, 1, 1, 0, 1, 0, 2]


def test_supergraph_oracle_matches_explicit_superedges():
    g = gen_gnp(256, 0.05, seed=5)
    all_edges = g.edges()
    rng = rng_for(6)
    sample = {all_edges[i] for i in rng.choice(len(all_edges), size=60,
                                               replace=False)}
    sg = contract(_rows(sample), g.n)
    sup = SupernodeOracle(BisOracle(g), sg)
    explicit = set()
    for u, v in all_edges:
        a, b = int(sg.supernode_of[u]), int(sg.supernode_of[v])
        if a != b:
            explicit.add((min(a, b), max(a, b)))
    p = sg.p
    for trial in range(300):
        ids = rng.permutation(p)
        k = int(rng.integers(1, max(2, p // 2 + 1)))
        r = int(rng.integers(1, max(2, p // 2 + 1)))
        L = set(ids[:k].tolist())
        R = set(ids[k:k + r].tolist())
        if not R:
            continue
        ans = sup.bis(VertexSet.from_indices(p, sorted(L)),
                      VertexSet.from_indices(p, sorted(R)))
        truth = 0 if any((min(a, b), max(a, b)) in explicit
                         for a in L for b in R) else 1
        assert ans == truth


def test_supergraph_adjacent_and_nonadjacent():
    g = gen_family("components", k=2, sizes=[4, 4], inner="clique")
    sg = contract(_rows({(0, 1), (4, 5)}), 8)
    sup = SupernodeOracle(BisOracle(g), sg)
    a = int(sg.supernode_of[0])
    b = int(sg.supernode_of[4])
    # the two contracted pairs live in different real components
    assert sup.bis(VertexSet.from_indices(sg.p, [a]),
                   VertexSet.from_indices(sg.p, [b])) == 1
    c = int(sg.supernode_of[2])
    assert sup.bis(VertexSet.from_indices(sg.p, [a]),
                   VertexSet.from_indices(sg.p, [c])) == 0


def _disjoint_pair(rng, p):
    """Random disjoint (left, right) masks over 0..p-1."""
    side = rng.integers(0, 3, size=p)
    return (bitset.pack_indices(p, np.nonzero(side == 0)[0]),
            bitset.pack_indices(p, np.nonzero(side == 1)[0]))


def _supernode_plan(rng, p, reps, levels):
    """One block of each type, in supernode space; the shared-plane
    block splits a random third of the supernodes into three lefts
    against a random shared base."""
    w = bitset.word_count(p)
    groups = [_disjoint_pair(rng, p) for _ in range(3)]
    lefts = np.array([left for left, _ in groups for _ in range(2)])
    rights = np.array([right & bitset.random_planes(rng, w)
                       for _, right in groups for _ in range(2)])
    left, base = _disjoint_pair(rng, p)
    members = np.flatnonzero(rng.integers(0, 3, size=p) == 0)
    shared_base = VertexSet.from_indices(
        p, np.flatnonzero(rng.integers(0, 2, size=p)))
    return QueryPlan(p, [
        DenseBlock("dense", lefts, rights),
        SharedSubsampleBlock("shared", members,
                             rng.integers(0, 3, size=members.size), 3,
                             shared_base, reps, levels,
                             (int(rng.integers(2 ** 32)),)),
        SidesSubsampleBlock("sides", bitset.members(left, p), base, reps,
                            int(rng.integers(2 ** 32)))])


@settings(max_examples=30, deadline=None)
@given(st.integers(20, 150), st.floats(0.02, 0.3), st.floats(0.0, 1.0),
       st.integers(1, 3), st.integers(1, 4), st.integers(0, 10 ** 6))
def test_contracted_oracle_matches_base_on_expanded_rows(n, density, kept,
                                                        reps, levels, seed):
    g = gen_gnp(n, density, seed)
    rng = rng_for(("contracted", seed))
    all_edges = g.edges()
    size = int(kept * len(all_edges))
    sample = {all_edges[i] for i in rng.choice(len(all_edges), size=size,
                                               replace=False)}
    sg = contract(_rows(sample), n)
    base = BisOracle(g)
    sup = SupernodeOracle(base, sg)
    assert sup.ledger is base.ledger
    plan = _supernode_plan(rng, sg.p, reps, levels)
    before = base.ledger.snapshot()
    dense, counts, pool = sup.submit(plan)
    top = np.full((3, reps), -1, dtype=np.int8)
    r0 = 0
    for order, acc in plan.blocks[1]._maxima(sup.graph):
        top[order, r0:r0 + acc.shape[1]] = acc
        r0 += acc.shape[1]
    shared = np.arange(levels) > top[:, :, None]
    assert np.array_equal(counts, shared.sum(axis=1))
    answers = np.concatenate([dense, shared.ravel()])
    delta = base.ledger.delta(before)
    assert delta["bis_count"] == plan.size()
    assert delta["batch_count"] == 1 and delta["round_count"] == 1
    assert delta["phases"] == plan.phase_counts()

    def expand(mask):
        ids = bitset.members(mask, sg.p)
        return VertexSet.from_indices(
            n, np.nonzero(np.isin(sg.supernode_of, ids))[0])

    truth = BisOracle(g)
    expect = [truth.bis(expand(left), expand(right))
              for left, right in plan.iter_rows()]
    assert len(expect) == plan.size()
    assert answers.tolist() == expect[:answers.size]
    # the recovery block's result is its pool: the reference decode of
    # its expanded rows' answers
    assert pool.tolist() == reference_pool(
        plan.blocks[2], expect[answers.size:]).tolist()


def test_contracted_graph_without_recovered_edges_is_the_base_graph():
    g = gen_gnp(70, 0.1, seed=13)
    sup = SupernodeOracle(BisOracle(g), contract(_rows(set()), g.n))
    assert sup.n == g.n
    assert np.array_equal(sup.graph.edge_keys, g.edge_keys)


def test_connected_path():
    g = gen_family("path", n=64)
    o = BisOracle(g)
    rep = is_connected(o, seed=7, constants=CONN_C)
    assert rep.connected
    assert rep.rounds <= 2


def test_disconnected_components_every_seed():
    g = gen_family("components", k=2, sizes=[16, 16], inner="clique")
    for seed in range(5):
        o = BisOracle(g)
        rep = is_connected(o, seed=("dis", seed), constants=CONN_C)
        assert not rep.connected
        # round 1 leaves at least two supernodes, so round 2 always runs
        assert rep.rounds == 2 and o.ledger.round_count == 2


def test_complete_graph_one_round():
    g = gen_family("clique", n=32)
    o = BisOracle(g)
    rep = is_connected(o, seed=8, constants=CONN_C)
    assert rep.connected
    assert rep.p_supernodes == 1
    assert rep.rounds == 1


def test_verdicts_match_truth_small_corpus():
    graphs = [gen_family("path", n=48),
              gen_family("star", n=48),
              gen_gnp(64, 0.15, seed=9),
              gen_family("components", k=3, sizes=[12, 12, 12],
                         inner="path"),
              gen_family("components", k=2, sizes=[20, 28], inner="gnp",
                         p=0.3, seed=1)]
    for i, g in enumerate(graphs):
        o = BisOracle(g)
        rep = is_connected(o, seed=("corpus", i), constants=CONN_C)
        truth, _ = exact_connected(g)
        assert rep.connected == truth, i
        assert rep.rounds <= 2
        # one-sided: never report connected on a disconnected graph
        if not truth:
            assert not rep.connected


def test_singleton_and_empty():
    g1 = Graph.from_edges(1, [])
    assert is_connected(BisOracle(g1), seed=1, constants=CONN_C).connected
    g2 = Graph.from_edges(2, [])
    rep = is_connected(BisOracle(g2), seed=2, constants=CONN_C)
    assert not rep.connected


def test_two_vertices_one_edge():
    g = Graph.from_edges(2, [(0, 1)])
    for seed in range(5):
        o = BisOracle(g)
        edges = round1_neighbor_sampling(o, seed=seed, constants=CONN_C)
        assert edges.tolist() == [[0, 1]]
        rep = is_connected(BisOracle(g), seed=seed, constants=CONN_C)
        assert rep.connected and rep.rounds == 1


def test_superedge_count_bound():
    # recovered supergraph edge count stays O(n log n) on a mixed corpus
    import math
    for i, g in enumerate([gen_gnp(128, 0.08, seed=11),
                           gen_gnp(128, 0.3, seed=12)]):
        o = BisOracle(g)
        edges = round1_neighbor_sampling(o, seed=("se", i), constants=CONN_C)
        sg = contract(edges, g.n)
        explicit = set()
        for u, v in g.edges():
            a, b = int(sg.supernode_of[u]), int(sg.supernode_of[v])
            if a != b:
                explicit.add((min(a, b), max(a, b)))
        assert len(explicit) <= 8 * g.n * math.log2(g.n)
