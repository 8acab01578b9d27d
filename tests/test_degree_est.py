import numpy as np

from bisq import (BisOracle, VertexSet, estimate_degrees,
                  estimate_degrees_with_neighbors, gen_family, gen_gnp,
                  predict_sketch_queries, sample_edges_batch)
from bisq.degree_est import PartitionSchedule
from bisq.graph import Graph
from bisq.params import (Constants, deg_parts, deg_reps, ser_pool_reps,
                         ser_queries)

FAST_C = Constants(c_T=8.0)


def test_isolated_vertex_estimate_zero():
    g = Graph.from_edges(8, [(1, 2), (2, 3)])
    o = BisOracle(g)
    table = estimate_degrees(o, VertexSet.from_indices(8, [0]), 0.25, seed=1,
                             constants=FAST_C)
    assert table.lookup(0) == 0.0


def test_star_center_estimate():
    n = 128
    g = gen_family("star", n=n)
    o = BisOracle(g)
    table = estimate_degrees(o, VertexSet.from_indices(n, [0]), 0.25, seed=2,
                             constants=FAST_C)
    est = table.lookup(0)
    assert 0.75 * (n - 1) <= est <= n - 1


def test_sandwich_small_statistical():
    g = gen_gnp(256, 0.05, seed=7)
    o = BisOracle(g)
    S = VertexSet.from_indices(256, list(range(0, 48)))
    eps = 0.25
    table = estimate_degrees(o, S, eps, seed=3, constants=FAST_C)
    d_s = sum(g.degree(v) for v in range(48))
    slack = eps ** 3 / np.log2(256) ** 2 * d_s
    ok = 0
    for i, v in enumerate(table.vertices):
        d = g.degree(int(v))
        if (1 - eps) * d <= table.d_hat[i] <= d + slack:
            ok += 1
    assert ok >= 0.85 * table.vertices.size


def test_minimum_is_monotone_in_reps():
    # estimates can only shrink as more repetitions contribute; check
    # t_min records the first repetition reaching the minimum
    g = gen_gnp(128, 0.08, seed=4)
    o = BisOracle(g)
    S = VertexSet.from_indices(128, list(range(16)))
    table = estimate_degrees(o, S, 0.3, seed=5, constants=FAST_C)
    assert (table.t_min >= 0).all()
    assert (table.t_min < deg_reps(128)).all()
    assert (table.d_hat <= 128).all()


def test_query_count_matches_dry_run_exactly():
    n = 128
    g = gen_gnp(n, 0.08, seed=9)
    for extended in (False, True):
        o = BisOracle(g)
        S = VertexSet.from_indices(n, list(range(24)))
        seed = ("dry", extended)
        if extended:
            estimate_degrees_with_neighbors(o, S, 0.3, seed=seed,
                                            constants=FAST_C)
        else:
            estimate_degrees(o, S, 0.3, seed=seed, constants=FAST_C)
        predicted = predict_sketch_queries(n, 24, 0.3, seed=seed,
                                           constants=FAST_C,
                                           extended=extended)
        assert o.ledger.bis_count == predicted


def test_single_round():
    g = gen_gnp(64, 0.1, seed=2)
    o = BisOracle(g)
    estimate_degrees(o, VertexSet.from_indices(64, list(range(10))), 0.3,
                     seed=1, constants=FAST_C)
    assert o.ledger.round_count == 1


def test_empty_subset():
    g = gen_gnp(32, 0.1, seed=2)
    o = BisOracle(g)
    table = estimate_degrees(o, VertexSet.empty(32), 0.3, seed=1,
                             constants=FAST_C)
    assert table.vertices.size == 0
    assert o.ledger.bis_count == 0


def test_partition_cell_count():
    assert deg_parts(1024, 0.25, False, Constants()) == int(
        np.ceil(0.25 ** -3 * 100))
    assert deg_parts(1024, 0.25, True, Constants()) == int(
        np.ceil(0.25 ** -4 * 100))


def test_neighbor_table_uniformity_star_like():
    # one heavy vertex: its candidate neighbor is near-uniform over leaves
    from scipy.stats import chisquare
    n = 64
    deg = 6
    g = Graph.from_edges(n, [(0, i) for i in range(1, deg + 1)])
    counts = {i: 0 for i in range(1, deg + 1)}
    missing = 0
    for seed in range(120):
        o = BisOracle(g)
        _, ntable = estimate_degrees_with_neighbors(
            o, VertexSet.from_indices(n, [0]), 0.25, seed=("nt", seed),
            constants=FAST_C)
        u = int(ntable.neighbor[0])
        if u < 0:
            missing += 1
        else:
            assert g.has_edge(0, u)
            counts[u] += 1
    assert missing <= 10
    stat, p = chisquare(list(counts.values()))
    assert p > 0.005, counts


def test_neighbor_absent_for_isolated_vertex():
    g = Graph.from_edges(8, [(1, 2)])
    o = BisOracle(g)
    _, ntable = estimate_degrees_with_neighbors(
        o, VertexSet.from_indices(8, [0]), 0.25, seed=4, constants=FAST_C)
    assert ntable.neighbor[0] == -1


def test_heavy_vertex_neighbor_mostly_adjacent():
    # vertex with degree dominating its cell: candidate adjacent to it
    # in all but a small fraction of runs
    n = 96
    edges = [(0, i) for i in range(1, 25)] + [(40, 41), (42, 43)]
    g = Graph.from_edges(n, edges)
    bad = 0
    runs = 60
    for seed in range(runs):
        o = BisOracle(g)
        S = VertexSet.from_indices(n, [0, 40, 42])
        _, ntable = estimate_degrees_with_neighbors(
            o, S, 0.25, seed=("heavy", seed), constants=FAST_C)
        u = int(ntable.neighbor[0])
        if u < 0 or not g.has_edge(0, u):
            bad += 1
    assert bad <= 0.25 * runs


def test_neighbor_table_one_pool_per_vertex():
    # few cells, so the sketch mixes singleton and shared cells; vertices
    # 0 and 3 are isolated, so a singleton pool of theirs must be empty
    n = 96
    c = Constants(c_T=8.0, c_lambda=0.002)
    g = Graph.from_edges(n, [(u, v) for u, v in gen_gnp(n, 0.04, 21).edges()
                             if u not in (0, 3) and v not in (0, 3)])
    S = VertexSet.from_indices(n, list(range(0, n, 3)))
    table, ntable = estimate_degrees_with_neighbors(
        BisOracle(g), S, 0.3, seed=22, constants=c)
    schedule = PartitionSchedule.build(S.members().size, n, 0.3, True, 22, c)
    assert np.array_equal(ntable.pool_id < 0, table.t_min < 0)
    singles = 0
    for i, v in enumerate(ntable.vertices.tolist()):
        row = schedule.assignment[table.t_min[i]]
        assert ntable.cell_size[i] == (row == row[i]).sum()
        pool = ntable.pools[ntable.pool_id[i]]
        assert ntable.neighbor[i] == (pool[0] if pool.size else -1)
        if ntable.cell_size[i] == 1:
            singles += 1
            assert all(g.has_edge(v, int(u)) for u in pool), (v, pool)
    assert 0 < singles < ntable.vertices.size


def test_neighbor_pools_only_for_improving_cells():
    # on an edgeless graph the first repetition already estimates every
    # degree at 0, so no later cell improves a member and only the first
    # repetition's cells get pools
    n = 64
    g = Graph.from_edges(n, [])
    S = VertexSet.from_indices(n, list(range(0, n, 2)))
    table, ntable = estimate_degrees_with_neighbors(
        BisOracle(g), S, 0.3, seed=5, constants=FAST_C)
    schedule = PartitionSchedule.build(S.members().size, n, 0.3, True, 5,
                                       FAST_C)
    assert (table.d_hat == 0).all() and (table.t_min == 0).all()
    cells = np.unique(schedule.assignment[0])
    assert len(ntable.pools) == cells.size
    assert sorted(set(ntable.pool_id.tolist())) == list(range(cells.size))
    assert all(pool.size == 0 for pool in ntable.pools)
    assert (ntable.neighbor == -1).all()


def test_failed_decodes_are_counted(monkeypatch):
    # a decode that gives inf (zero count at the selected level) is one
    # (repetition, cell) failure: counted in ns_failures, and it cannot
    # sink a member's minimum over the other repetitions
    from bisq import degree_est

    n = 64
    g = gen_gnp(n, 0.1, seed=3)
    S = VertexSet.from_indices(n, list(range(12)))
    seed = "fail-count"
    clean = estimate_degrees(BisOracle(g), S, 0.3, seed=seed,
                             constants=FAST_C)
    assert clean.ns_failures == 0
    decode = degree_est.decode_ns
    calls = []

    def fail_first_rep(counts, ns):
        est = decode(counts, ns)
        if not calls:
            est[:] = np.inf
        calls.append(est.size)
        return est

    monkeypatch.setattr(degree_est, "decode_ns", fail_first_rep)
    table = estimate_degrees(BisOracle(g), S, 0.3, seed=seed,
                             constants=FAST_C)
    assert len(calls) == deg_reps(n)          # one decode per repetition
    assert table.ns_failures == calls[0]      # every cell of repetition 0
    assert (table.t_min > 0).all() and not table.failed.any()
    assert (table.d_hat >= clean.d_hat).all()


def test_extended_sketch_evaluates_only_decoded_pools(monkeypatch):
    # every recovery block is charged at submit, but only the blocks of
    # cells whose pools are decoded are evaluated, once each, and each
    # vertex's pool comes from its own cell's block at t_min
    from bisq.oracle import SidesSubsampleBlock

    n, seed = 96, 7
    g = gen_gnp(n, 0.06, seed=31)
    S = VertexSet.from_indices(n, list(range(0, n, 2)))
    evaluate = SidesSubsampleBlock.evaluate
    keys = []

    def recorded(block, graph):
        keys.append(block.seed)
        return evaluate(block, graph)

    monkeypatch.setattr(SidesSubsampleBlock, "evaluate", recorded)
    o = BisOracle(g)
    table, ntable = estimate_degrees_with_neighbors(o, S, 0.3, seed=seed,
                                                    constants=FAST_C)
    assert o.ledger.bis_count == predict_sketch_queries(
        n, S.members().size, 0.3, seed=seed, constants=FAST_C,
        extended=True)
    schedule = PartitionSchedule.build(S.members().size, n, 0.3, True, seed,
                                       FAST_C)
    planned = sum(np.unique(row).size for row in schedule.assignment)
    assert len(keys) == len(ntable.pools) < planned
    for i, t in enumerate(table.t_min.tolist()):
        assert keys[ntable.pool_id[i]] == (
            seed, "deg-ser", t, int(schedule.assignment[t, i]))


def test_cell_holding_every_vertex_gets_an_empty_pool():
    # on a one-edge graph, repetition 0 of this sketch puts both vertices
    # in one cell, whose outside is empty: the cell plans no recovery
    # block, its members point at an empty pool, and the dry run charges
    # it nothing
    g = Graph.from_edges(2, [(0, 1)])
    seed = (3, "deg", 0)     # the sketch of sample_edges_batch(..., seed=3)
    schedule = PartitionSchedule.build(2, 2, 0.25, True, seed, Constants())
    assert [np.unique(row).size for row in schedule.assignment] == [1, 2]
    o = BisOracle(g)
    table, ntable = estimate_degrees_with_neighbors(o, VertexSet.full(2),
                                                    0.25, seed)
    assert table.t_min.tolist() == [0, 0]
    assert ntable.cell_size.tolist() == [2, 2]
    assert [p.size for p in ntable.pools] == [0]
    assert ntable.neighbor.tolist() == [-1, -1]
    assert o.ledger.bis_count == predict_sketch_queries(
        2, 2, 0.25, seed, extended=True)
    # recovery blocks only for repetition 1's two one-vertex cells
    assert o.ledger.phases["deg-ns-ser"] == 2 * ser_queries(
        1, ser_pool_reps(2, 0.25, Constants()))
    batch = sample_edges_batch(BisOracle(g), 1, 0.25, seed=3)
    assert len(batch) == 1
