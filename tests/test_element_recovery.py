import numpy as np
from hypothesis import example, given, settings, strategies as st

from bisq import (BisOracle, VertexSet, gen_family, gen_gnp, plan_ser,
                  decode_ser, answer_plan, uniform_neighbor_of_set)
from bisq import bitset
from bisq.element_recovery import build_neighbor_recovery
from bisq.graph import Graph
from bisq.oracle import QueryPlan, side_masks
from bisq.params import (Constants, ser_bits, ser_levels, ser_plan_size,
                         ser_reps)
from bisq.seeding import rng_for
from ser_reference import fresh_row_answers, reference_pool


def _answers_for_support(plan, support):
    domain = bitset.popcount(plan.block.base)
    x = bitset.pack_indices(domain, sorted(support))
    return answer_plan(plan, x)


def test_plan_shape_n8():
    plan = plan_ser(8, delta=0.2, seed=1)
    # 4 levels x reps x (2*3 + 2) rows
    assert plan.block.draw_masks().shape[:2] == (plan.reps, 4)
    assert ser_levels(8) == 4 and ser_bits(8) == 3
    assert plan.block.n_queries() == 4 * plan.reps * 8


def test_plan_domain_one():
    plan = plan_ser(1, delta=0.2, seed=1)
    assert plan.block.draw_masks().shape[:2] == (plan.reps, 1)
    assert ser_levels(1) == 1 and ser_bits(1) == 0
    out = decode_ser(plan, _answers_for_support(plan, {0}))
    assert out.recovered == 0


def test_plan_size_against_budget():
    # plan <= c * log^2 N * log(1/delta) with one fitted constant
    delta = 0.05
    c = Constants()
    ratios = []
    for exp in range(4, 13):
        N = 2 ** exp
        ratios.append(ser_plan_size(N, delta, c)
                      / (np.log2(N) ** 2 * np.log(1 / delta)))
    assert max(ratios) <= 10 * min(ratios)
    assert max(ratios) < 60


def test_singleton_support_always_recovered_when_included():
    plan = plan_ser(8, delta=0.1, seed=3)
    out = decode_ser(plan, _answers_for_support(plan, {5}))
    assert out.recovered == 5
    # every accepted repetition decodes the same single element
    assert out.pool.size and (out.pool == 5).all()


def test_empty_support_fails_never_fabricates():
    plan = plan_ser(16, delta=0.1, seed=4)
    out = decode_ser(plan, _answers_for_support(plan, set()))
    assert out.recovered is None and out.pool.size == 0


def test_recovered_always_in_support():
    rng = rng_for(77)
    for trial in range(40):
        domain = int(rng.integers(2, 120))
        size = int(rng.integers(1, domain + 1))
        support = set(rng.choice(domain, size=size, replace=False).tolist())
        plan = plan_ser(domain, delta=0.2, seed=trial)
        out = decode_ser(plan, _answers_for_support(plan, support))
        if out.recovered is not None:
            assert out.recovered in support
        for idx in out.pool.tolist():
            assert idx in support


def test_uniformity_chi_square_quick():
    from scipy.stats import chisquare
    support = {3, 11, 19, 26}
    counts = {s: 0 for s in support}
    got = 0
    for seed in range(1500):
        plan = plan_ser(32, delta=0.25, seed=("unif", seed),
                        constants=Constants(c_R=2.0))
        out = decode_ser(plan, _answers_for_support(plan, support))
        if out.recovered is not None:
            counts[out.recovered] += 1
            got += 1
    assert got > 1200
    stat, p = chisquare(list(counts.values()))
    assert p > 0.005, counts


def test_pool_entries_independent_uniform():
    # pooled entries within one plan are also uniform over the support
    from scipy.stats import chisquare
    support = {1, 8, 17, 30}
    counts = {s: 0 for s in support}
    for seed in range(80):
        plan = plan_ser(32, delta=0.05, seed=("pool", seed))
        out = decode_ser(plan, _answers_for_support(plan, support))
        for idx in out.pool.tolist():
            counts[idx] += 1
    assert sum(counts.values()) > 1000   # one pool entry per accepting rep
    stat, p = chisquare(list(counts.values()))
    assert p > 0.005, counts


def test_uniform_neighbor_star():
    g = gen_family("star", n=5)
    o = BisOracle(g)
    L = VertexSet.from_indices(5, [0])
    R = VertexSet.from_indices(5, [1, 2, 3, 4])
    seen = {1: 0, 2: 0, 3: 0, 4: 0}
    for seed in range(300):
        v = uniform_neighbor_of_set(o, L, R, 0.1, seed=seed)
        if v is not None:
            assert g.has_edge(0, v)
            seen[v] += 1
    assert all(c > 30 for c in seen.values()), seen


def test_uniform_neighbor_empty_support():
    g = gen_family("components", k=2, sizes=[3, 3], inner="clique")
    o = BisOracle(g)
    L = VertexSet.from_indices(6, [0])
    R = VertexSet.from_indices(6, [3, 4, 5])   # other component: no edges
    for seed in range(10):
        assert uniform_neighbor_of_set(o, L, R, 0.1, seed=seed) is None


def test_uniform_neighbor_singleton_support():
    g = gen_family("path", n=4)
    o = BisOracle(g)
    L = VertexSet.from_indices(4, [0])
    R = VertexSet.from_indices(4, [1, 2, 3])
    for seed in range(10):
        v = uniform_neighbor_of_set(o, L, R, 0.1, seed=seed)
        if v is not None:
            assert v == 1


def test_single_round_and_query_count():
    g = gen_gnp(64, 0.1, seed=5)
    o = BisOracle(g)
    L = VertexSet.from_indices(64, [0])
    R = VertexSet.full(64).difference(L)
    c = Constants()
    uniform_neighbor_of_set(o, L, R, 0.1, seed=1, constants=c)
    snap = o.ledger.snapshot()
    assert snap["round_count"] == 1
    assert snap["bis_count"] == ser_plan_size(63, 0.1, c)


def test_recovery_soundness_against_oracle():
    # recovered vertices are certified members of Gamma(L) ∩ R
    g = gen_gnp(96, 0.07, seed=8)
    for seed in range(25):
        o = BisOracle(g)
        rng = rng_for("sound", seed)
        ids = rng.permutation(96)
        L = VertexSet.from_indices(96, ids[:3])
        R = VertexSet.from_indices(96, ids[3:60])
        rec = build_neighbor_recovery(L.members(), R.words, reps=12,
                                      seed=seed)
        result = o.submit(QueryPlan(96, [rec.block]))[0]
        assert result.tolist() == reference_pool(
            rec.block, fresh_row_answers(g, rec.block)).tolist()
        pool = rec.decode_pool(result)
        gamma = g.neighborhood_words(L.members())
        for v in pool:
            assert bitset.contains(gamma, int(v))
            assert int(v) in R


@settings(max_examples=20, deadline=None)
@given(st.integers(2, 64), st.data())
def test_certificate_soundness_property(domain, data):
    support = data.draw(st.sets(st.integers(0, domain - 1), min_size=0,
                                max_size=domain))
    seed = data.draw(st.integers(0, 10 ** 6))
    plan = plan_ser(domain, delta=0.3, seed=seed,
                    constants=Constants(c_R=3.0))
    out = decode_ser(plan, _answers_for_support(plan, support))
    if support:
        if out.recovered is not None:
            assert out.recovered in support
    else:
        assert out.recovered is None


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 200), st.integers(0, 70), st.integers(0, 10 ** 6))
def test_side_masks_match_per_bit_packing(domain, spare, seed):
    # reference: one pack_indices call per side
    n = domain + spare
    ids = np.sort(rng_for("sides", seed).choice(n, domain, replace=False))
    bits = ser_bits(domain)
    ref = np.empty((2 * bits + 2, bitset.word_count(n)), dtype=np.uint64)
    ref[0] = ref[-1] = bitset.pack_indices(n, ids)
    idx = np.arange(domain)
    for b in range(bits):
        hi = (idx >> b) & 1 == 1
        ref[1 + b] = bitset.pack_indices(n, ids[hi])
        ref[1 + bits + b] = bitset.pack_indices(n, ids[~hi])
    assert np.array_equal(side_masks(n, ids), ref)


def _edge_domains(test):
    # one word, one bit short of a word, exactly a word, one bit over
    for domain in (1, 63, 64, 65):
        test = example(domain=domain, seed=domain)(test)
    return test


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 200), st.integers(0, 10 ** 6))
@_edge_domains
def test_answer_plan_equals_row_by_row_or(domain, seed):
    # reference: the decode of every materialized row of the plan's block
    # ANDed with x
    rng = rng_for("row-or", seed)
    reps = int(rng.integers(1, 4))
    support = np.flatnonzero(rng.random(domain) < rng.random())
    plan = plan_ser(domain, delta=0.3, seed=("row-or", seed), reps=reps)
    x = bitset.pack_indices(domain, support)
    expect = [0 if (rw & x).any() else 1 for _, rw in plan.block.iter_rows()]
    pool = answer_plan(plan, x)
    assert pool.dtype == np.int64
    assert pool.tolist() == reference_pool(plan.block, expect).tolist()


def _edge_support(domain, kind, rng):
    """Support of the given kind in 0..domain-1: empty, one index, the
    whole domain, or a nonempty part of the last word alone."""
    if kind == "empty":
        return np.zeros(0, dtype=np.int64)
    if kind == "singleton":
        return np.array([int(rng.integers(domain))])
    if kind == "whole":
        return np.arange(domain)
    tail = np.arange(bitset.WORD_BITS * (bitset.word_count(domain) - 1),
                     domain)
    return np.union1d(tail[rng.random(tail.size) < 0.5],
                      [int(rng.choice(tail))])


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([1, 2, 63, 64, 65]),
       st.sampled_from(["empty", "singleton", "whole", "tail"]),
       st.integers(1, 4), st.integers(0, 10 ** 6))
def test_pool_equals_reference_decode_at_word_edges(domain, kind, reps,
                                                    seed):
    # the abstract plan (answer_plan) and the same domain as the
    # neighbors of one extra vertex (evaluate), each against the decode
    # of its rows' answers; domain 1 is the one-level plan
    support = _edge_support(domain, kind, rng_for("edge-support", seed))
    plan = plan_ser(domain, delta=0.3, seed=("edge", seed), reps=reps)
    x = bitset.pack_indices(domain, support)
    expect = [0 if (rw & x).any() else 1 for _, rw in plan.block.iter_rows()]
    pool = answer_plan(plan, x)
    assert pool.tolist() == reference_pool(plan.block, expect).tolist()
    assert set(pool.tolist()) <= set(support.tolist())

    g = Graph.from_edges(domain + 1, [(domain, int(v)) for v in support])
    rec = build_neighbor_recovery(
        np.array([domain]), bitset.pack_indices(domain + 1, range(domain)),
        reps, ("edge", seed))
    result = BisOracle(g).submit(QueryPlan(domain + 1, [rec.block]))[0]
    assert result.dtype == np.int64
    assert result.tolist() == reference_pool(
        rec.block, fresh_row_answers(g, rec.block)).tolist()
    if kind == "empty":
        assert pool.size == result.size == 0
    if support.size == 1:
        # one vertex: every repetition certifies level 0
        assert pool.size == result.size == reps
        assert (pool == support[0]).all() and (result == support[0]).all()


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 200), st.integers(0, 10 ** 6))
@_edge_domains
def test_plan_ser_masks_are_pinned_to_the_ser_plan_stream(domain, seed):
    c = Constants(c_R=2.0)
    plan = plan_ser(domain, delta=0.2, seed=("pin", seed), constants=c)
    expect = bitset.nested_rate_masks(
        rng_for(("pin", seed), "ser-plan"), bitset.full_words(domain),
        ser_levels(domain), ser_reps(0.2, c))
    assert np.array_equal(plan.block.draw_masks(), expect)
    assert plan.block.n_queries() == ser_plan_size(domain, 0.2, c)
