import math

import numpy as np
import pytest

from bisq import (AnalysisOracle, BisOracle, build_schedule,
                  coarse_estimate, draw_levels, estimate_edges, gen_family,
                  gen_gnp, refine, run_pipeline)
from bisq import bitset, params
from bisq.degree_est import DegreeTable
from bisq.edge_estimator import recovery_threshold, refine_pass_count
from bisq.graph import Graph
from bisq.params import Constants, PAPER
from bisq.seeding import rng_for

EST_C = Constants(c_T=8.0, c2=4.0, c_lambda=4.0)


def test_schedule_fast_arithmetic():
    s = build_schedule(1024, 0.5, seed=1)
    assert s.eps_scaled == 0.5
    assert s.buckets == 4
    assert s.gamma == pytest.approx(2.0)
    assert 0 <= s.shift < 4
    for j in range(1, s.top_level + 1):
        assert s.mu(j) == j * 4 - s.shift


def test_schedule_paper_scaling():
    eps_scaled, _, buckets, _ = params.level_ladder(2 ** 16, 0.25, PAPER)
    assert eps_scaled == pytest.approx(0.25 / 1200)
    assert buckets == 9600


def test_schedule_shift_zero_case():
    for seed in range(40):
        s = build_schedule(256, 0.5, seed=seed)
        if s.shift == 0:
            assert s.mu(1) == s.buckets
            assert s.rate(0) == 1.0
            return
    pytest.fail("no zero shift over 40 seeds")


def test_mu_strictly_increasing_and_top_level_bound():
    s = build_schedule(4096, 0.25, seed=3)
    mus = [s.mu(j) for j in range(1, s.top_level + 1)]
    assert all(b > a for a, b in zip(mus, mus[1:]))
    assert s.top_level <= 0.5 * math.log2(4096) + 2


def test_levels_nested_every_seed():
    s = build_schedule(512, 0.25, seed=5)
    for seed in range(10):
        samples = draw_levels(512, s, seed)
        assert len(samples) == s.top_level + 1
        assert len(samples[0]) == 512
        for j in range(1, len(samples)):
            assert samples[j].difference(samples[j - 1]).members().size == 0


def test_level_sizes_match_rates():
    n = 4096
    s = build_schedule(n, 0.5, seed=11)
    reps = 100
    for j in (1, 2):
        sizes = [len(draw_levels(n, s, seed)[j]) for seed in range(reps)]
        expect = n * s.rate(j)
        sigma = math.sqrt(n * s.rate(j) * (1 - s.rate(j)))
        assert abs(np.mean(sizes) - expect) <= 3 * sigma / math.sqrt(reps) + 1


def test_coarse_empty_graph():
    g = Graph.from_edges(32, [])
    o = BisOracle(g)
    assert coarse_estimate(o, seed=1) == 2.0


def test_coarse_sandwich_clique():
    g = gen_family("clique", n=64)
    ok = 0
    for seed in range(30):
        o = BisOracle(g)
        m0 = coarse_estimate(o, seed=seed)
        if g.m <= m0 <= 64 * math.log2(64) ** 2 * g.m:
            ok += 1
    assert ok >= 28


def test_coarse_sandwich_gnp():
    g = gen_gnp(1024, 0.01, seed=5)
    ok = 0
    for seed in range(40):
        o = BisOracle(g)
        m0 = coarse_estimate(o, seed=seed)
        if g.m <= m0 <= 64 * math.log2(1024) ** 2 * g.m:
            ok += 1
    assert ok >= 38


def test_coarse_plan_matches_row_by_row_draws():
    # reference: one w-word plane per draw, row by row, alternating A and B
    class PlanRecorder:
        n = 130

        def submit(self, plan):
            self.plan = plan
            return [np.ones(plan.size(), dtype=np.uint8)]

    rec = PlanRecorder()
    coarse_estimate(rec, seed=3)
    block = rec.plan.blocks[0]
    n = rec.n
    rng = rng_for(3, "coarse")
    a_words = bitset.pack_bool(rng.random(n) < 0.5)
    b_words = bitset.trim_tail(~a_words.copy(), n)
    row = 0
    for i in range(params.coarse_rate_count(n)):
        for _ in range(params.coarse_reps(n)):
            la, lb = a_words, b_words
            for _k in range((i + 1) // 2):
                la = la & bitset.random_planes(rng, a_words.size)
                lb = lb & bitset.random_planes(rng, a_words.size)
            assert np.array_equal(block.left[row], la)
            assert np.array_equal(block.right[row], lb)
            row += 1
    assert row == block.n_queries()


def _empty_tables(n, schedule):
    tables = {}
    for j in range(schedule.top_level + 1):
        tables[j] = DegreeTable(vertices=np.zeros(0, dtype=np.int64),
                                d_hat=np.zeros(0),
                                t_min=np.zeros(0, dtype=np.int64),
                                failed=np.zeros(0, dtype=bool))
    return tables


def test_refine_normalization_only():
    n = 1024
    s = build_schedule(n, 0.25, seed=1)
    tables = _empty_tables(n, s)
    m0 = 5000.0
    state = refine(tables, s, m0, m0, t=1, t_total=10)
    q = 0.25 * math.log2(math.log2(n))
    assert state.m_t == pytest.approx(q * m0)
    state3 = refine(tables, s, m0, m0, t=3, t_total=10)
    assert state3.m_t == pytest.approx(q ** 3 * m0)


def test_refine_final_pass_formula():
    # one vertex recovered with weight gamma^mu * d_hat = 8 * 10 -> m = 40
    n = 64
    s = build_schedule(n, 0.5, seed=100)
    j = next(j for j in range(1, s.top_level + 1))
    # pick a seed/shift where gamma^mu(1) == 8 (gamma=2, mu = 4 - s => s=1)
    seed = next(k for k in range(100)
                if build_schedule(n, 0.5, seed=k).shift == 1)
    s = build_schedule(n, 0.5, seed=seed)
    assert s.gamma_pow_mu(1) == pytest.approx(8.0)
    samples = draw_levels(n, s, seed=3)
    tables = _empty_tables(n, s)
    v = int(samples[1].members()[0])
    tables[1] = DegreeTable(vertices=np.array([v]), d_hat=np.array([10.0]),
                            t_min=np.zeros(1, dtype=np.int64),
                            failed=np.zeros(1, dtype=bool))
    state = refine(tables, s, m_prev=2.0, m0=2.0, t=5, t_total=5)
    assert state.m_t == pytest.approx(40.0)
    assert state.recovered.tolist() == [v]
    assert state.levels.tolist() == [1]


def test_refine_single_recovery_per_pass():
    # a vertex present in two levels contributes exactly once
    n = 64
    s = build_schedule(n, 0.5, seed=7)
    tables = _empty_tables(n, s)
    common = 5
    tables[0] = DegreeTable(vertices=np.array([common]),
                            d_hat=np.array([50.0]),
                            t_min=np.zeros(1, dtype=np.int64),
                            failed=np.zeros(1, dtype=bool))
    tables[1] = DegreeTable(vertices=np.array([common]),
                            d_hat=np.array([50.0]),
                            t_min=np.zeros(1, dtype=np.int64),
                            failed=np.zeros(1, dtype=bool))
    state = refine(tables, s, m_prev=2.0, m0=2.0, t=3, t_total=3)
    assert state.recovered.tolist() == [common]
    assert state.levels.tolist() == [0]


def test_recovery_level_matches_actual_level_with_exact_degrees():
    # exact-degree injection: non-boundary vertices recover at their
    # true level whenever sampled there
    n = 256
    star = gen_family("star", n=101)
    g = Graph.from_edges(n, star.edges())
    s = build_schedule(n, 0.25, seed=21)
    samples = draw_levels(n, s, seed=22)
    m_bar = float(g.m)
    analysis = AnalysisOracle(graph=g, schedule=s, m_bar=m_bar)
    tables = {}
    for j in range(s.top_level + 1):
        verts = samples[j].members()
        tables[j] = DegreeTable(vertices=verts,
                                d_hat=g.degrees[verts].astype(float),
                                t_min=np.zeros(verts.size, dtype=np.int64),
                                failed=np.zeros(verts.size, dtype=bool))
    state = refine(tables, s, m_bar, m_bar, t=4, t_total=4)
    lhat = dict(zip(state.recovered.tolist(), state.levels.tolist()))
    for v in range(n):
        lv = analysis.actual_level(v)
        if lv is None or analysis.is_boundary(v):
            continue
        if v in samples[lv]:
            assert lhat.get(v) == lv, (v, lv, lhat.get(v))


def test_refine_median_accuracy_exact_degree_injection():
    n = 256
    star = gen_family("star", n=101)
    g = Graph.from_edges(n, star.edges())
    estimates = []
    for seed in range(101):
        s = build_schedule(n, 0.25, seed=("inj", seed))
        samples = draw_levels(n, s, seed=("inj-l", seed))
        tables = {}
        for j in range(s.top_level + 1):
            verts = samples[j].members()
            tables[j] = DegreeTable(vertices=verts,
                                    d_hat=g.degrees[verts].astype(float),
                                    t_min=np.zeros(verts.size, dtype=np.int64),
                                    failed=np.zeros(verts.size, dtype=bool))
        state = refine(tables, s, float(g.m), float(g.m),
                       t=4, t_total=4)
        estimates.append(state.m_t)
    med = float(np.median(estimates))
    assert 75 <= med <= 125, med


def test_boundary_probability_over_shifts():
    n = 1024
    g = gen_gnp(n, 0.01, seed=31)
    inside = 0
    total = 0
    for seed in range(400):
        s = build_schedule(n, 0.25, seed=("bnd", seed))
        analysis = AnalysisOracle(graph=g, schedule=s, m_bar=float(g.m))
        for v in range(0, n, 97):
            total += 1
            if analysis.is_boundary(v):
                inside += 1
    rate = inside / total
    sigma = math.sqrt(0.25 * 0.75 / total)
    assert rate <= 0.25 + 3 * sigma, rate


def test_estimate_empty_graph_zero():
    g = Graph.from_edges(128, [])
    o = BisOracle(g)
    assert estimate_edges(o, 0.25, seed=1, constants=EST_C) == 0.0


def test_one_round_and_refines_query_free():
    g = gen_gnp(256, 0.02, seed=41)
    o = BisOracle(g)
    result = run_pipeline(o, 0.25, seed=42, constants=EST_C)
    assert result.ledger_delta["round_count"] == 1
    assert result.refine_queries == 0
    assert result.refine_trace[0] == result.m0
    assert result.refine_trace[-1] == result.m_hat
    assert len(result.refine_trace) == refine_pass_count(result.schedule,
                                                         result.m0) + 1


def test_estimator_accuracy_small_statistical():
    g = gen_gnp(512, 0.015, seed=51)
    hits = 0
    trials = 12
    for seed in range(trials):
        o = BisOracle(g)
        m_hat = estimate_edges(o, 0.25, seed=("acc", seed), constants=EST_C)
        if abs(m_hat - g.m) <= 0.35 * g.m:
            hits += 1
    assert hits >= 7, hits


def test_threshold_level_zero_uses_unit_rate():
    s = build_schedule(256, 0.25, seed=1)
    thr0 = recovery_threshold(s, 100.0, 0, Constants())
    assert thr0 == pytest.approx(100.0 * 50 * 0.0625 / math.log2(256))
