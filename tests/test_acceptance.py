"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Criteria 4, 6, 7 run with tuned constants (noted per test); everything
else runs at package defaults.  Run with `pytest -s tests/test_acceptance.py`
to see the per-criterion lines.
"""
import math
from collections import Counter

import numpy as np
import pytest
from scipy.stats import chisquare

from bisq import (BisOracle, SupernodeOracle, VertexSet, contract,
                  estimate_degrees, estimate_ns, exact_connected,
                  exact_neighborhood_size, gen_family, gen_gnp,
                  is_connected, run_pipeline, sample_edges_batch)
from bisq import audit
from bisq.edge_sampler import OK
from bisq.element_recovery import answer_plan, decode_ser, plan_ser
from bisq.graph import Graph
from bisq.params import Constants, PAPER
from bisq.seeding import rng_for
from bisq import bitset

# tuned constant sets for the statistically heavy criteria (see README)
EST_C = Constants(c_T=8.0, c2=4.0, c_lambda=4.0)
SAMP_C = Constants(c_T=8.0, c2=1.0, c_lambda=16.0, ser_pool_scale=4.0)
CONN_C = Constants(c_T=8.0, c2=1.0, c_lambda=16.0, ser_pool_scale=4.0,
                   c_nb=2.0)

# cross-test records consumed by criterion 5
_RECORDS: dict = {"estimate": [], "sample": [], "connectivity": []}


def _report(cid: str, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {cid}: {'PASS' if ok else 'FAIL'} | {detail}")
    assert ok, f"{cid}: {detail}"


# -- criterion 1: NS exactness at sizes 0 and 1 ------------------------------

def test_criterion_1_ns_exactness():
    g = gen_gnp(128, 0.03, seed=100)
    rng = rng_for("c1")
    exact = 0
    total = 0
    while total < 1000:
        o = BisOracle(g)
        left_ids = rng.choice(128, size=int(rng.integers(1, 5)),
                              replace=False)
        L = VertexSet.from_indices(128, np.sort(left_ids))
        gamma = set(bitset.members(g.neighborhood_words(L.members()), 128)
                    .tolist()) - set(left_ids.tolist())
        others = [v for v in range(128)
                  if v not in gamma and v not in set(left_ids.tolist())]
        base = list(rng.choice(others, size=min(30, len(others)),
                               replace=False))
        want_one = total % 2 == 1 and gamma
        members = base + ([int(next(iter(gamma)))] if want_one else [])
        R = VertexSet.from_indices(128, sorted(members))
        true = exact_neighborhood_size(g, L, R)
        assert true in (0, 1)
        est = estimate_ns(o, L, R, 0.5, 0.25, seed=("c1", total))
        if est == float(true):
            exact += 1
        total += 1
    _report("C1 (NS exactness at sizes 0/1)", exact == total,
            f"{exact}/{total} exact")


# -- criterion 2: NS accuracy at sizes 10 / 100 / 1000 ------------------------

def test_criterion_2_ns_accuracy():
    n = 4096
    eps, delta = 0.2, 0.1
    results = {}
    for size in (10, 100, 1000):
        g = Graph.from_edges(n, [(0, i) for i in range(1, size + 1)])
        L = VertexSet.from_indices(n, [0])
        R = VertexSet.full(n).difference(L)
        assert exact_neighborhood_size(g, L, R) == size
        o = BisOracle(g)
        hits = 0
        for t in range(200):
            est = estimate_ns(o, L, R, eps, delta, seed=("c2", size, t))
            if (1 - eps) * size <= est <= (1 + eps) * size:
                hits += 1
        results[size] = hits / 200
    ok = all(rate >= 0.88 for rate in results.values())
    _report("C2 (NS accuracy, fast profile)", ok,
            f"within-(1±0.2) rates {results} (floor 0.88)")


# -- criterion 3: degree sandwich ---------------------------------------------

def test_criterion_3_degree_sandwich():
    n, eps = 1024, 0.25
    g = gen_gnp(n, 0.02, seed=11)
    rng = rng_for("c3-subset")
    ok_pairs = 0
    total = 0
    for trial in range(20):
        ids = np.sort(rng.choice(n, size=64, replace=False))
        S = VertexSet.from_indices(n, ids)
        o = BisOracle(g)
        table = estimate_degrees(o, S, eps, seed=("c3", trial))
        d_s = int(g.degrees[ids].sum())
        slack = eps ** 3 / math.log2(n) ** 2 * d_s
        for i, v in enumerate(table.vertices):
            d = g.degree(int(v))
            if (1 - eps) * d <= table.d_hat[i] <= d + slack:
                ok_pairs += 1
            total += 1
    rate = ok_pairs / total
    _report("C3 (degree sandwich)", rate >= 0.90,
            f"{ok_pairs}/{total} pairs inside the two-sided bound "
            f"({rate:.3f}, floor 0.90)")


# -- criterion 4: edge estimate accuracy --------------------------------------

def test_criterion_4_edge_estimate():
    g = gen_gnp(1024, 0.01, seed=4)
    hits = 0
    trials = 50
    for t in range(trials):
        o = BisOracle(g)
        result = run_pipeline(o, 0.25, seed=("c4", t), constants=EST_C)
        delta = result.ledger_delta
        _RECORDS["estimate"].append(
            {"rounds": delta["round_count"],
             "refine_queries": result.refine_queries})
        if abs(result.m_hat - g.m) <= 0.30 * g.m:
            hits += 1
    rate = hits / trials
    _report("C4 (edge estimate, m within ±0.30)", rate >= 0.60,
            f"{hits}/{trials} trials within tolerance on m={g.m} "
            f"(floor 0.60; constants c_T=8 c2=4 c_lambda=4)")


# -- criterion 6: sampler near-uniformity -------------------------------------

def test_criterion_6_sampler_uniformity():
    n = 256
    g = gen_gnp(n, 0.00306, seed=0)   # fixed corpus graph, m ~= 100
    m = g.m
    assert 90 <= m <= 110
    o = BisOracle(g)
    draws_wanted = 50000
    outs = sample_edges_batch(o, 56000, 0.25, seed=606, constants=SAMP_C)
    ok_draws = [s for s in outs if s.status == OK][:draws_wanted]
    snap = o.ledger.snapshot()
    _RECORDS["sample"].append({"rounds": snap["round_count"]})
    got = len(ok_draws)
    non_edges = sum(1 for s in ok_draws if not g.has_edge(*s.edge))
    freq = Counter(tuple(sorted(s.edge)) for s in ok_draws)
    sigma = math.sqrt((1 / m) * (1 - 1 / m) / got) if got else 1.0
    outside = 0
    for e in g.edges():
        p = freq.get(e, 0) / got
        if not ((1 - 0.25) / m - 3 * sigma <= p <= (1 + 0.25) / m + 3 * sigma):
            outside += 1
    tv = 0.5 * sum(abs(freq.get(e, 0) / got - 1 / m) for e in g.edges())
    ok = (got >= draws_wanted and non_edges == 0 and outside == 0
          and tv <= 0.25)
    _report("C6 (sampler near-uniformity)", ok,
            f"{got} draws, {non_edges} non-edges, {outside} edges outside "
            f"(1±0.25)/m ± 3σ, TV={tv:.3f} (cap 0.25)")


# -- criterion 7: connectivity corpus -----------------------------------------

def _connectivity_corpus():
    graphs = []
    rng = rng_for("corpus7")
    kinds = ["path", "star", "cycle", "clique", "gnp", "bipartite"]
    i = 0
    while len(graphs) < 50:
        kind = kinds[i % len(kinds)]
        n = int(rng.integers(48, 513))
        if kind == "gnp":
            g = gen_gnp(n, 3.0 * math.log(n) / n, seed=("c7", i))
        elif kind == "bipartite":
            a = max(2, n // 3)
            g = gen_family("complete_bipartite", a=a, b=min(n - a, 40))
        elif kind == "clique":
            g = gen_family("clique", n=min(n, 96))
        else:
            g = gen_family(kind, n=n)
        if exact_connected(g)[0]:
            graphs.append((g, True))
        i += 1
    inners = ["clique", "path", "star", "gnp", "cycle"]
    j = 0
    while len(graphs) < 100:
        k = int(rng.integers(2, 6))
        sizes = [int(rng.integers(8, 100)) for _ in range(k)]
        if sum(sizes) > 512:
            sizes = [max(8, s * 512 // sum(sizes)) for s in sizes]
        g = gen_family("components", k=k, sizes=sizes,
                       inner=inners[j % len(inners)], p=0.4, seed=("d7", j))
        ok, comps = exact_connected(g)
        if not ok and 2 <= len(comps) <= 5:
            graphs.append((g, False))
        j += 1
    return graphs


def test_criterion_7_connectivity():
    graphs = _connectivity_corpus()
    correct = 0
    false_connected = 0
    max_rounds = 0
    for i, (g, truth) in enumerate(graphs):
        o = BisOracle(g)
        rep = is_connected(o, seed=("c7run", i), constants=CONN_C)
        _RECORDS["connectivity"].append({"rounds": rep.rounds})
        max_rounds = max(max_rounds, rep.rounds)
        if rep.connected == truth:
            correct += 1
        if rep.connected and not truth:
            false_connected += 1
    ok = correct >= 99 and false_connected == 0 and max_rounds <= 2
    _report("C7 (connectivity corpus)", ok,
            f"{correct}/100 correct, {false_connected} false-connected, "
            f"max rounds {max_rounds}")


# -- criterion 5: non-adaptivity accounting (over the runs of 4, 6, 7) -------

def test_criterion_5_non_adaptivity():
    est, samp, conn = (_RECORDS["estimate"], _RECORDS["sample"],
                       _RECORDS["connectivity"])
    if not (est and samp and conn):
        pytest.skip("criteria 4/6/7 did not run in this session")
    est_ok = all(r["rounds"] == 1 and r["refine_queries"] == 0 for r in est)
    samp_ok = all(r["rounds"] == 1 for r in samp)
    conn_ok = all(r["rounds"] <= 2 for r in conn)
    _report("C5 (non-adaptivity, exact)", est_ok and samp_ok and conn_ok,
            f"estimator rounds==1 & query-free refine: {est_ok} "
            f"({len(est)} runs); sampler rounds==1: {samp_ok}; "
            f"connectivity rounds<=2: {conn_ok} ({len(conn)} runs)")


# -- criterion 8: recovery uniformity -----------------------------------------

def test_criterion_8_ser_uniformity():
    domain = 64
    rng = rng_for("c8")
    all_ok = True
    details = []
    for size in (2, 4, 5, 32):
        support = sorted(rng.choice(domain, size=size, replace=False)
                         .tolist())
        x = bitset.pack_indices(domain, support)
        counts = {s: 0 for s in support}
        successes = 0
        seed = 0
        while successes < 10000:
            plan = plan_ser(domain, delta=0.2, seed=("c8", size, seed),
                            constants=Constants(c_R=2.0))
            out = decode_ser(plan, answer_plan(plan, x))
            seed += 1
            if out.recovered is None:
                continue
            assert out.recovered in support   # verified in-support, always
            counts[out.recovered] += 1
            successes += 1
        _, p = chisquare(list(counts.values()))
        details.append(f"size {size}: chi2 p={p:.4f}")
        if p <= 0.01:
            all_ok = False
    _report("C8 (recovery uniformity)", all_ok,
            "; ".join(details) + " (alpha 0.01)")


# -- criterion 9: dry-run complexity audits -----------------------------------

def test_criterion_9_dry_run_audits():
    # closed form, fully independent arithmetic
    t_expected = math.ceil(2 * math.e ** 8 * math.log(12 / 0.1) / 0.2 ** 2)
    ns_expected = 13 * t_expected
    ns_got = audit.ns_planned_queries(4096, 0.2, 0.1, PAPER)
    ns_ok = ns_got == ns_expected

    est_rows = audit.estimator_audit([2 ** k for k in range(8, 13)], 0.25)
    band = audit.ratio_band(est_rows)
    est_ok = band <= 4.0

    ser_rows = audit.ser_audit([2 ** k for k in range(4, 13)], 0.1)
    ser_ok = all(r.ratio <= 60 for r in ser_rows)
    _report("C9 (dry-run complexity audits)", ns_ok and est_ok and ser_ok,
            f"NS plan {ns_got} == closed form {ns_expected}; estimator "
            f"ratio band {band:.2f} (cap 4); SER ratio max "
            f"{max(r.ratio for r in ser_rows):.1f} (cap 60)")


# -- criterion 10: oracle / brute-force equivalence ---------------------------

def test_criterion_10_oracle_equivalence():
    corpus = [gen_gnp(16, 0.3, seed=1), gen_gnp(32, 0.15, seed=2),
              gen_gnp(64, 0.08, seed=3), gen_family("star", n=48),
              gen_family("clique", n=24), gen_family("path", n=64),
              gen_family("components", k=3, sizes=[8, 16, 24],
                         inner="clique")]
    rng = rng_for("c10")
    mismatches = 0
    total = 0
    per_graph = 10000 // len(corpus) + 1
    for g in corpus:
        o = BisOracle(g)
        for _ in range(per_graph):
            ids = rng.permutation(g.n)
            ls = int(rng.integers(1, max(2, g.n // 3)))
            rs = int(rng.integers(1, max(2, g.n // 2)))
            L = VertexSet.from_indices(g.n, np.sort(ids[:ls]))
            R = VertexSet.from_indices(g.n, np.sort(ids[ls:ls + rs]))
            expect = 1 if exact_neighborhood_size(g, L, R) == 0 else 0
            if o.bis(L, R) != expect:
                mismatches += 1
            total += 1

    # contracted-graph oracle against explicit cross-edge enumeration
    g = gen_gnp(64, 0.1, seed=9)
    all_edges = g.edges()
    sample = {all_edges[i] for i in rng.choice(len(all_edges), size=25,
                                               replace=False)}
    sg = contract(np.array(sorted(sample), dtype=np.int64).reshape(-1, 2),
                  g.n)
    sup = SupernodeOracle(BisOracle(g), sg)
    explicit = set()
    for u, v in all_edges:
        a, b = int(sg.supernode_of[u]), int(sg.supernode_of[v])
        if a != b:
            explicit.add((min(a, b), max(a, b)))
    sup_mismatch = 0
    for _ in range(1000):
        ids = rng.permutation(sg.p)
        k = int(rng.integers(1, max(2, sg.p // 2 + 1)))
        r = int(rng.integers(1, max(2, sg.p // 2 + 1)))
        L = set(ids[:k].tolist())
        R = set(ids[k:k + r].tolist())
        if not R:
            continue
        ans = sup.bis(VertexSet.from_indices(sg.p, sorted(L)),
                      VertexSet.from_indices(sg.p, sorted(R)))
        truth = 0 if any((min(a, b), max(a, b)) in explicit
                         for a in L for b in R) else 1
        if ans != truth:
            sup_mismatch += 1
    ok = mismatches == 0 and sup_mismatch == 0
    _report("C10 (oracle/brute-force equivalence)", ok,
            f"{total} base queries, {mismatches} mismatches; 1000 "
            f"supernode queries, {sup_mismatch} mismatches")
