import math

import pytest

from bisq import BisOracle, audit, gen_gnp
from bisq.connectivity import round1_neighbor_sampling
from bisq.params import Constants, PAPER, FAST
from bisq.nbr_size import NsParams, plan_ns
from bisq.graph import VertexSet


def test_ns_closed_form_frozen_value():
    # independently evaluated: 13 levels, T = ceil(2 e^8 ln(12/0.1) / 0.2^2)
    t = math.ceil(2 * math.e ** 8 * math.log(12 / 0.1) / 0.04)
    expect = 13 * t
    got = audit.ns_planned_queries(4096, 0.2, 0.1, PAPER)
    assert got == expect


def test_ns_plan_materialization_matches_closed_form():
    n = 64
    c = Constants(c_T=2.0)
    ns = NsParams.create(n, 0.4, 0.2, FAST, c)
    plan = plan_ns(VertexSet.from_indices(n, [0]),
                   VertexSet.from_indices(n, list(range(1, 40))), ns, seed=1)
    assert plan.size() == audit.ns_planned_queries(n, 0.4, 0.2, FAST, c)


def test_estimator_ratio_band_within_4x():
    rows = audit.estimator_audit([2 ** k for k in range(8, 13)], 0.25)
    band = audit.ratio_band(rows)
    assert band <= 4.0, band


def test_ser_plan_bounded_by_budget_shape():
    rows = audit.ser_audit([2 ** k for k in range(4, 13)], 0.1)
    band = audit.ratio_band(rows)
    assert band <= 10.0
    assert all(r.ratio < 60 for r in rows)


def test_round1_growth_exponent_near_linear():
    # the round-1 plan is n vertices x O(log^4 n) queries: over
    # n log2(n)^4 it sits near 9-10 at every size, and after dividing out
    # log2(n)^4 alone it grows as n^1 (one log factor more or less would
    # move the fitted slope by ln 2 / ln 2^8, about 0.12, on this grid)
    import numpy as np
    ns = [2 ** k for k in range(8, 17)]
    adjusted = [audit.round1_planned_queries(n) / math.log2(n) ** 4
                for n in ns]
    assert all(8.0 <= a / n <= 11.0 for a, n in zip(adjusted, ns))
    slope = np.polyfit(np.log(ns), np.log(adjusted), 1)[0]
    assert 0.95 <= slope <= 1.05, slope


@pytest.mark.parametrize("n, planned", [(2, 92), (3, 864), (17, 77_350),
                                        (64, 840_448), (65, 853_580)])
def test_round1_dry_run_equals_executed_ledger(n, planned):
    c = Constants(c_nb=2.0)
    assert audit.round1_planned_queries(n, c) == planned
    o = BisOracle(gen_gnp(n, 0.3, seed=n))
    round1_neighbor_sampling(o, seed=n, constants=c)
    assert o.ledger.bis_count == planned
    assert o.ledger.round_count == o.ledger.batch_count == 1


def test_audit_is_pure_arithmetic():
    # identical inputs give identical outputs, no randomness
    a = audit.estimator_planned_queries(1024, 0.25)
    b = audit.estimator_planned_queries(1024, 0.25)
    assert a == b
