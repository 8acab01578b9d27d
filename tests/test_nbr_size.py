import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bisq import (BisOracle, VertexSet, estimate_ns, gen_family, gen_gnp,
                  exact_neighborhood_size)
from bisq.errors import NsDecodeError
from bisq import nbr_size
from bisq.nbr_size import NsParams, decode_ns, plan_ns
from bisq.params import Constants, FAST


def _params(n=16, eps=0.3, delta=0.2):
    return NsParams.create(n, eps, delta, FAST)


def test_level_count():
    # n=16 gives levels 0..4
    ns = _params(n=16)
    assert ns.levels == 5


def test_plan_shape_and_purity():
    n = 16
    ns = NsParams.create(n, 0.5, 0.25, FAST, Constants(c_T=1.0))
    L = VertexSet.from_indices(n, [0])
    R = VertexSet.from_indices(n, list(range(1, 9)))
    plan = plan_ns(L, R, ns, seed=3)
    assert plan.size() == ns.levels * ns.reps    # exactly levels x T, no oracle


def test_empty_right_side_plan():
    n = 16
    ns = _params(n)
    plan = plan_ns(VertexSet.from_indices(n, [0]), VertexSet.empty(n), ns, 1)
    assert plan.size() == ns.levels * ns.reps
    rows = list(plan.iter_rows())
    assert len(rows) == plan.size()
    assert not any(right.any() for _, right in rows)


def test_level_zero_mask_equals_right_set():
    n = 32
    ns = _params(n)
    R = VertexSet.from_indices(n, list(range(1, 20)))
    plan = plan_ns(VertexSet.from_indices(n, [0]), R, ns, seed=9)
    rights = [right for _, right in plan.iter_rows()]
    for t in range(ns.reps):
        assert np.array_equal(rights[t * ns.levels], R.words)


def test_masks_nested_and_rate_halves():
    n = 4096
    ns = NsParams.create(n, 0.5, 0.25, FAST, Constants(c_T=4.0))
    R = VertexSet.full(n)
    plan = plan_ns(VertexSet.empty(n), R, ns, seed=4)
    masks = np.array([right for _, right in plan.iter_rows()]).reshape(
        ns.reps, ns.levels, -1)
    sizes = np.bitwise_count(masks).sum(axis=2)
    for i in range(1, 5):
        # nesting
        assert not (masks[:, i] & ~masks[:, i - 1]).any()
        mean = sizes[:, i].mean()
        expect = n * 2.0 ** -i
        assert abs(mean - expect) < 4 * math.sqrt(expect)


def test_decode_all_full_counts_gives_zero():
    ns = _params()
    est = decode_ns(np.full(ns.levels, ns.reps), ns)
    assert est.shape == () and est == 0.0


def test_decode_frozen_log_example():
    # synthetic counts selecting decode level 3 with rate 0.2:
    # estimate must be ln(0.2) / ln(7/8)
    ns = NsParams.create(256, 0.2, 0.1, FAST)
    c = np.full(ns.levels, ns.reps)
    c[0] = 0
    c[1] = 0
    c[2] = int(0.01 * ns.reps)          # below threshold -> crossing at 2
    c[3] = int(round(0.2 * ns.reps))
    est = float(decode_ns(c, ns))
    assert est == pytest.approx(math.log(c[3] / ns.reps) / math.log(7 / 8))
    assert est == pytest.approx(12.053, abs=0.2)


def test_decode_zero_count_at_selected_level():
    # every level below threshold (giant neighborhood): the decode falls
    # back to the top level, and an empty count there is a failure (inf)
    ns = _params()
    with pytest.warns(UserWarning):
        est = decode_ns(np.zeros(ns.levels, dtype=np.int64), ns)
    assert est.shape == () and est == math.inf


def test_estimate_ns_raises_when_its_decode_fails(monkeypatch):
    # estimate_ns, the one-row caller, turns a failed decode into an error
    g = gen_gnp(64, 0.1, seed=2)
    L = VertexSet.from_indices(64, [0])
    R = VertexSet.full(64).difference(L)
    decoded = []

    def failing_decode(counts, ns):
        decoded.append(counts.shape)
        return np.full(counts.shape[:-1], math.inf)

    monkeypatch.setattr(nbr_size, "decode_ns", failing_decode)
    with pytest.raises(NsDecodeError):
        estimate_ns(BisOracle(g), L, R, 0.25, 0.1, seed=1)
    assert decoded == [(NsParams.create(64, 0.25, 0.1, FAST).levels,)]


def test_decode_no_level_below_threshold_warns():
    ns = _params()
    c = np.full(ns.levels, int(ns.reps * 0.9))
    with pytest.warns(UserWarning):
        decode_ns(c, ns)


def test_closed_form_consistency():
    # counts built from the expected no-edge rate recover N within (1±eps)
    n = 1024
    eps = 0.2
    ns = NsParams.create(n, eps, 0.1, FAST)
    for size in [4, 7, 16, 33, 100, 257, 512]:
        # the closed-form no-edge rate at level i is (1 - 2^-i)^size
        c = np.array([round(ns.reps * (1.0 - 2.0 ** -i) ** size)
                      for i in range(ns.levels)], dtype=np.int64)
        est = decode_ns(c, ns)
        assert (1 - eps) * size <= est <= (1 + eps) * size, (size, est)


def test_exactness_size_zero_and_one_every_seed():
    g = gen_gnp(64, 0.08, seed=12)
    for seed in range(25):
        o = BisOracle(g)
        L = VertexSet.from_indices(64, [5])
        gamma = set(g.neighbors(5).tolist())
        others = [v for v in range(64) if v != 5 and v not in gamma]
        R0 = VertexSet.from_indices(64, others[:20])
        assert estimate_ns(o, L, R0, 0.4, 0.25, seed=seed) == 0.0
        if gamma:
            R1 = VertexSet.from_indices(64, others[:20] + [next(iter(gamma))])
            assert estimate_ns(o, L, R1, 0.4, 0.25, seed=seed) == 1.0


def test_estimate_query_count_and_single_round():
    g = gen_gnp(128, 0.05, seed=3)
    o = BisOracle(g)
    c = Constants(c_T=8.0)
    ns = NsParams.create(128, 0.25, 0.1, FAST, c)
    L = VertexSet.from_indices(128, [0, 1])
    R = VertexSet.from_indices(128, list(range(2, 128)))
    estimate_ns(o, L, R, 0.25, 0.1, seed=6, constants=c)
    snap = o.ledger.snapshot()
    assert snap["bis_count"] == ns.levels * ns.reps
    assert snap["round_count"] == 1


def test_accuracy_on_known_size():
    # moderate statistical check; the acceptance suite runs the big one
    n = 1024
    star = gen_family("star", n=101)
    # embed: center 0 with 100 leaves inside n=1024
    from bisq.graph import Graph
    g = Graph.from_edges(n, star.edges())
    o = BisOracle(g)
    L = VertexSet.from_indices(n, [0])
    R = VertexSet.full(n).difference(L)
    assert exact_neighborhood_size(g, L, R) == 100
    hits = 0
    for seed in range(20):
        est = estimate_ns(o, L, R, 0.2, 0.1, seed=seed)
        if 80 <= est <= 120:
            hits += 1
    assert hits >= 17


def test_estimate_clamped_to_right_size():
    g = gen_family("star", n=64)
    o = BisOracle(g)
    L = VertexSet.from_indices(64, [0])
    R = VertexSet.full(64).difference(L)
    for seed in range(10):
        assert estimate_ns(o, L, R, 0.25, 0.1, seed=seed) <= 63


def test_paper_profile_executes_and_is_accurate():
    from bisq.params import PAPER
    from bisq.graph import Graph
    n = 64
    g = Graph.from_edges(n, [(0, i) for i in range(1, 13)])
    o = BisOracle(g)
    L = VertexSet.from_indices(n, [0])
    R = VertexSet.full(n).difference(L)
    # no run path plans at the paper profile; its NS plan still submits
    ns = NsParams.create(n, 0.5, 0.25, PAPER)
    for seed in range(3):
        counts = o.submit(plan_ns(L, R, ns, seed))[0]
        est = float(decode_ns(counts[0], ns))
        assert 0.5 * 12 <= est <= 1.5 * 12


def test_batch_decode_equals_scalar_decode_row_by_row():
    # every count 0..T at every level, placed so that the row decodes at
    # that level when the count clears the threshold; plus the all-T row
    # (0.0) and a zero count at the selected level (inf); each row alone
    # decodes to a scalar-shaped array holding the same float
    ns = NsParams.create(64, 0.3, 0.2, FAST, Constants(c_T=2.0))
    T, L = ns.reps, ns.levels
    rows = [np.full(L, T), np.zeros(L, dtype=np.int64)]
    for i in range(L):
        for c in range(T + 1):
            rows.append(np.array([0] * i + [c] + [T] * (L - i - 1)))
            rows.append(np.array([T] * i + [c] + [0] * (L - i - 1)))
    stack = np.array(rows, dtype=np.int64)
    with pytest.warns(UserWarning) as record:
        batch = decode_ns(stack, ns)
    messages = [str(w.message) for w in record]
    assert len(messages) == len(set(messages)) == 2   # each kind once
    assert batch.shape == (len(rows),)
    assert batch[0] == 0.0 and batch[1] == math.inf
    with pytest.warns(UserWarning):
        assert decode_ns(stack[1], ns) == math.inf
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        alone = [decode_ns(row, ns) for row in stack]
    assert {v.shape for v in alone} == {()}
    scalar = [float(v) for v in alone]
    assert batch.tolist() == scalar
    # stacking keeps the leading shape
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        shaped = decode_ns(stack[2:8].reshape(2, 3, L), ns)
    assert shaped.tolist() == np.reshape(scalar[2:8], (2, 3)).tolist()


def test_batch_decode_logs_are_math_log_exact():
    # c = 1..T decoded at the top level i: the estimate is exactly
    # math.log(c / T) / math.log1p(-2**-i), or 1.0 below the unit cutoff
    T = 1474
    for i in range(1, 11):
        ns = NsParams(epsilon=0.25, levels=i + 1, reps=T)
        c = np.arange(1, T + 1)
        stack = np.zeros((T, i + 1), dtype=np.int64)
        stack[:, i] = c
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            batch = decode_ns(stack, ns)
        expect = [math.log(k / T) / math.log1p(-2.0 ** -i)
                  for k in range(1, T + 1)]
        expect = [v if v >= 1.5 else 1.0 for v in expect]
        assert batch.tolist() == expect


def test_counts_from_top_scratch_is_bounded():
    # the per-level counts of 2000 rows of 1500 top depths each: one
    # bincount over all of them would hold two 2000 x 1500 int64 key
    # arrays, 23 MiB each; the histogram works in row blocks instead
    import tracemalloc
    from bisq.oracle import _add_histogram
    levels = 12
    top = np.random.default_rng(3).integers(
        0, levels, size=(2000, 1500)).astype(np.int8)
    hist = np.zeros((2000, levels), dtype=np.int64)
    order = np.arange(2000)
    tracemalloc.start()
    try:
        _add_histogram(hist, top, order)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2 ** 20
    assert (hist.sum(axis=1) == 1500).all()
    assert (hist[17] == np.bincount(top[17], minlength=levels)).all()


def test_ns_estimates_are_pinned():
    # estimate_ns values and ledgers over supports in one, a few and all
    # word columns, in the partial tail word, an empty support and an
    # empty R, plus one degree sketch; a moved "ns-plan" or "deg-planes"
    # stream, or a support read wrongly, changes the digest
    import hashlib
    from bisq import estimate_degrees
    from bisq.graph import Graph
    n = 200                      # word 3 holds 192..199 only
    hub, iso = 0, n - 1
    edges = [(u, v) for u, v in gen_gnp(n, 0.05, seed=21).edges()
             if hub not in (u, v) and iso not in (u, v)]
    edges += [(hub, v) for v in range(1, iso)]
    g = Graph.from_edges(n, edges)
    cases = [([hub], range(70, 101)),      # one column
             ([hub], range(10, 150, 7)),   # a few columns
             ([hub], range(1, n)),         # all columns
             ([hub], range(192, iso)),     # the partial tail word
             ([iso], range(1, iso)),       # empty support
             ([hub], [])]                  # empty R
    rows = []
    for k, (left, right) in enumerate(cases):
        for eps in (0.25, 0.5):
            for seed in range(3):
                o = BisOracle(g)
                est = estimate_ns(o, VertexSet.from_indices(n, left),
                                  VertexSet.from_indices(n, list(right)),
                                  eps, 0.2, seed=("pinned", k, seed))
                snap = o.ledger.snapshot()
                rows.append((k, eps, seed, est, snap["bis_count"],
                             snap["round_count"],
                             sorted(snap["phases"].items())))
    o = BisOracle(g)
    table = estimate_degrees(o, VertexSet.from_indices(n, range(0, n, 9)),
                             0.25, seed="pinned")
    rows.append((table.d_hat.tolist(), table.t_min.tolist(),
                 sorted(o.ledger.snapshot().items())))
    assert [r[3] for r in rows[24:30]] == [0.0] * 6     # empty support
    assert [r[3] for r in rows[30:36]] == [0.0] * 6     # empty R
    digest = hashlib.sha256(repr(rows).encode()).hexdigest()
    assert digest == ("5b917835fcef06b3c30da987b5cc4afa"
                      "81c0025f67432d930c45398c144d72d3")
