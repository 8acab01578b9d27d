import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from bisq import (BisOracle, VertexSet, estimate_ns, gen_family, gen_gnp,
                  exact_neighborhood_size)
from bisq.errors import NsDecodeError
from bisq.nbr_size import (NsCounts, NsParams, counts_from_top,
                            decode_ns, plan_ns)
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
    counts = NsCounts(counts=np.full(ns.levels, ns.reps), reps=ns.reps)
    assert decode_ns(counts, ns) == 0.0


def test_decode_frozen_log_example():
    # synthetic counts selecting decode level 3 with rate 0.2:
    # estimate must be ln(0.2) / ln(7/8)
    ns = NsParams.create(256, 0.2, 0.1, FAST)
    c = np.full(ns.levels, ns.reps)
    c[0] = 0
    c[1] = 0
    c[2] = int(0.01 * ns.reps)          # below threshold -> crossing at 2
    c[3] = int(round(0.2 * ns.reps))
    est = decode_ns(NsCounts(counts=c, reps=ns.reps), ns)
    assert est == pytest.approx(math.log(c[3] / ns.reps) / math.log(7 / 8))
    assert est == pytest.approx(12.053, abs=0.2)


def test_decode_zero_count_at_selected_level():
    # every level below threshold (giant neighborhood): the decode falls
    # back to the top level, and an empty count there is a hard failure
    ns = _params()
    with pytest.warns(UserWarning):
        with pytest.raises(NsDecodeError):
            decode_ns(NsCounts(counts=np.zeros(ns.levels, dtype=np.int64),
                               reps=ns.reps), ns)


def test_decode_no_level_below_threshold_warns():
    ns = _params()
    c = np.full(ns.levels, int(ns.reps * 0.9))
    with pytest.warns(UserWarning):
        decode_ns(NsCounts(counts=c, reps=ns.reps), ns)


def test_closed_form_consistency():
    # counts built from the expected no-edge rate recover N within (1±eps)
    n = 1024
    eps = 0.2
    ns = NsParams.create(n, eps, 0.1, FAST)
    for size in [4, 7, 16, 33, 100, 257, 512]:
        c = np.array([round(ns.reps * NsCounts.expected_rate(i, size))
                      for i in range(ns.levels)], dtype=np.int64)
        est = decode_ns(NsCounts(counts=c, reps=ns.reps), ns)
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
    for seed in range(3):
        est = estimate_ns(o, L, R, 0.5, 0.25, seed=seed, profile=PAPER)
        assert 0.5 * 12 <= est <= 1.5 * 12


def _scalar_or_inf(row, ns):
    try:
        return decode_ns(NsCounts(counts=row, reps=ns.reps), ns)
    except NsDecodeError:
        return math.inf


def test_batch_decode_equals_scalar_decode_row_by_row():
    # every count 0..T at every level, placed so that the row decodes at
    # that level when the count clears the threshold; plus the all-T row
    # (0.0) and a zero count at the selected level (inf in the batch)
    ns = NsParams.create(64, 0.3, 0.2, FAST, Constants(c_T=2.0))
    T, L = ns.reps, ns.levels
    rows = [np.full(L, T), np.zeros(L, dtype=np.int64)]
    for i in range(L):
        for c in range(T + 1):
            rows.append(np.array([0] * i + [c] + [T] * (L - i - 1)))
            rows.append(np.array([T] * i + [c] + [0] * (L - i - 1)))
    stack = np.array(rows, dtype=np.int64)
    with pytest.warns(UserWarning) as record:
        batch = decode_ns(NsCounts(counts=stack, reps=T), ns)
    messages = [str(w.message) for w in record]
    assert len(messages) == len(set(messages)) == 2   # each kind once
    assert batch.shape == (len(rows),)
    assert batch[0] == 0.0 and batch[1] == math.inf
    with pytest.warns(UserWarning), pytest.raises(NsDecodeError):
        decode_ns(NsCounts(counts=stack[1], reps=T), ns)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        scalar = [_scalar_or_inf(row, ns) for row in stack]
    assert batch.tolist() == scalar
    assert {type(v) for v in scalar} == {float}
    # stacking keeps the leading shape
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        shaped = decode_ns(NsCounts(counts=stack[2:8].reshape(2, 3, L),
                                    reps=T), ns)
    assert shaped.tolist() == np.reshape(scalar[2:8], (2, 3)).tolist()


def test_batch_decode_logs_are_math_log_exact():
    # c = 1..T decoded at the top level i: the estimate is exactly
    # math.log(c / T) / math.log1p(-2**-i), or 1.0 below the unit cutoff
    T = 1474
    for i in range(1, 11):
        ns = NsParams(epsilon=0.25, delta=0.1, levels=i + 1, reps=T,
                      profile=FAST)
        c = np.arange(1, T + 1)
        stack = np.zeros((T, i + 1), dtype=np.int64)
        stack[:, i] = c
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            batch = decode_ns(NsCounts(counts=stack, reps=T), ns)
        expect = [math.log(k / T) / math.log1p(-2.0 ** -i)
                  for k in range(1, T + 1)]
        expect = [v if v >= 1.5 else 1.0 for v in expect]
        assert batch.tolist() == expect


def _counts_by_one_bincount(top, levels):
    # the single-bincount formula over every part, kept as the reference
    parts = top.shape[0]
    bins = levels + 1
    hist = np.bincount((np.arange(parts)[:, None] * bins + top + 1).ravel(),
                       minlength=parts * bins).reshape(parts, bins)
    return np.cumsum(hist, axis=1)[:, :levels]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([0, 1, 2, 7, 300, 5000]), st.integers(1, 40),
       st.integers(2, 14), st.integers(0, 10 ** 6))
@example(parts=0, reps=1, levels=2, seed=0)
@example(parts=1, reps=1, levels=11, seed=1)
@example(parts=5000, reps=40, levels=11, seed=2)
def test_counts_from_top_equal_one_bincount(parts, reps, levels, seed):
    # parts = 5000 spans several blocks of rows at every reps >= 14; the
    # tops run over -1..levels-1, both ends included
    rng = np.random.default_rng(seed)
    top = rng.integers(-1, levels, size=(parts, reps)).astype(np.int8)
    if parts:
        top[0, 0], top[-1, -1] = -1, levels - 1
    ns = NsParams(epsilon=0.25, delta=0.1, levels=levels, reps=reps,
                  profile=FAST)
    counts = counts_from_top(top, ns)
    expect = _counts_by_one_bincount(top, levels)
    assert counts.reps == reps
    assert counts.counts.dtype == expect.dtype
    assert counts.counts.shape == (parts, levels)
    assert np.array_equal(counts.counts, expect)


def test_counts_from_top_scratch_is_bounded():
    # the single-bincount formula would hold two 2000 x 1500 int64 key
    # arrays, 23 MiB each
    import tracemalloc
    levels = 12
    top = np.random.default_rng(3).integers(
        -1, levels, size=(2000, 1500)).astype(np.int8)
    ns = NsParams(epsilon=0.25, delta=0.1, levels=levels, reps=1500,
                  profile=FAST)
    tracemalloc.start()
    try:
        counts_from_top(top, ns)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2 ** 20


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
