import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bisq import (BisOracle, Graph, QueryPlan, VertexSet, gen_gnp,
                  exact_neighborhood_size)
from bisq import bitset, params
from bisq.errors import DisjointnessError
from bisq.graph import gen_family
from bisq.oracle import (DenseBlock, SharedSubsampleBlock,
                         SidesSubsampleBlock, side_masks)
from bisq.seeding import rng_for


def _expand_top(top, levels):
    """Answers of a shared-plane block, in row order, from its top depths."""
    return (np.arange(levels) > top[:, :, None]).ravel()


def _triangle():
    return Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])


def test_bis_edge_present():
    o = BisOracle(_triangle())
    assert o.bis(VertexSet.from_indices(3, [0]),
                 VertexSet.from_indices(3, [1])) == 0


def test_bis_empty_left_vacuous():
    g = gen_gnp(16, 0.5, seed=1)
    o = BisOracle(g)
    assert o.bis(VertexSet.empty(16), VertexSet.full(16)) == 1


def test_bis_overlap_is_error():
    o = BisOracle(_triangle())
    s = VertexSet.from_indices(3, [0, 1])
    with pytest.raises(DisjointnessError):
        o.bis(s, s)
    # contract violations are never silently answered or charged
    assert o.ledger.bis_count == 0


def test_bis_matches_enumeration():
    g = gen_gnp(64, 0.1, seed=1)
    o = BisOracle(g)
    rng = rng_for(3, "pairs")
    for _ in range(200):
        ids = rng.permutation(64)
        L = VertexSet.from_indices(64, ids[:4])
        R = VertexSet.from_indices(64, ids[4:20])
        expect = 1 if exact_neighborhood_size(g, L, R) == 0 else 0
        assert o.bis(L, R) == expect


def test_empty_plan_charges_round_only():
    o = BisOracle(_triangle())
    out = o.submit(QueryPlan(3))
    assert list(out) == []
    snap = o.ledger.snapshot()
    assert snap["bis_count"] == 0
    assert snap["round_count"] == 1
    assert snap["batch_count"] == 1


def test_plan_of_k_queries_counts_k():
    g = gen_gnp(32, 0.2, seed=5)
    o = BisOracle(g)
    rng = rng_for(1)
    k = 17
    lefts = np.zeros((k, g.adj_words.shape[1]), dtype=np.uint64)
    rights = np.zeros_like(lefts)
    for i in range(k):
        ids = rng.permutation(32)
        lefts[i] = VertexSet.from_indices(32, ids[:3]).words
        rights[i] = VertexSet.from_indices(32, ids[3:10]).words
    plan = QueryPlan(32, [DenseBlock("t", lefts, rights)])
    answers = o.submit(plan)[0]
    assert answers.size == k
    assert o.ledger.bis_count == k
    assert o.ledger.phases == {"t": k}


def test_two_batches_one_round_scope():
    g = gen_gnp(16, 0.3, seed=2)
    o = BisOracle(g)
    with o.round():
        o.bis(VertexSet.from_indices(16, [0]), VertexSet.from_indices(16, [1]))
        o.bis(VertexSet.from_indices(16, [2]), VertexSet.from_indices(16, [3]))
    assert o.ledger.round_count == 1
    o.bis(VertexSet.from_indices(16, [0]), VertexSet.from_indices(16, [1]))
    assert o.ledger.round_count == 2


def test_nested_round_scopes_count_once():
    g = gen_gnp(16, 0.3, seed=2)
    o = BisOracle(g)
    with o.round():
        with o.round():
            o.bis(VertexSet.from_indices(16, [0]),
                  VertexSet.from_indices(16, [1]))
        o.bis(VertexSet.from_indices(16, [2]), VertexSet.from_indices(16, [3]))
    assert o.ledger.round_count == 1


def test_determinism_bit_for_bit():
    g = gen_gnp(48, 0.15, seed=9)
    from bisq.nbr_size import NsParams, plan_ns
    ns = NsParams.create(48, 0.3, 0.2, "fast")
    L = VertexSet.from_indices(48, [1, 2])
    R = VertexSet.from_indices(48, list(range(3, 40)))
    plan = plan_ns(L, R, ns, seed=4)
    a1 = BisOracle(g).submit(plan)[0]
    a2 = BisOracle(g).submit(plan)[0]
    assert np.array_equal(a1, a2)


def test_bis_count_equals_phase_sum():
    g = gen_gnp(32, 0.2, seed=3)
    o = BisOracle(g)
    o.bis(VertexSet.from_indices(32, [0]), VertexSet.from_indices(32, [1]),
          tag="a")
    o.bis(VertexSet.from_indices(32, [2]), VertexSet.from_indices(32, [3]),
          tag="b")
    snap = o.ledger.snapshot()
    assert snap["bis_count"] == sum(snap["phases"].values())


def test_shared_planes_block_rows_match_single_queries():
    # the sketch's shared-plane blocks must answer exactly as their
    # materialized (L, R) rows would, on sparse and dense supports
    for gname, g in (("sparse", gen_gnp(96, 0.03, seed=4)),
                     ("dense", gen_gnp(96, 0.6, seed=5))):
        o = BisOracle(g)
        parts = []
        for ids in ([0], [1, 2], [3, 4, 5]):
            left = bitset.pack_indices(96, ids)
            parts.append((left, bitset.trim_tail(~left, 96)))
        block = SharedSubsampleBlock("t", parts, 7, 5, ("shared", gname))
        answers = _expand_top(o.submit(QueryPlan(96, [block]))[0], 5)
        fresh = BisOracle(g)
        for ans, (lw, rw) in zip(answers, block.iter_rows()):
            expect = fresh.bis(VertexSet(96, lw.copy()),
                               VertexSet(96, rw.copy()))
            assert int(ans) == expect


def _depth_kernel_case(n, p, reps, levels, extra, seed):
    """A graph and a shared-plane block over it, for the depth kernel.

    n past a word boundary leaves tail bits.  Part 0 is an isolated
    vertex (empty support); part 1 is a hub adjacent to all but it
    (support > 48, in every word column); the ``extra`` parts split the
    vertices at random into left, base and neither.
    """
    rng = rng_for("depth-kernel", seed)
    iso, hub = rng.choice(n, size=2, replace=False)
    edges = [(u, v) for u, v in gen_gnp(n, p, seed).edges()
             if iso not in (u, v)]
    edges += [(hub, v) for v in range(n) if v not in (hub, iso)]
    g = Graph.from_edges(n, edges)
    parts = []
    for left_ids in ([iso], [hub]):
        left = bitset.pack_indices(n, left_ids)
        parts.append((left, bitset.trim_tail(~left, n)))
    for _ in range(extra):
        side = rng.integers(0, 3, size=n)   # 0: left, 1: base, 2: neither
        parts.append((bitset.pack_indices(n, np.nonzero(side == 0)[0]),
                      bitset.pack_indices(n, np.nonzero(side == 1)[0])))
    hub_support = g.neighborhood_words(np.array([hub])) & parts[1][1]
    assert bitset.popcount(hub_support) > 48
    return g, SharedSubsampleBlock("t", parts, reps, levels,
                                   ("depth-kernel", seed))


@settings(max_examples=30, deadline=None)
@given(st.integers(65, 200), st.floats(0.0, 0.5), st.integers(1, 4),
       st.integers(1, 7), st.integers(0, 3), st.integers(0, 10 ** 6))
def test_shared_depth_kernel_matches_single_queries(n, p, reps, levels,
                                                    extra, seed):
    g, block = _depth_kernel_case(n, p, reps, levels, extra, seed)
    o = BisOracle(g)
    answers = _expand_top(o.submit(QueryPlan(n, [block]))[0], levels)
    assert o.ledger.bis_count == block.n_queries() == answers.size
    assert o.ledger.phases == {"t": block.n_queries()}
    assert answers[:reps * levels].all()   # empty support never hits
    fresh = BisOracle(g)
    for ans, (lw, rw) in zip(answers, block.iter_rows()):
        assert int(ans) == fresh.bis(VertexSet(n, lw.copy()),
                                     VertexSet(n, rw.copy()))


@settings(max_examples=30, deadline=None)
@given(st.integers(65, 300), st.integers(1, 3), st.booleans(),
       st.integers(0, 10 ** 6))
def test_ns_plan_on_few_columns_matches_single_queries(n, k, tail, seed):
    # a one-part NS plan whose right set lies in k word columns, with the
    # last (partial when 64 does not divide n) among them when ``tail``
    from bisq.nbr_size import NsParams, plan_ns

    rng = rng_for("ns-cols", seed)
    g = gen_gnp(n, 0.3, seed)
    w = bitset.word_count(n)
    cols = rng.choice(w, size=min(k, w), replace=False)
    if tail:
        cols[0] = w - 1
    v = int(rng.integers(n))
    ids = np.concatenate([np.arange(64 * c, min(n, 64 * c + 64))
                          for c in cols])
    ids = ids[(ids != v) & (rng.random(ids.size) < 0.5)]
    ns = NsParams(epsilon=0.5, delta=0.25, levels=4, reps=3, profile="fast")
    plan = plan_ns(VertexSet.from_indices(n, [v]),
                   VertexSet.from_indices(n, ids), ns, seed)
    o = BisOracle(g)
    answers = _expand_top(o.submit(plan)[0], ns.levels)
    assert answers.size == plan.size() == o.ledger.bis_count
    fresh = BisOracle(g)
    for ans, (lw, rw) in zip(answers, plan.iter_rows()):
        assert int(ans) == fresh.bis(VertexSet(n, lw.copy()),
                                     VertexSet(n, rw.copy()))


@settings(max_examples=30, deadline=None)
@given(st.integers(65, 200), st.floats(0.0, 0.5), st.integers(1, 4),
       st.integers(1, 7), st.integers(0, 3), st.integers(0, 10 ** 6))
def test_shared_top_histogram_counts_match_answer_sums(n, p, reps, levels,
                                                       extra, seed):
    # the per-level no-edge counts the degree sketch reads from the top
    # depths by histogram equal the per-level sums of the answers, and
    # those answers equal a word-AND per row against each support
    from bisq import bitset
    from bisq.nbr_size import NsParams, counts_from_top

    g, block = _depth_kernel_case(n, p, reps, levels, extra, seed)
    top = block.evaluate(g)
    assert top.dtype == np.int8 and top.shape == (len(block.parts), reps)
    supports = [g.neighborhood_words(bitset.members(left, n)) & base
                for left, base in block.parts]
    planes = block.draw_planes(g.adj_words.shape[1])
    expect = np.array([[[not (planes[r, i] & s).any()
                         for i in range(levels)] for r in range(reps)]
                       for s in supports])
    answers = _expand_top(top, levels).reshape(expect.shape)
    assert np.array_equal(answers, expect)
    ns = NsParams(epsilon=0.25, delta=0.1, levels=levels, reps=reps,
                  profile="fast")
    counts = counts_from_top(top, ns)
    assert counts.reps == reps
    assert np.array_equal(counts.counts, expect.sum(axis=1))
    assert (counts.counts[0] == reps).all()   # empty support


@pytest.mark.parametrize("level", range(1, 11))
def test_depth_table_reads_every_level_of_the_planes(level):
    # the drawn planes are nested by construction, so a vertex is held at
    # `level` iff its survival depth reaches it; the depth table is built
    # on two of the four word columns
    block = SharedSubsampleBlock("t", [], 3, 11, ("nested", level))
    planes = block.draw_planes(4)
    assert not (planes[:, level] & ~planes[:, level - 1]).any()
    cols = np.array([0, 3])
    depth = block._depth_table(4, cols)
    words = np.ascontiguousarray(planes[:, level][:, cols])
    held = np.unpackbits(words.view(np.uint8), axis=1,
                         bitorder="little").T.astype(bool)
    assert depth.shape == held.shape == (128, 3)
    assert np.array_equal(depth >= level, held)


def _accumulated_masks(rng, base, levels, reps):
    # the draw with bitwise_and.accumulate and one & base, kept as the
    # reference for nested_rate_masks
    out = np.empty((reps, levels, base.size), dtype=np.uint64)
    out[:, 0, :] = base
    if levels > 1:
        planes = bitset.random_planes(rng, (reps, levels - 1, base.size))
        np.bitwise_and.accumulate(planes, axis=1, out=planes)
        out[:, 1:, :] = planes & base[None, None, :]
    return out


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 300), st.sampled_from([1, 2, 11]), st.integers(1, 9),
       st.integers(0, 10 ** 6),
       st.sampled_from(["none", "one", "some", "all", "tail"]))
def test_nested_rate_masks_equal_the_accumulated_draw(n, levels, reps, key,
                                                      pick):
    # ``cols`` keeps word columns of the whole draw: one, some (in random
    # order), all, or the last (partial when 64 does not divide n)
    base = bitset.random_planes(rng_for("base", key), bitset.word_count(n))
    bitset.trim_tail(base, n)
    w = base.size
    rng = rng_for("cols", key)
    cols = {"none": None, "one": rng.integers(0, w, size=1),
            "some": rng.permutation(w)[:rng.integers(1, w + 1)],
            "all": np.arange(w), "tail": np.array([w - 1])}[pick]
    got = bitset.nested_rate_masks(rng_for("masks", key), base, levels, reps,
                                   cols)
    expect = _accumulated_masks(rng_for("masks", key), base, levels, reps)
    if cols is not None:
        expect = expect[:, :, cols]
    assert got.shape == expect.shape == (
        reps, levels, w if cols is None else cols.size)
    assert np.array_equal(got, expect)


@settings(max_examples=25, deadline=None)
@given(st.integers(66, 160), st.floats(0.0, 0.3), st.integers(1, 4),
       st.integers(2, 48), st.integers(0, 10 ** 6))
def test_sides_block_matches_single_queries(n, p, reps, few, seed):
    # recovery blocks with support sizes 0, 1, `few` (<= 48) and > 48,
    # plus two domain-1 blocks (bits = 0), one with an empty support
    from bisq import bitset
    from bisq.element_recovery import build_neighbor_recovery

    rng = rng_for("sides-kernel", seed)
    iso, one, mid, hub = (int(v) for v in rng.choice(n, 4, replace=False))
    edges = [(u, v) for u, v in gen_gnp(n, p, seed).edges()
             if iso not in (u, v)]
    others = [v for v in range(n) if v not in (iso, mid, hub)]
    edges += [(mid, int(v)) for v in rng.choice(others, 48, replace=False)]
    edges += [(hub, v) for v in range(n) if v not in (hub, iso)]
    g = Graph.from_edges(n, edges)

    def right_with_support(v, k):
        nbrs = g.neighbors(v)
        rest = np.setdiff1d(np.arange(n), np.append(nbrs, v))
        ids = np.concatenate([rng.choice(nbrs, k, replace=False),
                              rest[rng.random(rest.size) < 0.5]])
        return VertexSet.from_indices(n, ids)

    cases = [(iso, VertexSet.from_indices(n, [one, mid])),
             (one, right_with_support(one, 1)),
             (mid, right_with_support(mid, few)),
             (hub, VertexSet.full(n).difference(
                 VertexSet.from_indices(n, [hub]))),
             (iso, VertexSet.from_indices(n, [hub])),
             (hub, VertexSet.from_indices(n, [one]))]
    blocks = []
    for k, (v, right) in enumerate(cases):
        left = VertexSet.from_indices(n, [v])
        blocks.append(build_neighbor_recovery(
            left, right, reps, (seed, k), tag=f"b{k}").block)
    sizes = [bitset.popcount(g.neighborhood_words(np.array([v])) & r.words)
             for v, r in cases]
    assert sizes[:3] == [0, 1, few] and sizes[3] > 48
    assert sizes[4:] == [0, 1]
    assert blocks[4].n_queries() == reps * 2    # domain 1: whole, verify

    o = BisOracle(g)
    answers = o.submit(QueryPlan(n, blocks))
    assert o.ledger.bis_count == sum(b.n_queries() for b in blocks)
    assert o.ledger.phases == {b.tag: b.n_queries() for b in blocks}
    assert answers[0].all() and answers[4].all()   # empty support
    fresh = BisOracle(g)
    for block, ans in zip(blocks, answers):
        assert ans.size == block.n_queries()
        for a, (lw, rw) in zip(ans, block.iter_rows()):
            assert int(a) == fresh.bis(VertexSet(n, lw.copy()),
                                       VertexSet(n, rw.copy()))


def test_subsample_rows_lie_inside_base():
    # a seeded block over a base with no edge to left: every row is
    # masks & side, inside base, so evaluate, which reads only
    # Gamma(left) ∩ base, agrees with a fresh bis on every iter_rows row
    n = 70
    g = gen_gnp(n, 0.1, seed=1)
    left = VertexSet.from_indices(n, [0])
    others = VertexSet.full(n).difference(left)
    base = others.difference(VertexSet.from_indices(n, g.neighbors(0)))
    block = SidesSubsampleBlock("sides", left.words, base.words, 2, 5)
    answers = BisOracle(g).submit(QueryPlan(n, [block]))[0]
    fresh = BisOracle(g)
    rows = [fresh.bis(VertexSet(n, lw.copy()), VertexSet(n, rw.copy()))
            for lw, rw in block.iter_rows()]
    assert answers.tolist() == rows == [1] * block.n_queries()


_SEED_KEYS = st.one_of(
    st.integers(0, 2 ** 63),
    st.tuples(st.integers(0, 10 ** 6),
              st.sampled_from(["round1", "deg-ser"]), st.integers(0, 999)))


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 150), st.integers(1, 4), st.integers(0, 10 ** 6),
       _SEED_KEYS)
def test_seeded_sides_rows_equal_the_eager_draw(n, reps, draw, key):
    # reference: the masks drawn up front from the block's key, as a plan
    # stored them before blocks kept only the key
    where = rng_for("seeded-rows", draw).integers(0, 3, size=n)
    where[draw % n] = 1
    left = bitset.pack_indices(n, np.flatnonzero(where == 0))
    base = bitset.pack_indices(n, np.flatnonzero(where == 1))
    block = SidesSubsampleBlock("s", left, base, reps, key)
    domain = bitset.members(base, n)
    levels = params.ser_levels(domain.size)
    masks = bitset.nested_rate_masks(rng_for(key, "ser-plan"), base,
                                     levels, reps)
    expect = [masks[r, l] & base & side for l in range(levels)
              for r in range(reps) for side in side_masks(n, domain)]
    rows = list(block.iter_rows())
    assert len(rows) == len(expect) == block.n_queries()
    for (lw, rw), ref in zip(rows, expect):
        assert np.array_equal(lw, left) and np.array_equal(rw, ref)


def test_unread_submission_is_charged_in_full(monkeypatch):
    # the ledger charges every block at submit; a result is evaluated
    # only when read, over the blocks the plan held at submit
    n = 70
    g = gen_gnp(n, 0.1, seed=1)
    evaluated = []
    for cls in (DenseBlock, SharedSubsampleBlock, SidesSubsampleBlock):
        monkeypatch.setattr(cls, "evaluate",
                            lambda block, graph: evaluated.append(block))
    one, some = bitset.pack_indices(n, [1]), bitset.pack_indices(n, [5, 66])
    blocks = [DenseBlock("d", np.stack([one, one]), np.stack([some, some])),
              SharedSubsampleBlock("sh", [(one, some)], 2, 3, ("unread",)),
              SidesSubsampleBlock("si", one, some, 4, "unread")]
    plan = QueryPlan(n, blocks)
    o = BisOracle(g)
    results = o.submit(plan)
    plan.add(blocks[0])
    assert len(results) == 3 and evaluated == []
    assert o.ledger.snapshot() == {
        "bis_count": 2 + 6 + 4 * 2 * 4, "batch_count": 1, "round_count": 1,
        "phases": {"d": 2, "sh": 6, "si": 32}}
    results[2]
    assert evaluated == [blocks[2]]
    assert o.ledger.bis_count == 40


def _overlapping_block(kind, n):
    """A block of the given kind with rows that share vertex 66 with
    their left: Dense rows 4 and 5, the level-0 rows of shared part 1, and
    the level-0 whole-side rows of the Sides block."""
    left = bitset.pack_indices(n, [0, 66])
    base = bitset.pack_indices(n, [5, 66])
    if kind == "dense":
        lefts = np.stack([bitset.pack_indices(n, [1])] * 3 + [left] * 3)
        rights = np.stack([bitset.pack_indices(n, ids) for ids in
                           ([2], [3, 4], [5], [2, 9], [66], [5, 66])])
        return DenseBlock("t", lefts, rights)
    if kind == "shared":
        clear = bitset.pack_indices(n, [7])
        return SharedSubsampleBlock("t", [(left, clear), (left, base)], 3, 2,
                                    ("overlap",))
    return SidesSubsampleBlock("t", left, base, 3, "overlap")


@pytest.mark.parametrize("kind", ["dense", "shared", "sides"])
def test_block_rejects_row_overlapping_its_left(kind):
    n = 70
    block = _overlapping_block(kind, n)
    o = BisOracle(gen_gnp(n, 0.1, seed=1))
    message = "query 4 " if kind == "dense" else "overlap"
    with pytest.raises(DisjointnessError, match=message):
        o.submit(QueryPlan(n, [block]))
    assert o.ledger.snapshot() == {"bis_count": 0, "batch_count": 0,
                                   "round_count": 0, "phases": {}}


def test_or_query_via_bis():
    g = gen_family("star", n=5)
    o = BisOracle(g)
    L = VertexSet.from_indices(5, [0])
    assert o.bis(L, VertexSet.from_indices(5, [1, 2]), tag="or") == 0
    assert o.bis(L, VertexSet.empty(5), tag="or") == 1
    assert o.ledger.bis_count == 2  # exactly one query each


def test_ledger_export_shape():
    o = BisOracle(_triangle())
    o.bis(VertexSet.from_indices(3, [0]), VertexSet.from_indices(3, [1]),
          tag="x")
    d = o.ledger.snapshot()
    assert set(d) == {"bis_count", "batch_count", "round_count", "phases"}
    assert d["phases"] == {"x": 1}


@settings(max_examples=40, deadline=None)
@given(st.integers(8, 48), st.integers(0, 10 ** 6), st.data())
def test_monotonicity_growing_right_side(n, seed, data):
    # a 'no edge' answer can only flip to 'edge' as R grows
    g = gen_gnp(n, 0.15, seed)
    o = BisOracle(g)
    ids = list(range(n))
    left = data.draw(st.sets(st.sampled_from(ids), min_size=1, max_size=3))
    rest = [v for v in ids if v not in left]
    small = data.draw(st.sets(st.sampled_from(rest), min_size=0,
                              max_size=len(rest)))
    big = small | data.draw(st.sets(st.sampled_from(rest), min_size=0,
                                    max_size=len(rest)))
    L = VertexSet.from_indices(n, sorted(left))
    if o.bis(L, VertexSet.from_indices(n, sorted(small))) == 0:
        assert o.bis(L, VertexSet.from_indices(n, sorted(big))) == 0
