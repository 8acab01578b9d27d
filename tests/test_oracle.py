import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from bisq import (BisOracle, Graph, QueryPlan, VertexSet, gen_gnp,
                  exact_neighborhood_size)
from bisq import bitset, params
from bisq.errors import DisjointnessError
from bisq.graph import gen_family
from bisq.oracle import (DenseBlock, SharedSubsampleBlock,
                         SidesSubsampleBlock, _depth_slab, side_masks)
from bisq.seeding import rng_for
from ser_reference import fresh_row_answers, reference_pool


def _expand_top(top, levels):
    """Answers of a shared-plane block, in row order, from its top depths."""
    return (np.arange(levels) > top[:, :, None]).ravel()


def _top(block, g):
    """A shared-plane block's top depths, int8 of shape (parts, reps), -1
    for an empty support, read from its per-chunk maxima."""
    top = np.full((len(block.parts), block.reps), -1, dtype=np.int8)
    r0 = 0
    for order, acc in block._maxima(g):
        top[order, r0:r0 + acc.shape[1]] = acc
        r0 += acc.shape[1]
    assert r0 in (0, block.reps)
    return top


def _cells_block(n, lefts, base, reps, levels, stream, tag="t"):
    """A shared-plane block whose part p has left ``lefts[p]`` (id lists)
    against the shared base vertex set ``base`` (all of 0..n-1 if None)."""
    members = np.array([v for ids in lefts for v in ids], dtype=np.int64)
    part = np.repeat(np.arange(len(lefts)), [len(ids) for ids in lefts])
    return SharedSubsampleBlock(
        tag, members, part, len(lefts),
        VertexSet.full(n) if base is None else base, reps, levels, stream)


def _fresh_counts(g, block):
    """Per-level sums of fresh ``bis`` answers over ``iter_rows``."""
    fresh = BisOracle(g)
    n = g.n
    answers = [fresh.bis(VertexSet(n, lw.copy()), VertexSet(n, rw.copy()))
               for lw, rw in block.iter_rows()]
    return np.array(answers, dtype=np.int64).reshape(
        len(block.parts), block.reps, block.levels).sum(axis=1)


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
    lefts = np.zeros((k, bitset.word_count(g.n)), dtype=np.uint64)
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


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 200), st.sampled_from([0.0, 0.02, 0.2]),
       st.integers(0, 40), st.sampled_from([None, 1, 8]),
       st.integers(0, 10 ** 6))
@example(n=130, p=0.2, rows=40, budget=1, seed=1)
@example(n=65, p=0.0, rows=9, budget=1, seed=2)
def test_dense_block_matches_fresh_answers(n, p, rows, budget, seed):
    # the edge pass against a fresh oracle's bis answer to every row; each
    # vertex is left, right or neither per row, and every fourth row has
    # an empty left and every fifth an empty right.  A sparse gnp leaves
    # isolated vertices and p = 0 no edge; ``budget`` sets the scratch to
    # that many 64-byte units, so with 1 the transpose goes 8 rows by one
    # word column at a time and the edge pass an edge or two at a time
    from bisq.oracle import _row_bits
    g = gen_gnp(n, p, seed)
    side = np.random.default_rng(seed).integers(0, 3, size=(rows, n))
    side[::4][side[::4] == 0] = 2
    side[::5][side[::5] == 1] = 2
    block = DenseBlock("d", bitset.pack_bool(side == 0),
                       bitset.pack_bool(side == 1))
    with pytest.MonkeyPatch.context() as mp:
        if budget is not None:
            mp.setattr(bitset, "SCRATCH_BYTES", 64 * budget)
        answers = block.evaluate(g)
        bits = _row_bits(block.left, n)
    assert answers.dtype == np.uint8 and answers.shape == (rows,)
    assert answers.tolist() == fresh_row_answers(g, block)
    # bit k of vertex u's row bits says whether u is in left k
    assert bits.shape == (n, bitset.word_count(rows))
    unpacked = np.unpackbits(bits.view(np.uint8), axis=1,
                             bitorder="little")[:, :rows]
    assert np.array_equal(unpacked.T, side == 0)


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
        block = _cells_block(96, [[0], [1, 2], [3, 4, 5]], None, 7, 5,
                             ("shared", gname))
        counts = o.submit(QueryPlan(96, [block]))[0]
        answers = _expand_top(_top(block, g), 5)
        fresh = BisOracle(g)
        for ans, (lw, rw) in zip(answers, block.iter_rows()):
            expect = fresh.bis(VertexSet(96, lw.copy()),
                               VertexSet(96, rw.copy()))
            assert int(ans) == expect
        assert np.array_equal(counts,
                              answers.reshape(3, 7, 5).sum(axis=1))


def _depth_kernel_case(n, p, reps, levels, extra, seed):
    """A graph and a shared-plane block over it, for the depth kernel.

    n past a word boundary leaves tail bits.  Part 0 is an isolated
    vertex (empty support); part 1 is a hub adjacent to all but it
    (support > 48, in every word column); the ``extra`` parts split the
    other vertices at random into their lefts and no left.  The shared
    base leaves out a few random vertices.
    """
    rng = rng_for("depth-kernel", seed)
    iso, hub = rng.choice(n, size=2, replace=False)
    edges = [(u, v) for u, v in gen_gnp(n, p, seed).edges()
             if iso not in (u, v)]
    edges += [(hub, v) for v in range(n) if v not in (hub, iso)]
    g = Graph.from_edges(n, edges)
    others = np.setdiff1d(np.arange(n), [iso, hub])
    label = rng.integers(0, extra + 2, size=others.size)
    lefts = [[iso], [hub]] + [others[label == k].tolist()
                              for k in range(extra)]
    dropped = rng.choice(others, size=int(rng.integers(0, n - 51)),
                         replace=False)
    base = VertexSet.full(n).difference(VertexSet.from_indices(n, dropped))
    block = _cells_block(n, lefts, base, reps, levels,
                         ("depth-kernel", seed))
    hub_support = g.neighborhood_words(np.array([hub])) & base.words
    assert bitset.popcount(hub_support) > 48
    return g, block


@settings(max_examples=30, deadline=None)
@given(st.integers(65, 200), st.floats(0.0, 0.5), st.integers(1, 4),
       st.integers(1, 7), st.integers(0, 3), st.integers(0, 10 ** 6))
def test_shared_depth_kernel_matches_single_queries(n, p, reps, levels,
                                                    extra, seed):
    g, block = _depth_kernel_case(n, p, reps, levels, extra, seed)
    o = BisOracle(g)
    counts = o.submit(QueryPlan(n, [block]))[0]
    answers = _expand_top(_top(block, g), levels)
    assert o.ledger.bis_count == block.n_queries() == answers.size
    assert o.ledger.phases == {"t": block.n_queries()}
    assert answers[:reps * levels].all()   # empty support never hits
    fresh = BisOracle(g)
    for ans, (lw, rw) in zip(answers, block.iter_rows()):
        assert int(ans) == fresh.bis(VertexSet(n, lw.copy()),
                                     VertexSet(n, rw.copy()))
    assert np.array_equal(counts, answers.reshape(
        len(block.parts), reps, levels).sum(axis=1))


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
    ns = NsParams(epsilon=0.5, levels=4, reps=3)
    plan = plan_ns(VertexSet.from_indices(n, [v]),
                   VertexSet.from_indices(n, ids), ns, seed)
    o = BisOracle(g)
    counts = o.submit(plan)[0]
    answers = _expand_top(_top(plan.blocks[0], g), ns.levels)
    assert answers.size == plan.size() == o.ledger.bis_count
    assert np.array_equal(counts, answers.reshape(
        1, ns.reps, ns.levels).sum(axis=1))
    fresh = BisOracle(g)
    for ans, (lw, rw) in zip(answers, plan.iter_rows()):
        assert int(ans) == fresh.bis(VertexSet(n, lw.copy()),
                                     VertexSet(n, rw.copy()))


@settings(max_examples=30, deadline=None)
@given(st.integers(65, 200), st.floats(0.0, 0.5), st.integers(1, 4),
       st.integers(1, 7), st.integers(0, 3), st.integers(0, 10 ** 6))
def test_shared_top_histogram_counts_match_answer_sums(n, p, reps, levels,
                                                       extra, seed):
    # the per-level no-edge counts evaluate histograms from each chunk's
    # maxima equal the per-level sums of fresh answers over iter_rows,
    # and those answers equal a word-AND per row against each support
    g, block = _depth_kernel_case(n, p, reps, levels, extra, seed)
    counts = block.evaluate(g)
    assert counts.dtype == np.int64
    assert counts.shape == (len(block.parts), levels)
    assert np.array_equal(counts, _fresh_counts(g, block))
    supports = [g.neighborhood_words(bitset.members(left, n))
                & block.base.words & ~left
                for left, _ in list(block.iter_rows())[::reps * levels]]
    # the adjacency-list supports are these word supports, each pair once
    part, ids = block._supports(g)
    expect = [(q, v) for q, support in enumerate(supports)
              for v in bitset.members(support, n).tolist()]
    assert list(zip(part.tolist(), ids.tolist())) == expect
    planes = block.draw_planes(bitset.word_count(n))
    expect = np.array([[[not (planes[r, i] & s).any()
                         for i in range(levels)] for r in range(reps)]
                       for s in supports])
    answers = _expand_top(_top(block, g), levels).reshape(expect.shape)
    assert np.array_equal(answers, expect)
    assert (counts[0] == reps).all()   # empty support


@settings(max_examples=25, deadline=None)
@given(st.sampled_from([1, 2, 7, 40]), st.integers(1, 40),
       st.integers(1, 14), st.sampled_from([None, 1, 3]),
       st.integers(0, 10 ** 6))
@example(parts=40, reps=40, levels=14, rows=1, seed=2)
@example(parts=1, reps=1, levels=1, rows=None, seed=1)
def test_shared_block_counts_equal_fresh_answer_sums(parts, reps, levels,
                                                     rows, seed):
    # one-vertex cells against the rest of a graph with hubs, so the top
    # depths run over 0..levels-1; ``rows`` sets the histogram budget to
    # that many rows of a chunk's maxima, so the counts add up over
    # several bincount blocks, and the budget is one rep's coin draw or
    # larger; a trailing empty part answers 1 everywhere
    n = 70
    g = gen_gnp(n, 0.05, seed)
    g = Graph.from_edges(n, g.edges() + [(u, v) for u in (0, 1)
                                         for v in range(2, n)
                                         if not g.has_edge(u, v)])
    cells = [[int(v)] for v in rng_for("cells", seed).permutation(n)[:parts]]
    block = _cells_block(n, cells + [[]], None, reps, levels,
                         ("fresh-sums", seed))
    with pytest.MonkeyPatch.context() as mp:
        if rows is not None:
            mp.setattr(bitset, "SCRATCH_BYTES", 8 * max(
                rows * reps, levels * bitset.word_count(n)))
        counts = block.evaluate(g)
    assert counts.shape == (parts + 1, levels)
    assert np.array_equal(counts, _fresh_counts(g, block))
    assert (counts[-1] == reps).all()


@pytest.mark.parametrize("level", range(1, 11))
def test_depth_table_reads_every_level_of_the_planes(level):
    # the drawn planes are nested by construction, so a vertex is held at
    # `level` iff its survival depth reaches it; the depth slab is built
    # on two of the four word columns
    block = _cells_block(4 * 64, [], None, 3, 11, ("nested", level))
    planes = block.draw_planes(4)
    assert not (planes[:, level] & ~planes[:, level - 1]).any()
    cols = np.array([0, 3])
    depth = _depth_slab(block.draw_planes(4, cols))
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


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 300), st.sampled_from([1, 2, 11]),
       st.lists(st.integers(1, 5), min_size=1, max_size=4),
       st.integers(0, 10 ** 6), st.sampled_from(["none", "some", "tail"]))
def test_nested_rate_masks_calls_concatenate(n, levels, chunks, key, pick):
    # consecutive calls on one generator, as a shared-plane block draws
    # its repetition chunks, equal the row blocks of one call
    base = bitset.random_planes(rng_for("base", key), bitset.word_count(n))
    bitset.trim_tail(base, n)
    w = base.size
    rng = rng_for("cols", key)
    cols = {"none": None,
            "some": rng.permutation(w)[:rng.integers(1, w + 1)],
            "tail": np.array([w - 1])}[pick]
    rng = rng_for("chunks", key)
    got = [bitset.nested_rate_masks(rng, base, levels, c, cols)
           for c in chunks]
    whole = bitset.nested_rate_masks(rng_for("chunks", key), base, levels,
                                     sum(chunks), cols)
    assert np.array_equal(np.concatenate(got), whole)


def _top_from_planes(g, block):
    """Top depths read off the eagerly drawn planes, part by part."""
    n = g.n
    planes = block.draw_planes(bitset.word_count(n))
    top = np.full((len(block.parts), block.reps), -1, dtype=np.int8)
    for p in block.parts:
        left = block.members[block.part == p]
        support = (g.neighborhood_words(left) & block.base.words
                   & ~bitset.pack_indices(n, left))
        for r in range(block.reps):
            held = np.flatnonzero((planes[r] & support).any(axis=1))
            if held.size:
                top[p, r] = held.max()
    return top


@pytest.mark.parametrize("parts", ["many", "one", "few"])
@pytest.mark.parametrize("chunk, reps", [(1, 5), (3, 7), (3, 10), (2, 6),
                                         (4, 3)])
def test_shared_block_chunks_give_the_eager_answers(monkeypatch, chunk,
                                                    reps, parts):
    # a budget of `chunk` reps' coin draw splits evaluate into chunks of
    # that many reps (1-rep chunks, reps = q * chunk + 1, an exact
    # multiple, reps < chunk); the maxima of every chunk must not depend
    # on the split, with many parts (one of them in every word column),
    # the hub alone (a one-part block, as the NS plan) or supports of
    # sizes 1, 5 and 3 and an empty one, all in column 0 (a run of ranks
    # per size)
    n, levels = 130, 8      # the coin draw is the largest chunk array
    g, block = _depth_kernel_case(n, 0.1, reps, levels, 3, chunk)
    if parts == "one":
        hub = block.members[block.part == 1]
        block = SharedSubsampleBlock("t", hub, [0], 1, block.base, reps,
                                     levels, block.stream)
    if parts == "few":
        g = Graph.from_edges(n, [(v, u) for v, lo in ((128, 0), (129, 10),
                                                      (127, 20))
                                 for u in range(lo, lo + 10)])
        base = VertexSet.from_indices(n, [0, *range(10, 15),
                                          *range(20, 23), 50])
        block = _cells_block(n, [[128], [129], [127], [126]], base, reps,
                             levels, block.stream)
    w = bitset.word_count(n)
    monkeypatch.setattr(bitset, "SCRATCH_BYTES", chunk * 8 * levels * w)
    drawn = []
    draw = bitset.nested_rate_masks

    def spy(rng, base, levels, reps, cols=None):
        drawn.append(reps)
        return draw(rng, base, levels, reps, cols)

    monkeypatch.setattr(bitset, "nested_rate_masks", spy)
    counts = block.evaluate(g)
    q, rest = divmod(reps, chunk)
    assert drawn == [chunk] * q + [rest] * (rest > 0)
    top = _top(block, g)
    assert np.array_equal(top, _top_from_planes(g, block))
    answers = _expand_top(top, levels)
    fresh = BisOracle(g)
    for ans, (lw, rw) in zip(answers, block.iter_rows()):
        assert int(ans) == fresh.bis(VertexSet(n, lw.copy()),
                                     VertexSet(n, rw.copy()))
    assert np.array_equal(counts, answers.reshape(
        len(block.parts), reps, levels).sum(axis=1))


def _scratch_peak(fn):
    import tracemalloc
    fn()                    # lazy imports and caches are not scratch
    tracemalloc.start()
    try:
        fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def test_shared_block_scratch_is_bounded():
    # a degree-sketch-sized block: 1000 one-vertex cells, each against
    # the rest of the graph, 1474 reps of 11 levels at n = 1024; the
    # chunked evaluation holds no array of (parts, reps) or (parts, w)
    # size, so quadrupling reps leaves its peak where it was, and
    # validating the block copies its members once
    n = 1024
    g = gen_gnp(n, 0.01, seed=4)
    peaks = []
    for reps in (1474, 4 * 1474):
        block = SharedSubsampleBlock("t", np.arange(1000), np.arange(1000),
                                     1000, VertexSet.full(n), reps, 11,
                                     ("scratch",))
        counts = block.evaluate(g)
        assert counts.shape == (1000, 11)
        assert counts.max() <= reps and counts[:, 0].max() == 0
        peaks.append(_scratch_peak(lambda: block.evaluate(g)))
    assert peaks[0] < 2 ** 20
    assert peaks[1] <= peaks[0] * 1.05
    plan = QueryPlan(n, [block])
    assert _scratch_peak(plan.validate) < 4 * block.members.nbytes + 4096


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
    pools = o.submit(QueryPlan(n, blocks))
    assert o.ledger.bis_count == sum(b.n_queries() for b in blocks)
    assert o.ledger.phases == {b.tag: b.n_queries() for b in blocks}
    rows = [fresh_row_answers(g, block) for block in blocks]
    assert all(rows[0]) and all(rows[4])          # empty support
    for block, pool, answers in zip(blocks, pools, rows):
        assert len(answers) == block.n_queries()
        assert pool.dtype == np.int64
        assert pool.tolist() == reference_pool(block, answers).tolist()
    assert pools[0].size == pools[4].size == 0
    assert pools[5].size and not pools[5].any()   # domain 1: index 0


def test_subsample_rows_lie_inside_base():
    # a seeded block over a base with no edge to left: every row is
    # masks & side, inside base, so evaluate, which reads only
    # Gamma(left) ∩ base, agrees with a fresh bis on every iter_rows row:
    # all answer 1, and the pool is empty
    n = 70
    g = gen_gnp(n, 0.1, seed=1)
    left = VertexSet.from_indices(n, [0])
    others = VertexSet.full(n).difference(left)
    base = others.difference(VertexSet.from_indices(n, g.neighbors(0)))
    block = SidesSubsampleBlock("sides", left.words, base.words, 2, 5)
    pool = BisOracle(g).submit(QueryPlan(n, [block]))[0]
    rows = fresh_row_answers(g, block)
    assert rows == [1] * block.n_queries()
    assert pool.tolist() == reference_pool(block, rows).tolist() == []


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
              SharedSubsampleBlock("sh", [1], [0], 1, VertexSet(n, some), 2,
                                   3, ("unread",)),
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
    their left: Dense rows 4 and 5 and the level-0 whole-side rows of the
    Sides block.  A shared-plane row lies outside its left by
    construction, so its case is a malformed block instead: a member
    repeated or out of range, or a part id out of range."""
    left = bitset.pack_indices(n, [0, 66])
    base = bitset.pack_indices(n, [5, 66])
    if kind == "dense":
        lefts = np.stack([bitset.pack_indices(n, [1])] * 3 + [left] * 3)
        rights = np.stack([bitset.pack_indices(n, ids) for ids in
                           ([2], [3, 4], [5], [2, 9], [66], [5, 66])])
        return DenseBlock("t", lefts, rights)
    if kind == "shared":
        return [SharedSubsampleBlock("t", members, part, 2,
                                     VertexSet(n, base), 3, 2, ("overlap",))
                for members, part in (([0, 66, 7, 66], [0, 0, 1, 1]),
                                      ([0, 66, 7, 0], [0, 0, 1, 0]),
                                      ([0, 66, n], [0, 0, 1]),
                                      ([-1, 66], [0, 1]),
                                      ([0, 66, 7], [0, 0, 2]),
                                      ([0, 66], [-1, 1]),
                                      ([0, 66], [0]))]
    return SidesSubsampleBlock("t", left, base, 3, "overlap")


@pytest.mark.parametrize("kind", ["dense", "shared", "sides"])
def test_block_rejects_row_overlapping_its_left(kind):
    n = 70
    blocks = _overlapping_block(kind, n)
    message = {"dense": "query 4 ", "sides": "overlap",
               "shared": "repeated|out of range|one part id per member"}
    error = ValueError if kind == "shared" else DisjointnessError
    for block in blocks if kind == "shared" else [blocks]:
        o = BisOracle(gen_gnp(n, 0.1, seed=1))
        with pytest.raises(error, match=message[kind]):
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
