import dataclasses
import hashlib
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from bisq import (BisOracle, gen_family, gen_gnp, run_pipeline,
                  sample_edges_batch)
from bisq.edge_sampler import FAILURE, NO_EDGES, OK, SamplerOutput
from bisq.graph import Graph
from bisq.params import Constants
from bisq.seeding import rng_for

SAMP_C = Constants(c_T=8.0, c2=1.0, c_lambda=16.0, ser_pool_scale=4.0)


def test_empty_graph_no_edges():
    g = Graph.from_edges(64, [])
    o = BisOracle(g)
    out = sample_edges_batch(o, 1, 0.25, seed=1, constants=SAMP_C)[0]
    assert out.status == NO_EDGES


def test_empty_graph_batch_and_frozen_output():
    g = Graph.from_edges(64, [])
    outs = sample_edges_batch(BisOracle(g), 7, 0.25, seed=2, constants=SAMP_C)
    assert len(outs) == 7
    assert all(out == SamplerOutput(status=NO_EDGES) for out in outs)
    with pytest.raises(dataclasses.FrozenInstanceError):
        outs[0].status = OK
    with pytest.raises(ValueError):
        outs.status[0] = 0


def test_refinement_that_recovers_nobody_is_a_failure():
    # at the default constants the final pass on a 4-clique can recover
    # nobody although the coarse bootstrap saw edges (m0 > 2): those draws
    # fail instead of calling a 6-edge graph empty
    g = gen_family("clique", n=4)
    for seed in (("trial", 0), ("trial", 2), ("trial", 3)):
        result = run_pipeline(BisOracle(g), 0.25, seed, with_neighbors=True)
        assert result.final_state.recovered.size == 0 and result.m0 > 2.0
        outs = sample_edges_batch(BisOracle(g), 5, 0.25, seed)
        assert list(outs) == [SamplerOutput(status=FAILURE)] * 5
    empty = gen_gnp(16, 0.0, seed=1)
    result = run_pipeline(BisOracle(empty), 0.25, 1, with_neighbors=True)
    assert result.m0 == 2.0
    outs = sample_edges_batch(BisOracle(empty), 3, 0.25, 1)
    assert list(outs) == [SamplerOutput(status=NO_EDGES)] * 3


def test_single_edge_graph():
    g = Graph.from_edges(2, [(0, 1)])
    hits = 0
    for seed in range(15):
        o = BisOracle(g)
        out = sample_edges_batch(o, 1, 0.25, seed=seed, constants=SAMP_C)[0]
        if out.status == OK:
            assert set(out.edge) == {0, 1}
            hits += 1
    assert hits >= 12


def test_every_output_is_a_real_edge():
    g = gen_gnp(128, 0.01, seed=3)
    o = BisOracle(g)
    outs = sample_edges_batch(o, 400, 0.25, seed=4, constants=SAMP_C)
    ok = [s for s in outs if s.status == OK]
    assert len(ok) >= 300
    for s in ok:
        assert g.has_edge(*s.edge), s.edge


def test_batch_one_round_any_k():
    g = gen_gnp(128, 0.02, seed=5)
    o = BisOracle(g)
    sample_edges_batch(o, 500, 0.25, seed=6, constants=SAMP_C)
    assert o.ledger.round_count == 1


def test_triangle_uniform():
    # one pipeline's finite neighbor pools leave a few-percent systematic
    # wobble per edge; average over independent pipelines to expose the
    # underlying uniformity
    g = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
    freq = Counter()
    total = 0
    for seed in range(6):
        o = BisOracle(g)
        outs = sample_edges_batch(o, 1000, 0.25, seed=("tri", seed),
                                  constants=SAMP_C)
        ok = [s for s in outs if s.status == OK]
        assert len(ok) >= 800
        total += len(ok)
        freq.update(tuple(sorted(s.edge)) for s in ok)
    assert set(freq) == {(0, 1), (0, 2), (1, 2)}
    for e, c in freq.items():
        assert abs(c / total - 1 / 3) <= 0.06, freq


def test_batch_draws_are_pinned():
    # (status, edge) of every draw of one fixed batch; a rewrite of the
    # draw path or of the sketch's pools must not move a single one
    g = gen_gnp(96, 0.03, seed=8)
    outs = sample_edges_batch(BisOracle(g), 2000, 0.25, seed=99,
                              constants=SAMP_C)
    pairs = [(out.status, out.edge) for out in outs]
    assert pairs[:4] == [(OK, (76, 93)), (OK, (26, 38)), (OK, (58, 91)),
                         (OK, (81, 46))]
    assert Counter(status for status, _ in pairs) == {OK: 2000}
    digest = hashlib.sha256(repr(pairs).encode()).hexdigest()
    assert digest == ("74f5cfa5b3b9928f80fc2d346902a1cb"
                      "2815a6635f814824f56ddaed5dd0ffc3")


def test_repeat_vertex_gets_fresh_neighbor_randomness():
    # a star center drawn repeatedly must spread over all its leaves, and
    # the conditional second-coordinate distribution stays near uniform
    from scipy.stats import chisquare
    n = 64
    g = Graph.from_edges(n, [(0, i) for i in range(1, 9)])
    second = Counter()
    for seed in range(4):
        o = BisOracle(g)
        outs = sample_edges_batch(o, 400, 0.25, seed=("fresh", seed),
                                  constants=SAMP_C)
        second.update(s.edge[1] for s in outs
                      if s.status == OK and s.edge[0] == 0)
    assert set(second) == set(range(1, 9)), second
    _, p = chisquare([second[i] for i in range(1, 9)])
    assert p > 0.005, second


def test_vertex_selection_tracks_degree_share():
    # unconditional selection frequency of a heavy non-boundary vertex is
    # close to d(v) / 2m across pipelines
    n = 64
    edges = [(0, i) for i in range(1, 9)] + [(10, 11), (12, 13), (14, 15),
                                             (16, 17), (18, 19)]
    g = Graph.from_edges(n, edges)
    target = 8 / (2 * g.m)
    picked = 0
    total = 0
    for seed in range(30):
        o = BisOracle(g)
        outs = sample_edges_batch(o, 40, 0.25, seed=("share", seed),
                                  constants=SAMP_C)
        for s in outs:
            if s.status == OK:
                total += 1
                if s.edge[0] == 0:
                    picked += 1
    rate = picked / total
    sigma = np.sqrt(target * (1 - target) / total)
    assert abs(rate - target) <= 0.25 * target + 4 * sigma, (rate, target)


def test_near_uniform_small_graph():
    g = gen_gnp(128, 0.008, seed=10)
    assert g.m > 20
    o = BisOracle(g)
    outs = sample_edges_batch(o, 6000, 0.25, seed=11, constants=SAMP_C)
    ok = [s for s in outs if s.status == OK]
    assert len(ok) >= (1 - 2 * 0.25) * len(outs)
    freq = Counter(tuple(sorted(s.edge)) for s in ok)
    k = len(ok)
    for e in g.edges():
        p = freq.get(e, 0) / k
        sigma = np.sqrt((1 / g.m) * (1 - 1 / g.m) / k)
        assert (1 - 0.25) / g.m - 4 * sigma <= p <= (1 + 0.25) / g.m + 4 * sigma


def test_sample_log_fields():
    g = gen_gnp(64, 0.03, seed=12)
    o = BisOracle(g)
    out = sample_edges_batch(o, 1, 0.25, seed=13, constants=SAMP_C)[0]
    if out.status == OK:
        v, u = out.edge
        assert 0 <= v < 64 and 0 <= u < 64
        assert out.weight > 0


# SHA-256 of repr([(status, edge, weight), ...]) over every draw of a batch,
# each captured from the per-draw implementation the array batch replaced:
# C6's batch (all ok; 18,567 draws outlive their vertex's pool and
# recycle), a dense graph at default constants with ok and failed draws
# that also recycles, a refinement that recovers nobody, and an edgeless
# graph
_PINNED_BATCHES = {
    "c6": (lambda: gen_gnp(256, 0.00306, seed=0), 56000, 606, SAMP_C,
           {OK: 56000}, "9f28194b437027a757b297e7824a2f51"
                        "11a91ab7293c3554ae61f1dd7edab1d5"),
    "ok-and-failure": (lambda: gen_gnp(16, 0.9, seed=0), 3000, 0,
                       Constants(), {OK: 2791, FAILURE: 209},
                       "db19811b327470ee34d78b93daae4da0"
                       "7d00026148ba583d98dbf9e86fe718f1"),
    "refinement-failure": (lambda: gen_family("clique", n=4), 5,
                           ("trial", 0), Constants(), {FAILURE: 5},
                           "b93f28377703c467e87a458956aeadd0"
                           "bc51dae9cecabfe3868c4aa5cd91cb7f"),
    "edgeless": (lambda: Graph.from_edges(16, []), 6, 1, Constants(),
                 {NO_EDGES: 6}, "894db415b67d8b064d552a6fa222ce9a"
                                "16a7e1f901c3b2cc67a5cba7fb3a9204"),
}


@pytest.mark.parametrize("name", sorted(_PINNED_BATCHES))
def test_batch_records_are_pinned(name):
    make, k, seed, constants, statuses, digest = _PINNED_BATCHES[name]
    batch = sample_edges_batch(BisOracle(make()), k, 0.25, seed,
                               constants=constants)
    triples = [(out.status, out.edge, out.weight) for out in batch]
    assert Counter(status for status, _, _ in triples) == statuses
    assert hashlib.sha256(repr(triples).encode()).hexdigest() == digest


def test_batch_arrays_match_its_records():
    batch = sample_edges_batch(BisOracle(gen_gnp(16, 0.9, seed=0)), 300,
                               0.25, 0)
    records = list(batch)
    assert len(batch) == len(records) == 300
    assert [batch[i] for i in range(-300, 0)] == records
    with pytest.raises(IndexError):
        batch[300]
    ok = batch.ok
    assert ok.tolist() == [r.status == OK for r in records]
    assert 0 < ok.sum() < 300
    assert [(v, u) for v, u in zip(batch.vertex[ok].tolist(),
                                   batch.neighbor[ok].tolist())] == \
        [r.edge for r in records if r.status == OK]
    assert batch.weight.tolist() == [r.weight for r in records]
    assert (batch.neighbor[~ok] == -1).all()


def test_array_bounded_integers_consume_the_stream_like_scalar_calls():
    # recycled draws take one rng.integers call over all their pool
    # sizes, which must give the values and the stream position of one
    # scalar call per draw
    bounds = np.arange(30) % 10 + 2          # 2..11, three times each
    scalar, vector = rng_for(5, "draw"), rng_for(5, "draw")
    values = [scalar.integers(0, int(b)) for b in bounds]
    assert vector.integers(0, bounds).tolist() == values
    assert scalar.random(4).tolist() == vector.random(4).tolist()


@pytest.mark.parametrize("graph, bytes_per_draw", [
    (Graph.from_edges(64, []), 2), (gen_gnp(64, 0.1, seed=1), 30)],
    ids=["nothing-to-draw", "gnp64"])
def test_batch_memory_per_draw(graph, bytes_per_draw):
    # peak traced allocation of a whole 10^6-draw call, pipeline included:
    # a status byte per draw when there is nothing to draw, else status,
    # vertex, neighbor and weight (25 bytes) plus bounded chunk transients
    k = 10 ** 6
    tracemalloc.start()
    try:
        batch = sample_edges_batch(BisOracle(graph), k, 0.25, 1,
                                   constants=SAMP_C)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(batch) == k
    assert peak <= bytes_per_draw * k, peak / k
