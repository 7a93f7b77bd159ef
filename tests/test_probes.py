import math
import random
import tracemalloc
from fractions import Fraction

import pytest

import orepack as op
from orepack import PreconditionError, ProbeConfig, probes

from oracles import average_degree_checks_by_loop, random_graph_before


def test_config_validation():
    with pytest.raises(PreconditionError):
        op.run_probe(ProbeConfig(family="nope", n=6, samples=5, seed=1))
    with pytest.raises(PreconditionError):
        op.run_probe(ProbeConfig(family="hajnal-szemeredi", n=6, samples=5, seed=1))
    with pytest.raises(PreconditionError):
        op.run_probe(
            ProbeConfig(family="hajnal-szemeredi", n=7, samples=5, seed=1, r=3)
        )
    with pytest.raises(PreconditionError):
        op.run_probe(
            ProbeConfig(family="kierstead-kostochka", n=27, samples=5, seed=1, r=3)
        )
    with pytest.raises(PreconditionError):
        op.run_probe(ProbeConfig(family="average-degree", n=6, samples=0, seed=1))


def test_negative_budget_is_rejected():
    # the budget reaches the packing search only at a hypothesis hit, and
    # this probe has 7 of them
    assert op.run_probe(ProbeConfig("hajnal-szemeredi", 9, 30, 1, 3, budget=1)).condition_hits == 7
    with pytest.raises(PreconditionError, match="at least 0, got -1"):
        op.run_probe(ProbeConfig("hajnal-szemeredi", 9, 30, 1, 3, budget=-1))


def test_clique_factor_probes_find_no_violations():
    hs = op.run_probe(
        ProbeConfig(family="hajnal-szemeredi", n=9, samples=100, seed=42, r=3)
    )
    assert hs.violations == 0 and hs.unknowns == 0
    assert hs.condition_hits > 0
    kk = op.run_probe(
        ProbeConfig(family="kierstead-kostochka", n=6, samples=100, seed=42, r=3)
    )
    assert kk.violations == 0 and kk.unknowns == 0
    assert kk.condition_hits > 0


def test_average_degree_probe_no_violations():
    s = op.run_probe(ProbeConfig(family="average-degree", n=20, samples=150, seed=9))
    assert s.violations == 0
    assert s.condition_hits > 0


def _average_degree_agreement(rng, count):
    # each graph's summary, probed alone, against the loop over k
    violated = 0
    for _ in range(count):
        g = op.random_graph(rng.randint(1, 30), rng.random(), rng)
        summary = probes.ProbeSummary(samples=1)
        probes._probe_average_degree(g, summary)
        hits, violation = average_degree_checks_by_loop(
            g.n, op.min_ore_degree_sum(g), probes.average_degree(g)
        )
        assert summary.to_json_dict() == {
            "samples": 1,
            "condition_hits": hits,
            "violations": int(violation),
            "unknowns": 0,
            "violation_graphs": [op.to_graph6(g)] if violation else [],
        }, op.to_graph6(g)
        violated += violation
    return violated


def test_average_degree_probe_counts_as_the_loop(monkeypatch):
    rng = random.Random(1213)
    assert _average_degree_agreement(rng, 400) == 0
    # a third of the true average degree, often an integer, violates the
    # bound on most graphs
    monkeypatch.setattr(probes, "average_degree", lambda g: Fraction(2 * g.edge_count(), 3 * g.n))
    assert _average_degree_agreement(rng, 400) >= 100


def test_probe_is_reproducible():
    cfg = ProbeConfig(family="kierstead-kostochka", n=6, samples=60, seed=5, r=2)
    a = op.run_probe(cfg).to_json_dict()
    b = op.run_probe(cfg).to_json_dict()
    assert a == b


def _orders_to_check():
    # every order to 40; the orders whose pair count crosses one and two
    # draw blocks, with the order before each; the orders around the
    # strides 64 and 128 of the bit matrix, and the largest
    pairs = [n * (n - 1) // 2 for n in range(129)]
    crossings = [n for n in range(1, 129) for m in (1, 2)
                 if pairs[n - 1] <= m * probes._LANE_BLOCK < pairs[n]]
    return sorted({*range(41), *crossings, *(n - 1 for n in crossings), 60, 64, 65, 120, 127, 128})


def test_random_graph_draws_as_the_pair_loop():
    # the same rows and the same generator state afterwards as one
    # random() < p per vertex pair, for every p: 5e-324 and 1 - 2^-53 are
    # the thresholds 1 and 2^53 - 1, the rest test p <= 0, p >= 1 and NaN
    ps = [0, 0.12, 0.5, 0.83, 1, 1 - 2**-53, 5e-324, -0.5, 1.5, math.nan, math.inf, -math.inf]
    for n in _orders_to_check():
        # the first pair's own random() value, and the float just above
        # it: the pair is a non-edge at the first and an edge at the second
        first = random.Random(n).random()
        for p in ps + [first, math.nextafter(first, 1)]:
            ours, theirs = random.Random(n), random.Random(n)
            g = op.random_graph(n, p, ours)
            assert g.adj == random_graph_before(n, p, theirs).adj, (n, p)
            assert ours.getstate() == theirs.getstate(), (n, p)
            assert type(g.adj) is tuple


def test_random_graph_rejects_orders_outside_the_contract():
    # the same ValueError as the pair loop; above 128 it now raises before
    # drawing, where the loop drew every pair first
    for n in (-1, -5, 129, 200):
        ours, theirs = random.Random(3), random.Random(3)
        with pytest.raises(ValueError) as expected:
            random_graph_before(n, 0.5, theirs)
        with pytest.raises(ValueError) as raised:
            op.random_graph(n, 0.5, ours)
        assert str(raised.value) == str(expected.value) == f"vertex count {n} outside 0..128"
        assert ours.getstate() == random.Random(3).getstate()


def test_random_graph_memory_stays_flat():
    # the draw keeps its constants per block of pairs, in bounded caches;
    # one block for the whole graph would hold 65 KB per lane constant at
    # n = 128, and a draw would peak near 280 KB
    caches = [f for f in vars(probes).values() if hasattr(f, "cache_info")]
    assert caches and all(f.cache_info().maxsize is not None for f in caches)
    op.random_graph(128, 0.5, random.Random(1))
    rng = random.Random(1)
    tracemalloc.start()
    try:
        op.random_graph(128, 0.5, rng)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 256 * 1024


def test_negative_seeds_are_rejected():
    # Random seeds from the absolute value of (seed << 32) + index, so
    # sample 0 of seed -5 was sample 0 of seed 5
    assert op.random_graph(30, 0.5, probes._sample_rng(-5, 0)) == op.random_graph(
        30, 0.5, probes._sample_rng(5, 0)
    )
    with pytest.raises(PreconditionError, match="need a seed of at least 0, got -5"):
        op.run_probe(ProbeConfig(family="average-degree", n=30, samples=2, seed=-5))
    assert op.run_probe(ProbeConfig(family="average-degree", n=30, samples=2, seed=0)).samples == 2
