import random
from fractions import Fraction

import pytest

import orepack as op
from orepack import PreconditionError, ProbeConfig, probes

from oracles import average_degree_checks_by_loop


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


def test_random_graph_is_seed_deterministic():
    import random

    g1 = op.random_graph(10, 0.5, random.Random(77))
    g2 = op.random_graph(10, 0.5, random.Random(77))
    assert g1 == g2
