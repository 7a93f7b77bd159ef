import random

import pytest

import orepack as op
from orepack import EnumerationCapError, PreconditionError

from fixtures import corpus, k4_minus, small_corpus
from oracles import brute_chromatic_number, brute_optimal_partitions


def test_chromatic_examples():
    assert op.chromatic_number(k4_minus()) == 3
    assert op.chromatic_number(op.construct_fdiamond()) == 3
    assert op.chromatic_number(op.empty_graph(4)) == 1
    assert op.chromatic_number(op.complete_graph(6)) == 6
    assert op.chromatic_number(op.cycle_graph(7)) == 3
    with pytest.raises(PreconditionError):
        op.chromatic_number(op.empty_graph(0))


def test_chromatic_agrees_with_brute_force():
    rng = random.Random(99)
    for _ in range(150):
        n = rng.randrange(1, 9)
        g = op.random_graph(n, rng.random(), rng)
        assert op.chromatic_number(g) == max(1, brute_chromatic_number(g))


def test_chromatic_at_least_greedy_clique():
    rng = random.Random(5)
    for _ in range(100):
        g = op.random_graph(rng.randrange(1, 12), rng.random(), rng)
        clique = op.greedy_clique(g)
        # the heuristic must return an actual clique
        for i, u in enumerate(clique):
            for v in clique[i + 1:]:
                assert g.has_edge(u, v)
        assert op.chromatic_number(g) >= len(clique)


def test_optimal_colorings_k3():
    parts = op.optimal_colorings(op.complete_graph(3))
    assert len(parts) == 1
    assert parts[0].sizes_sorted == (1, 1, 1)


def test_optimal_colorings_c5():
    parts = op.optimal_colorings(op.cycle_graph(5))
    assert all(p.sizes_sorted == (1, 2, 2) for p in parts)
    assert len(parts) == 5  # one per choice of the singleton vertex


def test_optimal_colorings_fdiamond():
    parts = op.optimal_colorings(op.construct_fdiamond())
    assert parts
    assert all(p.sizes_sorted == (2, 2, 3) for p in parts)


def test_optimal_colorings_match_brute_force():
    graphs = dict(small_corpus())
    rng = random.Random(41)
    for i in range(60):
        g = op.random_graph(rng.randrange(1, 10), rng.random(), rng)
        graphs[f"random {i} {op.to_graph6(g)}"] = g
    for name, g in graphs.items():
        got = {p.classes for p in op.optimal_colorings(g)}
        want = {tuple(sorted(p, key=min)) for p in brute_optimal_partitions(g)}
        assert got == want, name


def test_optimal_colorings_are_proper_partitions():
    for name, g in corpus().items():
        chi = op.chromatic_number(g)
        for p in op.optimal_colorings(g):
            assert len(p.classes) == chi, name
            seen = set()
            for cls in p.classes:
                assert not (cls & seen)
                seen |= cls
                for u in cls:
                    for v in cls:
                        if u < v:
                            assert not g.has_edge(u, v), name
            assert seen == set(range(g.n)), name
            assert p.sizes_sorted == tuple(sorted(len(c) for c in p.classes))


def test_enumeration_cap_is_hard_error():
    # the 8-cycle has many optimal 2-colorings? no - unique; use an
    # edgeless-ish sparse graph with lots of optimal colorings instead
    g = op.disjoint_union(op.complete_graph(2), op.empty_graph(6))
    with pytest.raises(EnumerationCapError):
        op.optimal_colorings(g, cap=2)


def test_sigma_examples():
    assert op.sigma(k4_minus()) == 1
    assert op.sigma(op.construct_fdiamond()) == 2
    assert op.sigma(op.complete_graph(5)) == 1
    with pytest.raises(PreconditionError):
        op.sigma(op.empty_graph(3))


def test_sigma_consistent_with_enumeration():
    for name, g in corpus().items():
        parts = op.optimal_colorings(g)
        assert op.sigma(g) == min(p.sizes_sorted[0] for p in parts), name


def test_colour_difference_set_examples():
    assert op.colour_difference_set(op.complete_graph(3)) == {0}
    assert op.colour_difference_set(op.construct_fdiamond()) == {0, 1}
    assert op.colour_difference_set(op.cycle_graph(5)) == {0, 1}
    assert op.colour_difference_set(op.star_graph(3)) == {2}


def test_every_optimal_coloring_equitable():
    assert op.every_optimal_coloring_equitable(op.complete_graph(3))
    assert not op.every_optimal_coloring_equitable(k4_minus())
    assert op.every_optimal_coloring_equitable(op.cycle_graph(6))
    assert not op.every_optimal_coloring_equitable(op.path_graph(3))
