import json
import random
from fractions import Fraction

import pytest

import orepack as op
from orepack import ExtendedNat, PreconditionError, coloring, parameters

from fixtures import corpus, k4_minus, small_corpus
from oracles import brute_colour_extension_number, ce_by_rising_m


FD = op.construct_fdiamond()


def test_extended_nat_invariants():
    inf = ExtendedNat.infinite()
    assert not inf.is_finite
    assert inf.to_json() == {"finite": False, "value": None}
    five = ExtendedNat.finite(5)
    assert five.is_finite and five.value == 5
    with pytest.raises(ValueError):
        ExtendedNat.finite(-1)


def test_critical_chromatic_number_examples():
    assert op.critical_chromatic_number(FD) == Fraction(14, 5)
    assert op.critical_chromatic_number(k4_minus()) == Fraction(8, 3)
    for r in range(2, 6):
        assert op.critical_chromatic_number(op.complete_graph(r)) == r
    with pytest.raises(PreconditionError):
        op.critical_chromatic_number(op.empty_graph(3))


def test_hcf_chi_examples():
    assert op.hcf_chi(op.complete_graph(3)) == ExtendedNat.infinite()
    assert op.hcf_chi(FD) == ExtendedNat.finite(1)
    assert op.hcf_chi(op.star_graph(3)) == ExtendedNat.finite(2)


def test_hcf_c_examples():
    assert op.hcf_c(op.complete_graph(2)) == 2
    assert op.hcf_c(op.disjoint_union(op.complete_graph(2), op.complete_graph(3))) == 1
    assert op.hcf_c(op.cycle_graph(6)) == 6
    with pytest.raises(PreconditionError, match="^graph must have at least one vertex$"):
        op.hcf_c(op.empty_graph(0))


def test_hcf_is_one_examples():
    assert op.hcf_is_one(FD)
    assert not op.hcf_is_one(op.complete_graph(3))
    assert not op.hcf_is_one(op.complete_graph(2))
    assert op.hcf_is_one(op.cycle_graph(5))
    # bipartite with coprime components and small difference gcd
    g = op.disjoint_union(op.path_graph(3), op.complete_graph(2))
    assert op.hcf_c(g) == 1
    assert op.hcf_is_one(g) == (op.hcf_chi(g).is_finite and op.hcf_chi(g).value <= 2)


def test_colour_extension_number_examples():
    ce, _ = op.colour_extension_number(k4_minus())
    assert ce == ExtendedNat.infinite()
    ce, witness = op.colour_extension_number(FD)
    assert ce == ExtendedNat.finite(1)
    assert witness == 6  # the degree-2 vertex attached across the deleted edge
    ce, _ = op.colour_extension_number(op.cycle_graph(5))
    assert ce == ExtendedNat.finite(0)
    hd = op.construct_hdiamond(2, 5, [3, 3, 3, 3, 3])
    assert hd.n == 16
    ce, witness = op.colour_extension_number(hd)
    assert ce == ExtendedNat.finite(2)
    assert witness == 15


def test_colour_extension_matches_exhaustive_oracle():
    for name, g in small_corpus().items():
        ce, witness = op.colour_extension_number(g)
        want, _ = brute_colour_extension_number(g)
        if want is None:
            assert not ce.is_finite, name
            assert witness is None, name
        else:
            assert ce.is_finite and ce.value == want, name
            assert witness is not None, name


def test_colour_extension_oracle_on_random_graphs():
    rng = random.Random(31)
    done = 0
    while done < 60:
        n = rng.randrange(2, 8)
        g = op.random_graph(n, rng.random(), rng)
        if g.edge_count() == 0:
            continue
        ce, witness = op.colour_extension_number(g)
        want, want_witness = brute_colour_extension_number(g)
        assert (ce.value if ce.is_finite else None) == want, op.to_graph6(g)
        # the witness is the least vertex attaining the minimum
        assert witness == want_witness, op.to_graph6(g)
        done += 1


def test_full_report_reads_ce_zero_off_the_profiles():
    # full_report takes CE = 0 and its witness from the lowest free vertex
    # of the profile search, and searches from m = 1 otherwise; both must
    # give the standalone search's and the exhaustive oracle's answer
    rng = random.Random(67)
    k4, c5 = op.complete_graph(4), op.cycle_graph(5)
    perm = list(range(9))
    rng.shuffle(perm)
    # the 3-colorable C5 leaves all its vertices free under chi = 4, and no
    # vertex of K4 is free
    k4_c5 = op.relabel(op.disjoint_union(k4, c5), perm)
    assert op.full_report(k4_c5).witness_vertex == min(perm[4:]) != 0
    graphs = [k4_c5, op.relabel(op.disjoint_union(c5, k4), perm)]
    graphs += [g for g in small_corpus().values() if g.edge_count()]
    # CE = 1 on FD, also beside a component that is not free; FD + K2 has
    # CE = 0 through the 2-colored K2
    for other in (op.complete_graph(3), op.complete_graph(2)):
        for g in (op.disjoint_union(FD, other), op.disjoint_union(other, FD)):
            order = list(range(g.n))
            rng.shuffle(order)
            graphs.append(op.relabel(g, order))
    while len(graphs) < 150:
        n = rng.randrange(2, 9)
        g = op.random_graph(n, rng.random(), rng)
        if rng.random() < 0.5:
            m = rng.randrange(1, 10 - n)
            g = op.disjoint_union(g, op.random_graph(m, rng.random(), rng))
            order = list(range(g.n))
            rng.shuffle(order)
            g = op.relabel(g, order)
        if g.edge_count():
            graphs.append(g)
    values = []
    for g in graphs:
        rep = op.full_report(g)
        got = (rep.ce, rep.witness_vertex)
        assert got == op.colour_extension_number(g), op.to_graph6(g)
        assert (rep.ce.value, rep.witness_vertex) == brute_colour_extension_number(g), op.to_graph6(g)
        values.append(rep.ce.value)
    assert values.count(0) >= 50 and sum(v is not None and v > 0 for v in values) >= 5


def test_colour_extension_matches_search_by_rising_m():
    # the one-pass search against the search that tries each m in turn:
    # from start = 0 on every graph, and from start = 1, as full_report
    # calls it, on the graphs where no vertex is free (CE >= 1 or infinite)
    rng = random.Random(1396)
    graphs = [g for g in corpus().values() if g.edge_count() and g.n <= 30]
    graphs += [op.blow_up(FD, 2), op.construct_hdiamond(3, 5, [4, 6, 7, 7, 7])]
    while len(graphs) < 800:
        n = rng.randrange(2, 16)
        # dense graphs most often leave no vertex free
        g = op.random_graph(n, rng.choice((rng.random(), 0.6 + 0.4 * rng.random())), rng)
        if n <= 8 and rng.random() < 0.3:
            # open twins: vertices with one neighbourhood
            g = op.blow_up(g, rng.randint(2, 3))
        if g.edge_count():
            graphs.append(g)
    from_one = {}
    for g in graphs:
        chi = op.chromatic_number(g)
        ce, witness = op.colour_extension_number(g, chi)
        assert (ce.value, witness) == ce_by_rising_m(g, chi), op.to_graph6(g)
        if op.class_size_profiles(g)[2] is None:
            ce, witness = op.colour_extension_number(g, chi, start=1)
            assert (ce.value, witness) == ce_by_rising_m(g, chi, start=1), op.to_graph6(g)
            from_one[ce.value] = from_one.get(ce.value, 0) + 1
    assert from_one.get(None, 0) >= 20 and sum(v for k, v in from_one.items() if k) >= 20


def _toggled(g, rng):
    """g relabelled by ``rng.shuffle``, with 1 to 3 vertex pairs drawn by
    ``rng`` toggled: an edge deleted or a non-edge added."""
    perm = list(range(g.n))
    rng.shuffle(perm)
    edges = set(op.relabel(g, perm).edges())
    for _ in range(rng.randint(1, 3)):
        edges ^= {tuple(sorted(rng.sample(range(g.n), 2)))}
    return op.Graph.from_edges(g.n, edges)


def test_colour_extension_clique_bounds_match_search_by_rising_m():
    # the clique bounds skip eligibility and extension searches that
    # cannot succeed; on graphs with CE >= 1, where the extension searches
    # run, the value and witness from start = 0 and from start = 1 must be
    # the oracle's. Toggled hdiamonds, fdiamond blow-ups and dense G(n, 0.7)
    # draws, each drawn until the oracle gives enough of them CE >= 1
    rng = random.Random(3607)
    graphs = [(op.blow_up(FD, t), 1) for t in (2, 3)]

    def draw(make, wanted):
        found = 0
        for _ in range(100):
            g = make()
            want = ce_by_rising_m(g, op.chromatic_number(g))[0]
            graphs.append((g, want))
            found += want is not None and want >= 1
            if found == wanted:
                return
        raise AssertionError("too few draws with CE >= 1")

    for k, r, sizes in ((2, 4, [3, 4, 7, 7]), (3, 5, [4, 6, 7, 7, 7]), (2, 5, [3] * 5)):
        hd = op.construct_hdiamond(k, r, sizes)
        draw(lambda: _toggled(hd, rng), 8)
    for n in range(12, 19):
        draw(lambda: op.random_graph(n, 0.7, rng), 3)
    for g, want in graphs:
        chi = op.chromatic_number(g)
        for start in (0, 1):
            ce, witness = op.colour_extension_number(g, chi, start)
            got = ce.value, witness
            assert got == ce_by_rising_m(g, chi, start), (op.to_graph6(g), start)
    assert sum(want is not None and want >= 2 for _, want in graphs) >= 16


def test_colour_extension_clique_bounds_match_exhaustive_oracle():
    # random graphs on at most 9 vertices seldom have CE >= 1, so toggled
    # relabellings of fdiamond (CE = 1) join them
    rng = random.Random(3609)
    values = []
    while len(values) < 300 or sum(v is not None and v >= 1 for v in values) < 12:
        if len(values) % 3:
            g = op.random_graph(rng.randint(4, 9), rng.choice((0.5, 0.7, 0.8, 0.9)), rng)
        else:
            g = _toggled(FD, rng)
        if not g.edge_count():
            continue
        ce, witness = op.colour_extension_number(g)
        want = brute_colour_extension_number(g)
        assert (ce.value, witness) == want, op.to_graph6(g)
        values.append(want[0])


def test_clique_bound_leaves_one_eligibility_search_on_hdiamond(monkeypatch):
    # hd(5,7,[6]*7), relabelled by Random(2).shuffle as tools/cliffs.py
    # relabels it: chi = 7 and 38 distinct neighbourhoods, of which all but
    # one hold a clique on chi - 1 vertices. Only that one reaches the
    # eligibility search with chi - 2 classes; the extension bound then
    # refutes every extension search. A clique on 6 vertices, grown in
    # each, rules out the other 37 neighbourhoods. The eligible one, the
    # fourth, holds a clique on 5 and has one 5-coloring, which blocks a
    # clique on 7 outside it: 5 + 7 classes are not fewer than chi + 5
    g = op.construct_hdiamond(5, 7, [6] * 7)
    perm = list(range(g.n))
    random.Random(2).shuffle(perm)
    g = op.relabel(g, perm)
    totals = []
    search = parameters._color_search

    def counted(h, vertices, classes, total, visit, near=None):
        totals.append(total)
        return search(h, vertices, classes, total, visit, near)

    grown = []
    clique = parameters._clique
    monkeypatch.setattr(parameters, "_color_search", counted)
    monkeypatch.setattr(parameters, "_clique", lambda h, vertices: grown.append(clique(h, vertices)) or grown[-1])
    ce, witness = op.colour_extension_number(g, 7)
    assert (ce.value, witness) == (5, 3)
    assert len(set(g.adj)) == 38 and totals == [5]
    assert [k.bit_count() for k in grown] == [6, 6, 6, 5, 7] + [6] * 34


def test_full_report_calls(monkeypatch):
    # the profile search finds chi itself, so a report makes no
    # chromatic_number call; CE = 0 needs no extension search, and CE >= 1
    # needs one, from m = 1
    calls = []

    def counted(module, name):
        inner = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls.append((name, args[1:], kwargs))
            return inner(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counted(coloring, "chromatic_number")
    counted(parameters, "chromatic_number")
    counted(parameters, "colour_extension_number")
    for g, ce, ce_calls in [
        (op.cycle_graph(5), 0, []),
        (op.disjoint_union(op.complete_graph(4), op.cycle_graph(5)), 0, []),
        (FD, 1, [("colour_extension_number", (3,), {"start": 1})]),
        (op.construct_hdiamond(2, 5, [3, 3, 3, 3, 3]), 2, [("colour_extension_number", (5,), {"start": 1})]),
    ]:
        calls.clear()
        assert op.full_report(g).ce == ExtendedNat.finite(ce)
        assert [c for c in calls if c[0] != "colour_extension_number"] == []
        assert [c for c in calls if c[0] == "colour_extension_number"] == ce_calls


def test_chi_star_examples():
    assert op.chi_star(FD) == Fraction(14, 5)
    assert op.chi_star(op.complete_graph(3)) == 3
    assert op.chi_star(op.cycle_graph(5)) == Fraction(5, 2)


def test_chi_ore_examples():
    assert op.chi_ore(k4_minus()) == 3
    assert op.chi_ore(FD) == Fraction(14, 5)
    assert op.chi_ore(op.cycle_graph(5)) == Fraction(5, 2)


def test_chi_prime_ore_examples():
    assert op.chi_prime_ore(k4_minus()) == 3
    assert op.chi_prime_ore(FD) == Fraction(7, 3)
    assert op.chi_prime_ore(op.cycle_graph(5)) == 2


def test_ore_threshold_coefficient_examples():
    assert op.ore_threshold_coefficient(k4_minus()) == Fraction(4, 3)
    assert op.ore_threshold_coefficient(FD) == Fraction(9, 7)
    assert op.ore_threshold_coefficient(op.complete_graph(2)) == 1


def test_full_report_fdiamond():
    rep = op.full_report(FD)
    assert rep.chi == 3
    assert rep.sigma == 2
    assert rep.chi_cr == Fraction(14, 5)
    assert rep.hcf_is_one
    assert rep.ce == ExtendedNat.finite(1)
    assert rep.chi_ore == Fraction(14, 5)
    assert rep.ore_coefficient == Fraction(9, 7)


def test_full_report_k4_minus():
    rep = op.full_report(k4_minus())
    assert rep.chi == 3
    assert rep.sigma == 1
    assert rep.ce == ExtendedNat.infinite()
    assert rep.chi_ore == 3
    assert rep.ore_coefficient == Fraction(4, 3)


def test_full_report_k3():
    rep = op.full_report(op.complete_graph(3))
    assert rep.chi == 3
    assert not rep.hcf_is_one
    assert rep.chi_ore == 3


def test_report_json_round_trip():
    rep = op.full_report(FD)
    payload = json.loads(json.dumps(rep.to_json_dict()))
    assert payload["chi_ore"] == {"num": 14, "den": 5}
    assert payload["ce"] == {"finite": True, "value": 1}
    assert payload["hcf_chi"] == {"finite": True, "value": 1}
    assert payload["witness_vertex"] == 6


def _bipartite_parts(g):
    # 2-color greedily per component; None if an odd cycle appears
    color = [None] * g.n
    for s in range(g.n):
        if color[s] is not None:
            continue
        color[s] = 0
        stack = [s]
        while stack:
            v = stack.pop()
            for u in g.neighbors(v):
                if color[u] is None:
                    color[u] = 1 - color[v]
                    stack.append(u)
                elif color[u] == color[v]:
                    return None
    return color


def test_parameter_laws_over_corpus():
    for name, h in corpus().items():
        rep = op.full_report(h)
        chi = rep.chi
        assert chi - 1 < rep.chi_cr <= chi, name
        assert (rep.chi_cr == chi) == op.every_optimal_coloring_equitable(h), name
        if rep.ce.is_finite and rep.ce.value >= 1:
            assert rep.ce.value <= chi - 2, name
        if _bipartite_parts(h) is not None:
            has_isolated = any(h.degree(v) == 0 for v in range(h.n))
            if has_isolated:
                assert rep.ce == ExtendedNat.finite(0), name
            else:
                assert rep.ce == ExtendedNat.infinite(), name
        assert rep.chi_ore == max(rep.chi_star, rep.chi_prime_ore), name
        # every standalone function agrees with its report field
        assert op.chromatic_number(h) == chi, name
        assert op.sigma(h) == rep.sigma, name
        assert op.colour_difference_set(h) == set(rep.d_set), name
        assert op.critical_chromatic_number(h) == rep.chi_cr, name
        assert op.hcf_chi(h) == rep.hcf_chi, name
        assert op.hcf_c(h) == rep.hcf_c, name
        assert op.hcf_is_one(h) == rep.hcf_is_one, name
        assert op.colour_extension_number(h) == (rep.ce, rep.witness_vertex), name
        assert op.chi_star(h) == rep.chi_star, name
        assert op.chi_prime_ore(h) == rep.chi_prime_ore, name
        assert op.chi_ore(h) == rep.chi_ore, name
        assert op.ore_threshold_coefficient(h) == rep.ore_coefficient, name


def test_full_report_invariant_under_relabel():
    graphs = dict(corpus())
    rng = random.Random(53)
    while len(graphs) < len(corpus()) + 40:
        g = op.random_graph(rng.randrange(2, 11), rng.random(), rng)
        if g.edge_count():
            graphs[f"random {op.to_graph6(g)}"] = g
    for name, h in graphs.items():
        perm = list(range(h.n))
        rng.shuffle(perm)
        want = op.full_report(h).to_json_dict()
        got = op.full_report(op.relabel(h, perm)).to_json_dict()
        # the witness is a vertex name, so only its presence is invariant
        assert (want.pop("witness_vertex") is None) == (got.pop("witness_vertex") is None), name
        assert got == want, name


def test_multipartite_class_sizes_drive_chi_cr():
    # complete multipartite graphs have a unique optimal coloring: the parts
    g, _ = op.complete_multipartite([2, 3, 3])
    assert op.sigma(g) == 2
    assert op.critical_chromatic_number(g) == Fraction(16, 6)
    assert len(op.optimal_colorings(g)) == 1


def test_strict_betweenness_achievable_in_apex_family():
    # with enough deleted cliques the packing threshold separates from both
    # the critical chromatic number and the chromatic number
    h = op.construct_hdiamond(3, 5, [4, 6, 7, 7, 7])
    rep = op.full_report(h)
    assert rep.chi_cr < rep.chi_ore < rep.chi
    assert rep.chi_ore == Fraction(23, 5)


def test_apex_family_chi_ore_equals_chi_cr_at_18_vertices():
    # 18 vertices: the apex must join the last class, giving the unique
    # optimal coloring 3, 4, 5, 6, so chi_cr = 3 * 18 / 15 = 18/5, which
    # exceeds chi - 2/(CE+2) = 7/2 and so is the value chi_ore takes.
    h = op.construct_hdiamond(2, 4, [3, 4, 5, 5])
    assert len(op.optimal_colorings(h)) == 1
    rep = op.full_report(h)
    assert rep.chi_cr == rep.chi_ore == Fraction(18, 5)
    assert rep.chi_prime_ore == Fraction(7, 2)
