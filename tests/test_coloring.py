import hashlib
import json
import os
import random
import subprocess
import sys
from collections import Counter
from functools import reduce
from itertools import permutations, product
from pathlib import Path

import pytest

import orepack as op
from orepack import BudgetExhausted, PreconditionError, coloring, packing, parameters
from orepack.coloring import (
    DEFAULT_ENUMERATION_CAP,
    _color_search,
    _labelled_sums,
    _profile_search,
)
from orepack.graphs import Meter, components, iter_bits

from fixtures import corpus, dense_g30, k4_minus, pendant_triangle, small_corpus
from oracles import (
    brute_chromatic_number,
    brute_optimal_partitions,
    class_size_profiles_before,
    independent_set_partitions,
    plain_color_search,
    profile_search_before,
    profiles_checking_each_coloring,
)


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
    # unions of paths, cycles and random graphs, shuffled so that the
    # components interleave in the search order
    for _ in range(60):
        g = op.empty_graph(0)
        for _ in range(rng.randint(1, 8)):
            size = rng.randint(3, 7)
            part = rng.choice(
                [op.path_graph(size), op.cycle_graph(size), op.random_graph(size, rng.random(), rng)]
            )
            g = op.disjoint_union(g, part)
        perm = list(range(g.n))
        rng.shuffle(perm)
        g = op.relabel(g, perm)
        want = max(
            brute_chromatic_number(op.induced_subgraph(g, iter_bits(comp)))
            for comp in components(g)
        )
        assert op.chromatic_number(g) == max(1, want), op.to_graph6(g)


def test_chromatic_number_does_not_backtrack_across_components():
    # a search over the whole vertex order retries every coloring of the 40
    # paths for each failed 2-coloring of the 5-cycle and does not finish
    script = (
        "import orepack as op\n"
        "g = op.empty_graph(0)\n"
        "for _ in range(40):\n"
        "    g = op.disjoint_union(g, op.path_graph(3))\n"
        "print(op.chromatic_number(op.disjoint_union(g, op.cycle_graph(5))))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(op.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=30
    )
    assert (proc.returncode, proc.stdout) == (0, "3\n")


def test_clique_grows_by_degree_in_h():
    # the clique bound of the chromatic number, the profile search and the
    # colour extension search: within a vertex mask, take the vertex of highest degree in h, then the lowest label,
    # among those adjacent to all taken so far, as a plain loop over the
    # vertices by falling degree does; never more vertices than the
    # chromatic number of the subgraph
    rng = random.Random(3613)
    for _ in range(200):
        g = op.random_graph(rng.randrange(1, 12), rng.random(), rng)
        mask = rng.getrandbits(g.n)
        cand, clique = mask, 0
        for v in _by_degree(g):
            if cand >> v & 1:
                cand &= g.adj[v]
                clique |= 1 << v
        assert coloring._clique(g, mask) == clique
        assert clique.bit_count() <= brute_chromatic_number(op.induced_subgraph(g, iter_bits(mask)))


def test_chromatic_number_starts_at_the_clique_bound(monkeypatch):
    # k starts at the order of the clique that _clique grows in all of h
    # and rises only past a component with no k-coloring: the searches run
    # with that many classes first and with chi last, and on an edgeless
    # graph, where the clique is one vertex, each component takes one class
    totals = []
    search = coloring._color_search

    def counted(h, vertices, classes, total, visit, near):
        totals.append(total)
        return search(h, vertices, classes, total, visit, near)

    monkeypatch.setattr(coloring, "_color_search", counted)
    rng = random.Random(3623)
    for _ in range(100):
        g = op.random_graph(rng.randrange(1, 12), rng.random(), rng)
        totals.clear()
        chi = op.chromatic_number(g)
        assert totals[0] == coloring._clique(g, g.vertex_mask).bit_count()
        assert totals == sorted(totals) and totals[-1] == chi
    for n in (1, 5):
        totals.clear()
        assert op.chromatic_number(op.empty_graph(n)) == 1 and totals == [1] * n


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
    with pytest.raises(BudgetExhausted):
        op.optimal_colorings(g, cap=2)


def test_sigma_examples():
    assert op.full_report(k4_minus()).sigma == 1
    assert op.full_report(op.construct_fdiamond()).sigma == 2
    assert op.full_report(op.complete_graph(5)).sigma == 1
    with pytest.raises(PreconditionError):
        op.full_report(op.empty_graph(3))


def test_sigma_consistent_with_enumeration():
    for name, g in corpus().items():
        parts = op.optimal_colorings(g)
        assert op.full_report(g).sigma == min(p.sizes_sorted[0] for p in parts), name


def test_colour_difference_set_examples():
    assert set(op.full_report(op.complete_graph(3)).d_set) == {0}
    assert set(op.full_report(op.construct_fdiamond()).d_set) == {0, 1}
    assert set(op.full_report(op.cycle_graph(5)).d_set) == {0, 1}
    assert set(op.full_report(op.star_graph(3)).d_set) == {2}


def test_every_optimal_coloring_equitable():
    assert op.full_report(op.complete_graph(3)).d_set == (0,)
    assert op.full_report(k4_minus()).d_set != (0,)
    assert op.full_report(op.cycle_graph(6)).d_set == (0,)
    assert op.full_report(op.path_graph(3)).d_set != (0,)


def _random_union(rng, max_n):
    """A disjoint union of cliques, isolated vertices and random graphs,
    of order at most ``max_n``, with its vertices shuffled so that the
    components interleave."""
    g = op.empty_graph(0)
    while g.n < max_n and not (g.n and rng.random() < 0.3):
        size = rng.randint(1, min(max_n - g.n, 5))
        part = rng.choice(
            [op.complete_graph(size), op.empty_graph(size), op.random_graph(size, rng.random(), rng)]
        )
        g = op.disjoint_union(g, part)
    perm = list(range(g.n))
    rng.shuffle(perm)
    return op.relabel(g, perm)


def _enumerated_profiles(g, cap=DEFAULT_ENUMERATION_CAP):
    parts = op.optimal_colorings(g, cap=cap)
    return len(parts[0].classes), {p.sizes_sorted for p in parts}


def test_class_size_profiles_match_brute_force():
    graphs = dict(small_corpus(9))
    rng = random.Random(43)
    for i in range(40):
        g = op.random_graph(rng.randrange(1, 10), rng.random(), rng)
        graphs[f"random {i} {op.to_graph6(g)}"] = g
    for i in range(60):
        g = _random_union(rng, 8)
        graphs[f"union {i} {op.to_graph6(g)}"] = g
    for name, g in graphs.items():
        parts = brute_optimal_partitions(g)
        want = (len(parts[0]), {tuple(sorted(len(c) for c in p)) for p in parts})
        assert op.class_size_profiles(g)[:2] == want, name


def _merged_profiles(g, r):
    """The profiles of the colorings of g with at most r classes, merged
    from the per-component sets of the profile search."""
    return reduce(_labelled_sums, _profile_search(g, DEFAULT_ENUMERATION_CAP, r)[0])


def test_distinct_permutations_are_each_ordering_once():
    # sorted tuples of 0 to 5 entries from 0 to 2: every distinct
    # ordering, none twice, an all-equal tuple as its one ordering
    for k in range(6):
        for b in sorted({tuple(sorted(c)) for c in product(range(3), repeat=k)}):
            got = coloring._distinct_permutations(b)
            assert sorted(got) == sorted(set(permutations(b))) and len(got) == len(set(got)), b


def test_class_size_profiles_with_a_given_class_count():
    # the colorings with at most r classes, r from chi - 1 to chi + 3:
    # class_size_profiles at chi, the merged profile search at the others
    rng = random.Random(59)
    graphs = list(small_corpus(7).values()) + [_random_union(rng, 7) for _ in range(30)]
    for g in graphs:
        parts = independent_set_partitions(g)
        chi = min(map(len, parts))
        for r in range(chi - 1, chi + 4):
            want = {tuple(sorted([0] * (r - len(p)) + [len(c) for c in p])) for p in parts if len(p) <= r}
            if r == chi:
                assert op.class_size_profiles(g)[:2] == (r, want), op.to_graph6(g)
            else:
                assert _merged_profiles(g, r) == want, (op.to_graph6(g), r)


def test_class_size_profiles_match_enumeration():
    # unions whose optimal colorings multiply past a few thousand are left
    # to the brute-force test and to the ceiling test below
    rng = random.Random(47)
    checked = 0
    for _ in range(120):
        g = _random_union(rng, 14)
        try:
            want = _enumerated_profiles(g, cap=3_000)
        except BudgetExhausted:
            continue
        assert op.class_size_profiles(g)[:2] == want, op.to_graph6(g)
        checked += 1
    assert checked >= 80


def _report_digest_graphs():
    rng = random.Random(2009)
    graphs = []
    while len(graphs) < 300:
        if rng.random() < 0.5:
            g = op.random_graph(rng.randint(2, 12), rng.random(), rng)
        else:
            g = _random_union(rng, 10)
        if g.edge_count():
            graphs.append(g)
    return graphs


# sha256 over the parameter reports of seeded random graphs and unions,
# taken when the reports were computed from the enumerated optimal
# colorings
REPORT_DIGEST = "10783a4346e1c895ceece9e15555dfda01e7e63058e3371a66411a90cb4475d7"


def test_reports_match_pinned_digest():
    digest = hashlib.sha256()
    for g in _report_digest_graphs():
        report = json.dumps(op.full_report(g).to_json_dict())
        digest.update((op.to_graph6(g) + report + "\n").encode())
    assert digest.hexdigest() == REPORT_DIGEST


def _copies(g, k):
    out = op.empty_graph(0)
    for _ in range(k):
        out = op.disjoint_union(out, g)
    return out


def test_class_size_profiles_answer_where_enumeration_caps():
    k2, c5 = op.complete_graph(2), op.cycle_graph(5)
    cases = [
        (_copies(k2, 22), (2, {(22, 22)})),
        (_copies(c5, 4), (3, {(4, 8, 8), (5, 7, 8), (6, 6, 8), (6, 7, 7)})),
        (op.disjoint_union(_copies(c5, 3), k2), (3, {(3, 7, 7), (4, 6, 7), (5, 5, 7), (5, 6, 6)})),
    ]
    for g, want in cases:
        with pytest.raises(BudgetExhausted):
            op.optimal_colorings(g, cap=100)
        assert op.class_size_profiles(g, cap=100)[:2] == want


def test_class_size_profiles_cap_bounds_one_component():
    # 3 C5 has 5 optimal colorings per component, 15 in all: a cap of 5
    # bounds each component's search, so it answers
    c5x3 = _copies(op.cycle_graph(5), 3)
    assert op.class_size_profiles(c5x3, cap=5) == (3, {(3, 6, 6), (4, 5, 6), (5, 5, 5)}, 0)
    with pytest.raises(BudgetExhausted):
        op.class_size_profiles(c5x3, cap=4)


def test_empty_graph_has_no_colorings():
    for search in (op.class_size_profiles, op.optimal_colorings):
        with pytest.raises(PreconditionError, match="^chromatic number of the empty graph is undefined$"):
            search(op.empty_graph(0))


def test_class_size_profiles_cap_is_hard_error():
    # the connected C15 has 5,461 optimal 3-colorings, one search visit each
    c15 = op.cycle_graph(15)
    with pytest.raises(BudgetExhausted, match="100"):
        op.class_size_profiles(c15, cap=100)
    with pytest.raises(BudgetExhausted):
        op.class_size_profiles(c15, cap=5_460)
    assert op.class_size_profiles(c15, cap=5_461)[:2] == _enumerated_profiles(c15)


def _below_clique_bound(rng):
    """Relabelled graphs whose plane-clique bound is below chi: C5+K2,
    P3+C5, 3C5 and C5+C7+K2, five labellings each, and odd cycles of 5 to
    9 vertices beside G(n, 0.15) on 4 to 12 vertices, kept when the bound
    is below chi."""
    c5, k2 = op.cycle_graph(5), op.complete_graph(2)
    bases = [
        op.disjoint_union(c5, k2),
        op.disjoint_union(op.path_graph(3), c5),
        _copies(c5, 3),
        op.disjoint_union(op.disjoint_union(c5, op.cycle_graph(7)), k2),
    ]
    graphs = [op.relabel(g, rng.sample(range(g.n), g.n)) for g in bases for _ in range(5)]
    while len(graphs) < 60:
        g = op.random_graph(rng.randint(4, 12), 0.15, rng)
        for k in rng.sample((5, 7, 9), rng.randint(1, 2)):
            g = op.disjoint_union(g, op.cycle_graph(k))
        g = op.relabel(g, rng.sample(range(g.n), g.n))
        if coloring._clique(g, g.vertex_mask).bit_count() < op.chromatic_number(g):
            graphs.append(g)
    return graphs


def test_class_size_profiles_find_chi_in_their_own_search():
    # the profile search starts at the plane-clique bound and searches
    # again with one class more while a component has no coloring: the
    # same chi, profiles and lowest free vertex as chromatic_number
    # followed by one profile search at chi, on the corpus, edgeless
    # graphs and G(30,0.7)#2 (plane clique 8, chi 10), and on relabelled
    # graphs whose clique bound is below chi
    graphs = list(corpus().values()) + [op.empty_graph(1), op.empty_graph(3), dense_g30()]
    graphs += _below_clique_bound(random.Random(3838))
    below = 0
    for g in graphs:
        want = class_size_profiles_before(g)
        assert op.class_size_profiles(g) == want, op.to_graph6(g)
        below += coloring._clique(g, g.vertex_mask).bit_count() < want[0]
    assert below >= 61


def test_class_size_profiles_cap_as_before():
    # a component past the cap at some r below chi is past it at chi too,
    # so the cap raises where it did with chi found first, with the same
    # message: caps one below and at the count of C15 (5,461 colorings),
    # 3C5 (5 per component) and K3 with 12 pendant leaves (4,096, all
    # spent in one bulk step by the counting pass), also relabelled
    rng = random.Random(3839)
    cases = [(op.cycle_graph(15), 5_461), (_copies(op.cycle_graph(5), 3), 5), (pendant_triangle(12), 4_096)]
    cases += [(op.relabel(g, rng.sample(range(g.n), g.n)), count) for g, count in cases]
    for g, count in cases:
        for cap in (count - 1, count):
            want = _outcome(class_size_profiles_before, g, cap)
            assert _outcome(op.class_size_profiles, g, cap) == want, (op.to_graph6(g), cap)
            assert isinstance(want, str) == (cap < count)


def _pinned_searches(monkeypatch):
    """Record the components that ``class_size_profiles`` runs a pinned
    search on: the vertices of the call's mask and the pinned vertex."""
    calls = []

    def counted(h, vertices, classes, total, visit, near):
        if classes:
            calls.append(frozenset(iter_bits(vertices | classes[0])))
        return _color_search(h, vertices, classes, total, visit, near)

    monkeypatch.setattr(coloring, "_color_search", counted)
    return calls


def _coloring_count(g, comp, r, limit=None):
    """The colorings of the component ``comp`` with at most r classes, or
    ``limit`` if it has that many."""
    count = 0

    def visit(_):
        nonlocal count
        count += 1
        return count == limit

    plain_color_search(g, [v for v in _by_degree(g) if v in comp], [], r, visit)
    return count


def _by_degree(g):
    """The vertices by falling degree and then rising label: an order for
    the plain kernel, which takes its vertices as listed."""
    return sorted(range(g.n), key=lambda v: (-g.degree(v), v))


def _cycle_on_path_square(m, k):
    """The square of a path on m vertices, labelled from its far end, and a
    k-cycle through the path's last edge. For odd k the path square has
    one 3-coloring, in which none of its vertices is free, and the cycle
    has (2^k - 2)/6 3-colorings with that edge fixed."""
    n = m + k - 2
    edges = [(i, i + 1) for i in range(m - 1)] + [(i, i + 2) for i in range(m - 2)]
    cycle = [m - 2, m - 1, *range(m, n)]
    edges += [(cycle[i], cycle[i + 1]) for i in range(1, k - 1)] + [(cycle[-1], cycle[0])]
    return op.Graph.from_edges(n, edges)


def _few_free(rng):
    """A small ``_cycle_on_path_square``, at times beside a random graph of
    at most 3 vertices, with the path's vertices in random order below the
    others: its lowest vertices are not free."""
    m = rng.randint(3, 7)
    g = _cycle_on_path_square(m, rng.choice((5, 7, 9)))
    if rng.random() < 0.5:
        g = op.disjoint_union(g, op.random_graph(rng.randint(1, 3), rng.random(), rng))
    return op.relabel(g, rng.sample(range(m), m) + rng.sample(range(m, g.n), g.n - m))


def test_class_size_profiles_match_checking_each_coloring(monkeypatch):
    # free vertices decided by pinned searches on components with more
    # colorings than vertices, against checking every coloring, on random
    # graphs and unions and on hosts whose lowest vertices are not free; a
    # pinned search runs only on a component with more colorings than
    # vertices; the profiles with chi + 1 classes, merged from the profile
    # search, on the random graphs and unions
    calls = _pinned_searches(monkeypatch)
    rng = random.Random(1717)
    cases = [(op.random_graph(rng.randint(1, 10), rng.random(), rng), 1) for _ in range(120)]
    cases += [(_random_union(rng, 10), 1) for _ in range(80)]
    cases += [(_few_free(rng), 0) for _ in range(80)]
    frees = set()
    pinned_runs = 0
    for g, extra in cases:
        chi = op.chromatic_number(g)
        calls.clear()
        got = op.class_size_profiles(g)
        assert got == profiles_checking_each_coloring(g, chi), op.to_graph6(g)
        for comp in set(calls):
            assert _coloring_count(g, comp, chi) > len(comp), op.to_graph6(g)
        pinned_runs += bool(calls)
        frees.add(got[2])
        for r in range(chi + 1, chi + 1 + extra):
            want = profiles_checking_each_coloring(g, r)[1]
            assert _merged_profiles(g, r) == want, (op.to_graph6(g), r)
    assert pinned_runs >= 40 and None in frees and len(frees) >= 8


def test_pinned_searches_only_past_one_coloring_per_vertex(monkeypatch):
    # C5: 5 colorings of 128 vertices, each checked, no pinned search; C11:
    # 341 colorings, and one pinned search for each path vertex below the
    # lowest free vertex that the first 128 colorings leave, 119
    calls = _pinned_searches(monkeypatch)
    for k, colorings, pinned, witness in ((5, 5, 0, 125), (11, 341, 119, 119)):
        g = _cycle_on_path_square(130 - k, k)
        calls.clear()
        chi, profiles, free = op.class_size_profiles(g)
        assert (chi, free, len(calls)) == (3, witness, pinned)
        assert (chi, profiles, free) == profiles_checking_each_coloring(g, 3)
        assert _coloring_count(g, set(range(128)), 3) == colorings
        report = op.full_report(g)
        assert (report.ce.value, report.witness_vertex) == (0, witness)


def test_type_search_runs_no_pinned_search(monkeypatch):
    # the packing layer reads only the profiles, so a component with more
    # colorings than vertices costs it no pinned search; the parameter
    # layer runs them on the same component
    calls = _pinned_searches(monkeypatch)
    h = _cycle_on_path_square(3, 11)
    assert _coloring_count(h, set(range(h.n)), 3) == 341
    packing._types_refute((h.n,) * 3, h, Meter(10_000))
    assert calls == []
    assert op.class_size_profiles(h)[2] == 3 and calls


def _with_pendants(rng):
    """A random graph on 2-7 vertices with pendant leaves hung on it up to
    13 vertices, relabelled."""
    core = rng.randint(2, 7)
    g = op.random_graph(core, rng.choice((0.3, 0.5, 0.8)), rng)
    k = rng.randint(1, 13 - core)
    g = op.Graph.from_edges(core + k, [*g.edges(), *((rng.randrange(core), core + j) for j in range(k))])
    return op.relabel(g, rng.sample(range(g.n), g.n))


def _outcome(search, h, *args):
    try:
        return search(h, *args)
    except BudgetExhausted as exc:
        return str(exc)


def _tailless_cases(rng):
    """(graph, r, caps) for connected graphs whose one component has more
    colorings with at most r classes than vertices and no tail: seeded
    dense G(n, p) on 14-30 vertices with p from 0.5 to 0.8 and C9, C11
    and C13, at r = chi and chi + 1, and G(30,0.7)#2 at chi, with caps at
    the component's coloring count and one less. Pairs with more than
    10,000 colorings are left out, G(30,0.7)#2 at chi + 1 (2,240,759)
    among them: the search before bulk counting would take seconds. The
    cycles have a tail at chi + 1, so they come in at chi alone."""
    graphs = [dense_g30()] + [op.cycle_graph(k) for k in (9, 11, 13)]
    graphs += [op.random_graph(rng.randint(14, 30), rng.choice((0.5, 0.6, 0.7, 0.8)), rng) for _ in range(14)]
    cases = []
    for g in graphs:
        chi = op.chromatic_number(g)
        for r in (chi, chi + 1):
            if len(components(g)) > 1 or coloring._tail(g.adj, g.vertex_mask, r):
                continue
            count = _coloring_count(g, set(range(g.n)), r, 10_001)
            if g.n < count <= 10_000:
                cases.append((g, r, (count, count - 1)))
    return cases


def test_profile_search_matches_the_search_before_bulk_counting(monkeypatch):
    # the profile search against the one that completed every coloring in
    # a fixed order: the same profiles and components past their window,
    # or BudgetExhausted with the same message, with chi and chi + 1
    # classes and caps of 20, 50 and 10^6, on random graphs and on graphs
    # with many pendant vertices, and on tailless components past their
    # window with caps at their coloring count and one less. At chi, the
    # lowest free vertex of class_size_profiles against checking every
    # coloring: the window's own bound depends on the order of the visits.
    # A bulk step on a component's meter shows that a counting pass spent
    # colorings in bulk. A component gets a second meter exactly when it is
    # past its window, whether or not it has a tail: the tail pass counts
    # the ones with a tail (tailed), the lean pass the ones without (lean)
    bulk = []
    meters = []

    class Watched(Meter):
        __slots__ = ()

        def __init__(self, limit=None):
            meters.append(limit)
            super().__init__(limit)

        def spend(self, steps=1):
            if steps > 1:
                bulk.append(steps)
            super().spend(steps)

    rng = random.Random(2207)
    ps = (0.1, 0.15, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.85)
    graphs = [op.random_graph(rng.randint(1, 13), rng.choice(ps), rng) for _ in range(150)]
    graphs += [_with_pendants(rng) for _ in range(60)]
    cases = []
    for g in graphs:
        chi = op.chromatic_number(g)
        cases += [(g, r, (20, 50, 10**6)) for r in (chi, chi + 1)]
    tailless = _tailless_cases(random.Random(2525))
    monkeypatch.setattr(coloring, "Meter", Watched)
    runs = counted = exhausted = tailed = lean = frees = 0
    for g, r, caps in cases + tailless:
        truth = None
        for cap in caps:
            bulk.clear()
            meters.clear()
            want = _outcome(profile_search_before, g, cap, r)
            got = _outcome(_profile_search, g, cap, r)
            runs += 1
            if isinstance(want, str):
                assert got == want, (op.to_graph6(g), r, cap)
                exhausted += 1
                continue
            past = [sum(1 << v for v in part) for part in want[2]]
            assert (got[0], got[2]) == (want[0], past), (op.to_graph6(g), r, cap)
            assert len(meters) == len(components(g)) + len(past), (op.to_graph6(g), r, cap)
            tails = sum(bool(coloring._tail(g.adj, comp, r)) for comp in past)
            tailed += tails
            lean += len(past) - tails
            counted += bool(bulk)
            if r == op.chromatic_number(g):
                truth = truth or profiles_checking_each_coloring(g, r)
                assert op.class_size_profiles(g, cap) == truth, (op.to_graph6(g), cap)
                frees += 1
    assert runs >= 1_000 and counted >= 50 and exhausted >= 50 and frees >= 300
    assert len(tailless) >= 12 and tailed >= 15 and lean >= 6


def _neighbour_masks(g, classes):
    return [reduce(lambda a, v: a | g.adj[v], iter_bits(c), 0) for c in classes]


def _kernel(g, vertices, classes, total, visit):
    """``_color_search`` handed the neighbour masks of the classes pinned."""
    return _color_search(g, vertices, classes, total, visit, _neighbour_masks(g, classes))


def _partitions_visited(search, g, vertices, pinned, total, stop_at=None):
    """What one search returns, and the multiset of colorings it visits,
    each as its pinned classes in order and the set of the classes it
    opened; the visit returns True at the ``stop_at``-th coloring."""
    seen = Counter()
    visits = 0

    def visit(classes):
        nonlocal visits
        seen[tuple(classes[: len(pinned)]), frozenset(classes[len(pinned):])] += 1
        visits += 1
        return visits == stop_at

    return search(g, vertices, list(pinned), total, visit), seen


def _visit_graphs(rng):
    """Random graphs on 1 to 12 vertices and graphs with pendant leaves."""
    graphs = [op.random_graph(rng.randint(1, 12), rng.choice((0.15, 0.3, 0.5, 0.7, 0.9)), rng) for _ in range(100)]
    return graphs + [_with_pendants(rng) for _ in range(30)]


def _compare_with_plain(g, cases, rng, digest):
    """Check each (part, pinned, total) of ``cases`` against the plain
    fixed-order kernel: the same multiset of colorings, each once, and a
    visit that returns True stops the search at that coloring. Searches
    past 3,000 colorings are left out. The kernel's visits and answers go
    to ``digest`` in order. Returns how many cases were compared and how
    many were stopped."""
    compared = stopped = 0
    kernel = _digested(digest)
    for part, pinned, total in cases:
        done, want = _partitions_visited(plain_color_search, g, list(iter_bits(part)), pinned, total, stop_at=3_001)
        if done:
            continue
        assert set(want.values()) <= {1}
        got = _partitions_visited(kernel, g, part, pinned, total)
        assert got == (False, want), (op.to_graph6(g), part, pinned, total)
        compared += 1
        if want:
            k = rng.randint(1, len(want))
            done, seen = _partitions_visited(kernel, g, part, pinned, total, stop_at=k)
            assert done and set(seen.values()) == {1} and len(seen) == k and seen.keys() <= want.keys()
            stopped += 1
    return compared, stopped


def _digested(digest):
    """``_kernel`` feeding ``digest`` each coloring it visits, as the list
    of class masks, in visit order, and then its answer: the multisets
    that the visit tests compare leave the order free, the digest pins it."""

    def search(g, vertices, classes, total, visit):
        def seen(classes):
            digest.update(b"%r\n" % classes)
            return visit(classes)

        done = _kernel(g, vertices, classes, total, seen)
        digest.update(b"stop\n" if done else b"end\n")
        return done

    return search


def _small_parts(mask, rng):
    """The empty mask and a mask of one and of two random vertices of
    ``mask``, where it has them: inputs that the search completes at its
    entry, in one node, or in two."""
    vertices = list(iter_bits(mask))
    return [0] + [sum(1 << v for v in rng.sample(vertices, k)) for k in (1, 2) if k <= len(vertices)]


# sha256 over the colorings that the one colouring search visits, in
# order, and its answers (``_digested``), on the cases of the two visit
# tests below: no output reads the order, so only these digests show a
# change to the search that reorders its visits
VISIT_ORDER_DIGEST = "d79bc80d62f7ae8b103b90b879951cad45b5bac2d710fd48ea23609318e0d9d6"
PINNED_VISIT_ORDER_DIGEST = "5e81cef7693dd602be96e0cf0b0da70166834df1940a96e1b8d42aaa1c2a7dc2"


def test_saturation_search_visits_each_coloring_once():
    # the one colouring search against the plain fixed-order kernel, with
    # no class pinned: the same multiset of colorings, each once, for class
    # counts chi - 1 to chi + 2, over the vertex set, a random vertex
    # subset, the vertices outside a random vertex's neighbourhood, the
    # head that a tail leaves, and masks of 0, 1 and 2 vertices, drawn
    # from a second generator; a visit that returns True stops the search
    # at that coloring, and the visits, in order, match a pinned digest
    rng = random.Random(2511)
    tiny = random.Random(2512)
    compared = heads = stopped = small = 0
    digest = hashlib.sha256()
    for g in _visit_graphs(rng):
        chi = op.chromatic_number(g)
        cases = []
        for total in range(chi - 1, chi + 3):
            outside = g.vertex_mask ^ g.adj[rng.randrange(g.n)]
            cases += [(part, [], total) for part in (g.vertex_mask, rng.getrandbits(g.n), outside)]
            tail = coloring._tail(g.adj, g.vertex_mask, total)
            if tail:
                cases.append((g.vertex_mask ^ tail, [], total))
                heads += 1
        runs = _compare_with_plain(g, cases, rng, digest)
        compared += runs[0]
        stopped += runs[1]
        parts = _small_parts(g.vertex_mask, tiny)
        small += _compare_with_plain(g, [(part, [], total) for part in parts for total in range(chi - 1, chi + 3)], tiny, digest)[0]
    assert compared >= 1_500 and heads >= 40 and stopped >= 1_000 and small >= 1_500
    assert digest.hexdigest() == VISIT_ORDER_DIGEST


def test_kernel_visits_as_without_cuts():
    # the one colouring search, which ends a branch when a vertex has no
    # class left, against the plain kernel that searches every branch, with
    # classes pinned: the same multiset of colorings, each once, for a
    # coloring of N(x) pinned and the other vertices placed, as in the
    # colour extension search, at class counts chi - 1 to chi + 2, and for
    # x's class pinned twice over the rest of x's component, as in the
    # free-vertex search, each also over masks of 0, 1 and 2 of those
    # vertices, drawn from a second generator; a visit that returns True
    # stops the search at that coloring, and the visits, in order, match a
    # pinned digest
    rng = random.Random(151)
    tiny = random.Random(152)
    compared = pinned_runs = twins = stopped = small = 0
    digest = hashlib.sha256()
    for g in _visit_graphs(rng):
        chi = op.chromatic_number(g)
        order = _by_degree(g)
        cases = []
        smalls = []
        # a coloring of N(x) pinned, then the other vertices placed
        for x in rng.sample(range(g.n), min(2, g.n)):
            inside = [v for v in order if g.adj[x] >> v & 1]
            outside = g.vertex_mask ^ g.adj[x]
            colorings = []

            def keep(classes):
                colorings.append(list(classes))
                return len(colorings) == 300

            plain_color_search(g, inside, [], max(chi - 2, 1), keep)
            for pinned in rng.sample(colorings, min(3, len(colorings))):
                cases += [(outside, pinned, total) for total in range(chi - 1, chi + 3)]
                pinned_runs += 1
                smalls += [(part, pinned, total) for part in _small_parts(outside, tiny) for total in range(chi - 1, chi + 3)]
        # x's class and a closed twin of it pinned, as the free-vertex search does
        for x in rng.sample(range(g.n), min(2, g.n)):
            comp = next(c for c in components(g) if c >> x & 1)
            cases.append((comp ^ 1 << x, [1 << x, 1 << x], chi))
            twins += 1
            smalls += [(part, [1 << x, 1 << x], chi) for part in _small_parts(comp ^ 1 << x, tiny)]
        runs = _compare_with_plain(g, cases, rng, digest)
        compared += runs[0]
        stopped += runs[1]
        small += _compare_with_plain(g, smalls, tiny, digest)[0]
    assert compared >= 700 and pinned_runs >= 80 and twins >= 200 and stopped >= 400 and small >= 2_000
    assert digest.hexdigest() == PINNED_VISIT_ORDER_DIGEST


def test_kernel_keeps_the_neighbour_masks_it_is_given():
    # every caller hands the search the neighbour masks of the classes it
    # pins, and the colour extension search reads them back at each visit:
    # at each visit they are the masks of the classes visited, also after
    # a visit that stops the search, and after the whole search they are
    # the pinned classes' again; a stopped search has visited the first
    # colorings of the whole one. The cases: N(x) with chi - 2 classes, as
    # the eligibility search colours it, the whole vertex set, and the
    # rest of h with a coloring of N(x) pinned, as the extension search
    # colours it
    rng = random.Random(3611)
    runs = kept = 0
    for g in _visit_graphs(rng):
        chi = op.chromatic_number(g)
        x = rng.randrange(g.n)
        colorings = []
        _color_search(g, g.adj[x], [], max(chi - 2, 1), lambda c: colorings.append(list(c)) or len(colorings) == 3, [])
        cases = [(g.adj[x], [], max(chi - 2, 1)), (g.vertex_mask, [], chi)]
        cases += [(g.vertex_mask ^ g.adj[x], pinned, total) for pinned in colorings for total in (chi, chi + 1)]
        for vertices, pinned, total in cases:
            whole = []
            near = _neighbour_masks(g, pinned)

            def visit_all(classes):
                whole.append(list(classes))
                assert near == _neighbour_masks(g, classes)
                return len(whole) == 500

            if not _color_search(g, vertices, list(pinned), total, visit_all, near):
                assert near == _neighbour_masks(g, pinned)
            stop_at = rng.randint(1, len(whole)) if whole else None
            seen = []
            near = _neighbour_masks(g, pinned)

            def visit(classes):
                seen.append(list(classes))
                assert near == _neighbour_masks(g, classes)
                return len(seen) == stop_at

            done = _color_search(g, vertices, list(pinned), total, visit, near)
            assert seen == whole[: len(seen)] and done == bool(whole)
            if whole:
                assert near == _neighbour_masks(g, seen[-1])
                kept += 1
            runs += 1
    assert runs >= 400 and kept >= 350


# sha256 over the meter steps of each counting pass of the test below,
# in order, which follow the order of the pass's leaves
COUNT_STEPS_DIGEST = "73c12e2fbbe6fe46b76d231eb27f631baeab98ef9a5b5168e6e9a8931fbe8348"


def test_counting_pass_counts_as_the_plain_kernel(monkeypatch):
    # the counting pass against the plain kernel on every component of
    # seeded graphs of up to 13 vertices, p from 0.2 to 0.8, at r = chi,
    # chi + 1 and chi + 2: the same set of sorted class sizes, padded with
    # zeros to r, and one meter step per coloring, spent in fewer steps
    # than colorings on the components with many. Both leaves are taken:
    # components with a tail (tailed), some of whose head colorings leave
    # the tail to a second walk (nested), and components without one; the
    # steps of every pass, in order, match a pinned digest
    walks = []
    walk = coloring._walk

    def counted(*args):
        walks.append(1)
        return walk(*args)

    monkeypatch.setattr(coloring, "_walk", counted)
    rng = random.Random(4646)
    runs = bulk = tailed = nested = 0
    digest = hashlib.sha256()
    for _ in range(300):
        g = op.random_graph(rng.randint(1, 13), rng.uniform(0.2, 0.8), rng)
        chi = op.chromatic_number(g)
        for r in (chi, chi + 1, chi + 2):
            for comp in components(g):
                visited = []

                def visit(classes):
                    visited.append(tuple(sorted([m.bit_count() for m in classes] + [0] * (r - len(classes)))))
                    return False

                plain_color_search(g, list(iter_bits(comp)), [], r, visit)
                meter = _StepMeter()
                walks.clear()
                got = coloring._counted_sizes(g, comp, r, meter)
                assert {tuple(sorted(s)) for s in got} == set(visited), (op.to_graph6(g), r, comp)
                assert meter.nodes == len(visited), (op.to_graph6(g), r, comp)
                digest.update(b"%r\n" % meter.steps)
                runs += 1
                bulk += len(meter.steps) < len(visited)
                tailed += bool(coloring._tail(g.adj, comp, r))
                nested += len(walks) > 1
    assert runs >= 1_100 and bulk >= 600
    assert tailed >= 900 and nested >= 650 and runs - tailed >= 200
    assert digest.hexdigest() == COUNT_STEPS_DIGEST


class _StepMeter(Meter):
    """A meter that keeps the steps of each ``spend`` call."""

    __slots__ = ("steps",)

    def __init__(self, limit=None):
        super().__init__(limit)
        self.steps = []

    def spend(self, steps=1):
        self.steps.append(steps)
        super().spend(steps)


def test_tailless_component_stops_its_window_and_is_counted_in_bulk(monkeypatch):
    # G(30,0.7)#2 has no tail and 4,102 optimal colorings: the window pass
    # is the one colouring search, and it visits 31, checks the first 30
    # and stops; the counting pass then spends all 4,102 on a second meter
    # of the same cap, in bulk steps, without a colouring search of its own
    g = dense_g30()
    want = op.class_size_profiles(g)[1]
    searches = []
    meters = []
    search = coloring._color_search

    def tallied(h, vertices, classes, total, visit, near):
        seen = []
        searches.append(seen)

        def counted(classes):
            seen.append(1)
            return visit(classes)

        return search(h, vertices, classes, total, counted, near)

    class Watched(_StepMeter):
        __slots__ = ()

        def __init__(self, limit=None):
            super().__init__(limit)
            meters.append(self)

    monkeypatch.setattr(coloring, "_color_search", tallied)
    monkeypatch.setattr(coloring, "Meter", Watched)
    parts, _, unchecked = _profile_search(g, DEFAULT_ENUMERATION_CAP, 10)
    assert list(map(len, searches)) == [31]
    assert [(m.limit, m.nodes) for m in meters] == [(DEFAULT_ENUMERATION_CAP, 31), (DEFAULT_ENUMERATION_CAP, 4_102)]
    assert meters[0].steps == [1] * 31 and 3 * len(meters[1].steps) < 4_102
    assert unchecked == [g.vertex_mask] and parts == [want]


class _CountedRows(tuple):
    """Adjacency rows that count how often a row is read."""

    reads = 0

    def __getitem__(self, v):
        _CountedRows.reads += 1
        return tuple.__getitem__(self, v)


def _row_reads(g, search):
    """The adjacency rows ``search`` reads from a copy of g, and its answer."""
    g = op.Graph(g.n, g.adj)
    object.__setattr__(g, "adj", _CountedRows(g.adj))
    _CountedRows.reads = 0
    answer = search(g)
    return _CountedRows.reads, answer


def test_kernel_cuts_dead_branches():
    # the search reads one row per node, and one per vertex of each class
    # pinned at its start. Taking the most saturated vertex next, these
    # searches read 311, 554 and 546 rows. The search that took the
    # vertices in a fixed degree order read 440, 1,177 and 1,249 rows with
    # its two forward-checking cuts, and 145,860, 289,986 and 33,186
    # without them (the last two with the colour extension search that
    # tried each m in turn)
    fd5 = op.blow_up(op.construct_fdiamond(), 5)
    reads, (chi, profiles, free) = _row_reads(fd5, op.class_size_profiles)
    assert (chi, profiles, free) == (3, {(10, 10, 15)}, None)
    assert reads <= 470
    hd = op.construct_hdiamond(5, 7, [6] * 7)
    reads, (ce, witness) = _row_reads(hd, parameters.colour_extension_number)
    assert (ce.value, witness) == (5, 42)
    assert reads <= 5_000
    dense = op.random_graph(24, 0.7, random.Random(24_000))
    reads, report = _row_reads(dense, op.full_report)
    assert (report.ce.value, report.witness_vertex) == (1, 2)
    assert reads <= 2_050
