import hashlib
import json
import os
import random
import subprocess
import sys
from collections import Counter
from functools import reduce
from pathlib import Path

import pytest

import orepack as op
from orepack import BudgetExhausted, PreconditionError, coloring, packing, parameters
from orepack.coloring import (
    DEFAULT_ENUMERATION_CAP,
    _color_search,
    _labelled_sums,
    _profile_search,
    _search_order,
)
from orepack.graphs import Meter, components, iter_bits

from fixtures import corpus, dense_g30, k4_minus, small_corpus
from oracles import (
    brute_chromatic_number,
    brute_optimal_partitions,
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
    with pytest.raises(BudgetExhausted):
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
    # the connected C15 has 5,461 optimal 3-colorings, one kernel visit each
    c15 = op.cycle_graph(15)
    with pytest.raises(BudgetExhausted, match="100"):
        op.class_size_profiles(c15, cap=100)
    with pytest.raises(BudgetExhausted):
        op.class_size_profiles(c15, cap=5_460)
    assert op.class_size_profiles(c15, cap=5_461)[:2] == _enumerated_profiles(c15)


def _pinned_searches(monkeypatch):
    """Record the components that ``class_size_profiles`` runs a pinned
    search on: the vertices of the call's order and the pinned vertex."""
    calls = []

    def counted(h, order, classes, total, visit):
        if classes:
            calls.append(frozenset(order) | frozenset(iter_bits(classes[0])))
        return _color_search(h, order, classes, total, visit)

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

    plain_color_search(g, [v for v in _search_order(g) if v in comp], [], r, visit)
    return count


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


def _outcome(search, h, cap, r):
    try:
        return search(h, cap, r)
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
        part = _search_order(g)
        for r in (chi, chi + 1):
            if len(components(g)) > 1 or coloring._tail(g.adj, part, r):
                continue
            count = _coloring_count(g, set(range(g.n)), r, 10_001)
            if g.n < count <= 10_000:
                cases.append((g, r, (count, count - 1)))
    return cases


def _branch_can_die(g, r):
    """Whether some vertex has r or more neighbours before it in the
    kernel's search order, so that the kernel may find no class for it."""
    order = _search_order(g)
    return any(sum(g.has_edge(u, v) for u in order[:i]) >= r for i, v in enumerate(order))


def test_profile_search_matches_the_search_before_bulk_counting(monkeypatch):
    # the profile search against the one that completed every coloring:
    # the same (parts, free, unchecked), or BudgetExhausted with the same
    # message, with chi and chi + 1 classes and caps of 20, 50 and 10^6,
    # on random graphs and on graphs with many pendant vertices, and on
    # tailless components past their window with caps at their coloring
    # count and one less; a bulk step on a component's meter shows that
    # the counting pass spent a tail in bulk, a second meter for a
    # component that it counted the component again
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
        cases += [(g, r, (20, 50, 10**6), False) for r in (chi, chi + 1)]
    tailless = [(*case, True) for case in _tailless_cases(random.Random(2525))]
    monkeypatch.setattr(coloring, "Meter", Watched)
    runs = counted = exhausted = recounted = kept = 0
    for g, r, caps, past in cases + tailless:
        for cap in caps:
            bulk.clear()
            meters.clear()
            want = _outcome(profile_search_before, g, cap, r)
            assert _outcome(_profile_search, g, cap, r) == want, (op.to_graph6(g), r, cap)
            runs += 1
            exhausted += isinstance(want, str)
            counted += bool(bulk)
            if past and cap > g.n:
                # past its window under the cap, a tailless component is
                # counted again when a branch of the kernel's search can
                # die, and keeps its single pass when none can (cycles)
                assert (len(meters) == 2) == _branch_can_die(g, r), (op.to_graph6(g), r, cap)
                recounted += len(meters) == 2
                kept += len(meters) == 1
    assert runs >= 1_000 and counted >= 50 and exhausted >= 50
    assert len(tailless) >= 12 and recounted >= 15 and kept >= 6


def _partitions_visited(search, *args, stop_at=None):
    """What one search returns, and the multiset of partitions it visits,
    each as the set of its class masks; the visit returns True at the
    ``stop_at``-th coloring."""
    seen = Counter()
    visits = 0

    def visit(classes):
        nonlocal visits
        seen[frozenset(classes)] += 1
        visits += 1
        return visits == stop_at

    return search(*args, visit), seen


def test_saturation_search_visits_each_coloring_once():
    # the counting pass's head search against the plain kernel: the same
    # multiset of partitions, each once, at chi and chi + 1 classes, over
    # the whole vertex set in search or random order and over the head
    # that a tail leaves, on random graphs and graphs with pendant leaves;
    # a visit that returns True stops it at that coloring
    rng = random.Random(2511)
    graphs = [op.random_graph(rng.randint(1, 11), rng.choice((0.15, 0.3, 0.5, 0.7, 0.9)), rng) for _ in range(70)]
    graphs += [_with_pendants(rng) for _ in range(30)]
    heads = stopped = 0
    for g in graphs:
        chi = op.chromatic_number(g)
        order = _search_order(g)
        for r in (chi, chi + 1):
            tail = coloring._tail(g.adj, order, r)
            head = [v for v in order if not tail >> v & 1]
            heads += head != order
            for part in (order, rng.sample(order, len(order)), head):
                done, want = _partitions_visited(plain_color_search, g, part, [], r)
                assert set(want.values()) <= {1} and not done
                got = _partitions_visited(coloring._saturation_search, g, part, r)
                assert got == (False, want), (op.to_graph6(g), r, part)
                if want:
                    k = rng.randint(1, len(want))
                    done, seen = _partitions_visited(coloring._saturation_search, g, part, r, stop_at=k)
                    assert done and sum(seen.values()) == k and seen.keys() <= want.keys()
                    stopped += 1
    assert heads >= 40 and stopped >= 600


def test_window_pass_stops_past_its_window(monkeypatch):
    # G(30,0.7)#2 has no tail and 4,102 optimal colorings: the kernel's
    # window pass completes |C| + 1 = 31 of them and the counting pass all
    # 4,102, most saturated vertex first
    g = dense_g30()
    visits = Counter()

    def wrapped(search):
        def run(*args):
            *rest, visit = args

            def counted(classes):
                visits[search.__name__] += 1
                return visit(classes)

            return search(*rest, counted)

        return run

    for name in ("_color_search", "_saturation_search"):
        monkeypatch.setattr(coloring, name, wrapped(getattr(coloring, name)))
    parts, _, unchecked = _profile_search(g, DEFAULT_ENUMERATION_CAP, 10)
    assert visits == {"_color_search": 31, "_saturation_search": 4_102}
    assert len(unchecked) == 1 and parts == [op.class_size_profiles(g)[1]]


def _kernel_run(kernel, h, order, classes, total, stop_at):
    """What one kernel call returns, and the classes at each of its
    visits; the visit returns True at the ``stop_at``-th completed
    coloring."""
    seen = []

    def visit(classes):
        seen.append(tuple(classes))
        return len(seen) == stop_at

    return kernel(h, order, list(classes), total, visit), seen


def test_kernel_visits_as_without_cuts():
    # the forward-checking kernel against the kernel that searches every
    # branch: the same visits in the same order, the same return value,
    # for class counts chi - 1 to chi + 2, for pinned classes shaped like
    # the colour extension search, and for a visit that stops the search
    # at the k-th coloring; a search past 300 colorings is stopped there
    rng = random.Random(151)
    stopped = pinned_runs = 0
    for _ in range(70):
        g = op.random_graph(rng.randint(1, 12), rng.choice((0.15, 0.3, 0.5, 0.7, 0.9)), rng)
        chi = op.chromatic_number(g)
        order = _search_order(g) if rng.random() < 0.5 else rng.sample(range(g.n), g.n)
        cases = [(order, [], total) for total in range(chi - 1, chi + 3)]
        # a coloring of N(x) pinned, then the other vertices placed
        for x in rng.sample(range(g.n), min(2, g.n)):
            inside = [v for v in order if g.adj[x] >> v & 1]
            outside = [v for v in order if not g.adj[x] >> v & 1]
            _, colorings = _kernel_run(plain_color_search, g, inside, [], max(chi - 2, 1), 300)
            for pinned in rng.sample(colorings, min(3, len(colorings))):
                cases += [(outside, pinned, total) for total in range(chi - 1, chi + 3)]
                pinned_runs += 1
        for part, classes, total in cases:
            want = _kernel_run(plain_color_search, g, part, classes, total, 300)
            assert _kernel_run(_color_search, g, part, classes, total, 300) == want
            if want[1]:
                k = rng.randint(1, len(want[1]))
                got = _kernel_run(_color_search, g, part, classes, total, k)
                assert got == (True, want[1][:k])
                stopped += 1
    assert stopped >= 400 and pinned_runs >= 80


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
    # the kernel reads one row per node, and rule 2 one per stuck vertex
    # it tries. These searches read 440, 4,821 and 1,934 rows; without
    # forward checking 145,860, 289,986 and 33,186; without rule 1,
    # 1,444, 4,821 and 2,467; without rule 2, 2,728, 17,402 and 2,604;
    # checking only after a new class opens, 440, 4,905 and 2,318. These
    # counts were taken with the colour extension search that tried each
    # m in turn; the one-pass search reads 1,177 and 1,249 rows in the last
    # two
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
