import hashlib
import inspect
import json
import random
from collections import Counter
from itertools import combinations, islice, product

import pytest

import orepack as op
from orepack import BudgetExhausted, Embedding, PreconditionError, Verdict, packing
from orepack.graphs import Meter

from oracles import (
    copies_before,
    cover_search_before,
    has_perfect_matching,
    max_matching_size,
    naive_copy_covering,
    naive_has_perfect_packing,
    packing_search_before,
    verify_packing_before,
)


K2 = op.complete_graph(2)
K3 = op.complete_graph(3)


def test_enumerate_copies_counts():
    embs = list(op.enumerate_copies(op.complete_graph(4), K3))
    assert len(embs) == 24  # 4 images x |Aut(K3)| = 6 labelings
    assert len({e.image() for e in embs}) == 4
    assert list(op.enumerate_copies(op.cycle_graph(5), K3)) == []
    # the empty graph has one embedding, the empty map
    assert list(op.enumerate_copies(K3, op.empty_graph(0))) == [Embedding(())]


def test_enumerate_copies_validity():
    g = op.cycle_graph(6)
    h = op.path_graph(3)
    for emb in op.enumerate_copies(g, h):
        assert len(set(emb.mapping)) == h.n
        for u, v in h.edges():
            assert g.has_edge(emb.mapping[u], emb.mapping[v])


def test_enumerate_copies_anchor():
    star = op.star_graph(3)
    embs = list(op.enumerate_copies(star, K2, anchor=0))
    assert len(embs) == 6
    assert len({e.image() for e in embs}) == 3
    assert all(0 in e.image() for e in embs)
    with pytest.raises(PreconditionError):
        list(op.enumerate_copies(star, K2, anchor=9))
    # the empty map's image is empty, so no copy of the empty graph holds
    # the anchor
    assert list(op.enumerate_copies(K3, op.empty_graph(0), anchor=1)) == []


def test_enumerate_copies_oversized_h_is_empty():
    assert list(op.enumerate_copies(K2, K3)) == []


def test_enumerate_disconnected_h():
    h = op.disjoint_union(K2, K2)
    g = op.cycle_graph(4)
    images = {e.image() for e in op.enumerate_copies(g, h)}
    # two disjoint edges in C4: the two opposite pairs
    assert images == {frozenset({0, 1, 2, 3})}
    assert all(len(set(e.mapping)) == 4 for e in op.enumerate_copies(g, h))


def test_copy_covering_vertex_examples():
    inst = op.construct_prop1(3, 9)
    res = op.copy_covering_vertex(inst.graph, K3, inst.w)
    assert res.verdict is Verdict.NO
    res2 = op.copy_covering_vertex(op.complete_graph(4), K3, 2)
    assert res2.verdict is Verdict.YES
    assert 2 in res2.embedding.image()
    with pytest.raises(PreconditionError):
        op.copy_covering_vertex(K3, K2, 5)


def test_copy_covering_budget_unknown():
    inst = op.construct_prop2(3, 1, 7, 7)
    fd = op.construct_fdiamond()
    full = op.copy_covering_vertex(inst.graph, fd, inst.w)
    assert full.verdict is Verdict.NO
    for budget in range(full.nodes):
        res = op.copy_covering_vertex(inst.graph, fd, inst.w, budget=budget)
        assert res.verdict is Verdict.UNKNOWN
        assert res.nodes > budget
    assert op.copy_covering_vertex(inst.graph, fd, inst.w, budget=full.nodes).verdict is Verdict.NO


def test_anchor_placements_are_metered():
    # each K1 copy is one anchor placement and nothing else
    g = op.empty_graph(128)
    res = op.has_perfect_packing(g, op.complete_graph(1))
    assert res.verdict is Verdict.YES and res.nodes == 128
    res = op.has_perfect_packing(g, op.complete_graph(1), budget=10)
    assert res.verdict is Verdict.UNKNOWN


def test_anchored_completeness_small():
    rng = random.Random(17)
    for _ in range(40):
        g = op.random_graph(rng.randrange(3, 8), rng.random(), rng)
        h = op.path_graph(3)
        for w in range(g.n):
            res = op.copy_covering_vertex(g, h, w)
            found = any(
                w in e.image() for e in op.enumerate_copies(g, h)
            )
            assert (res.verdict is Verdict.YES) == found
            assert (res.verdict is Verdict.NO) == (not found)
            assert (res.verdict is Verdict.YES) == naive_copy_covering(g, h, w)


def test_has_perfect_packing_examples():
    assert op.has_perfect_packing(op.cycle_graph(4), K2).verdict is Verdict.YES
    assert op.has_perfect_packing(op.star_graph(3), K2).verdict is Verdict.NO
    k222, _ = op.complete_multipartite([2, 2, 2])
    assert op.has_perfect_packing(k222, K3).verdict is Verdict.YES
    assert op.has_perfect_packing(op.cycle_graph(6), K3).verdict is Verdict.NO
    # indivisible order short-circuits to NO
    res = op.has_perfect_packing(op.cycle_graph(5), K2)
    assert res.verdict is Verdict.NO and res.nodes == 0
    with pytest.raises(PreconditionError):
        op.has_perfect_packing(K3, op.empty_graph(0))


def test_packing_empty_host():
    res = op.has_perfect_packing(op.empty_graph(0), K2)
    assert res.verdict is Verdict.YES
    assert res.certificate == ()
    assert op.verify_packing(op.empty_graph(0), K2, [])


def test_packing_certificates_verify():
    rng = random.Random(23)
    for _ in range(60):
        n = rng.choice([4, 6, 8])
        g = op.random_graph(n, rng.random(), rng)
        res = op.has_perfect_packing(g, K2)
        if res.verdict is Verdict.YES:
            assert op.verify_packing(g, K2, res.certificate)


def test_verify_packing_rejects_bad_certificates():
    c4 = op.cycle_graph(4)
    good = (Embedding((0, 1)), Embedding((2, 3)))
    assert op.verify_packing(c4, K2, good)
    overlapping = (Embedding((0, 1)), Embedding((1, 2)))
    assert not op.verify_packing(c4, K2, overlapping)
    incomplete = (Embedding((0, 1)),)
    assert not op.verify_packing(c4, K2, incomplete)
    non_edge = (Embedding((0, 2)), Embedding((1, 3)))
    assert not op.verify_packing(c4, K2, non_edge)
    wrong_arity = (Embedding((0,)), Embedding((1, 2)), Embedding((3,)))
    assert not op.verify_packing(c4, K2, wrong_arity)


def _corrupted(g, cert, rng):
    """(kind, certificate) pairs from a valid certificate: itself, and
    copies of it with two copies overlapping, one copy left out, one copy
    twice, a vertex out of range, a mapping not injective, and two copies
    trading a vertex,
    which keeps the images disjoint and covering but may map an edge of h
    onto a non-edge."""
    maps = [list(e.mapping) for e in cert]
    i, j = rng.sample(range(len(maps)), 2)
    a, b = rng.randrange(len(maps[i])), rng.randrange(len(maps[j]))
    overlapping = [list(m) for m in maps]
    overlapping[i][a] = maps[j][b]
    out_of_range = [list(m) for m in maps]
    out_of_range[i][a] = g.n + rng.randrange(3)
    traded = [list(m) for m in maps]
    traded[i][a], traded[j][b] = maps[j][b], maps[i][a]
    cases = [("good", maps), ("overlapping", overlapping), ("not covering", maps[:-1])]
    cases.append(("copy twice", maps + [maps[i]]))
    cases += [("out of range", out_of_range), ("traded", traded)]
    if len(maps[i]) > 1:
        c = (a + 1) % len(maps[i])
        repeated = [list(m) for m in maps]
        repeated[i][c] = maps[i][a]
        cases.append(("not injective", repeated))
    return [(kind, [Embedding(tuple(m)) for m in c]) for kind, c in cases]


def test_verify_packing_agrees_with_checking_copy_by_copy():
    # verify_packing checks the images of all copies together; the check
    # copy by copy gives the same answer on the certificates the search
    # finds and on corrupted copies of them
    rng = random.Random(3840)
    hs = [K2, op.complete_graph(3), op.path_graph(3), op.cycle_graph(4)]
    answers = Counter()
    while answers["traded", False] < 40:
        h = rng.choice(hs)
        g = op.random_graph(h.n * rng.randint(2, 5), rng.choice((0.5, 0.7, 0.9)), rng)
        res = op.has_perfect_packing(g, h)
        if res.verdict is not Verdict.YES:
            continue
        for kind, cert in _corrupted(g, res.certificate, rng):
            got = op.verify_packing(g, h, cert)
            assert got == verify_packing_before(g, h, cert), (op.to_graph6(g), op.to_graph6(h), kind)
            answers[kind, got] += 1
    assert answers["good", False] == 0 and answers["traded", True] >= 10
    for kind in ("overlapping", "not covering", "copy twice", "out of range", "not injective"):
        assert answers[kind, True] == 0 and answers[kind, False] >= 40, kind
    # a vertex below 0 is out of range too
    assert not op.verify_packing(op.cycle_graph(4), K2, (Embedding((0, 1)), Embedding((-1, 3))))


def test_embedding_json_keys_are_h_vertices():
    for n in (0, 1, 7, op.MAX_VERTICES):
        mapping = tuple(range(n, 0, -1))
        assert Embedding(mapping).to_json() == {str(i): v for i, v in enumerate(mapping)}


def test_matching_oracle_agreement():
    rng = random.Random(4)
    for _ in range(400):
        n = rng.randrange(2, 11)
        g = op.random_graph(n, rng.random(), rng)
        mine = op.has_perfect_packing(g, K2).verdict
        assert (mine is Verdict.YES) == has_perfect_matching(g)


def test_matching_oracle_against_networkx():
    nx = pytest.importorskip("networkx")
    rng = random.Random(77)
    for _ in range(200):
        n = rng.randrange(1, 12)
        g = op.random_graph(n, rng.random(), rng)
        G = nx.Graph()
        G.add_nodes_from(range(n))
        G.add_edges_from(g.edges())
        ref = len(nx.max_weight_matching(G, maxcardinality=True))
        assert max_matching_size(g) == ref


def _structured_hosts():
    """K_a + K_b and complete multipartite hosts of order at most 12. Their
    twin vertices lead the packing search to one uncovered set along many
    paths, so the failed-set memo cuts branches here."""
    for a in range(1, 7):
        for b in range(a, 13 - a):
            yield op.disjoint_union(op.complete_graph(a), op.complete_graph(b))
    for sizes in (
        [2, 2], [3, 5], [4, 4], [5, 7], [1, 2, 3], [2, 2, 2], [2, 3, 4], [3, 4, 5],
        [1, 1, 4], [2, 2, 5], [3, 3, 3], [2, 2, 2, 2], [1, 2, 3, 4], [3, 3, 3, 3],
    ):
        yield op.complete_multipartite(sizes)[0]


def test_packing_agrees_with_naive_oracle():
    rng = random.Random(8)
    hs = [K2, K3, op.path_graph(3), op.star_graph(2)]
    for _ in range(80):
        h = rng.choice(hs)
        n = h.n * rng.choice([1, 2, 3])
        if n > 9:
            continue
        g = op.random_graph(n, rng.random(), rng)
        res = op.has_perfect_packing(g, h)
        assert (res.verdict is Verdict.YES) == naive_has_perfect_packing(g, h)
    for g in _structured_hosts():
        for h in (K2, K3, op.path_graph(3), op.cycle_graph(4), op.star_graph(3)):
            if g.n % h.n == 0:
                res = op.has_perfect_packing(g, h)
                assert (res.verdict is Verdict.YES) == naive_has_perfect_packing(g, h)
                if res.verdict is Verdict.YES:
                    assert op.verify_packing(g, h, res.certificate)


def test_isomorphism_invariance_of_verdict():
    rng = random.Random(15)
    for _ in range(40):
        n = 6
        g = op.random_graph(n, rng.random(), rng)
        perm = list(range(n))
        rng.shuffle(perm)
        permuted = op.relabel(g, perm)
        for h in (K2, K3):
            assert (
                op.has_perfect_packing(g, h).verdict
                is op.has_perfect_packing(permuted, h).verdict
            )


def test_budget_never_produces_definite_answers():
    # a search cut off by budget must report UNKNOWN, not NO
    inst = op.construct_prop2(3, 1, 7, 7)
    fd = op.construct_fdiamond()
    full = op.copy_covering_vertex(inst.graph, fd, inst.w)
    assert full.verdict is Verdict.NO
    tiny = op.copy_covering_vertex(inst.graph, fd, inst.w, budget=full.nodes - 1)
    assert tiny.verdict is Verdict.UNKNOWN
    # a packing search cut off at any node reports UNKNOWN, however many
    # uncovered sets it has refuted by then
    g, _ = op.complete_multipartite([3, 4, 5])
    full = op.has_perfect_packing(g, K3)
    assert full.verdict is Verdict.NO
    for budget in range(full.nodes):
        assert op.has_perfect_packing(g, K3, budget).verdict is Verdict.UNKNOWN
    assert op.has_perfect_packing(g, K3, full.nodes).verdict is Verdict.NO


def test_negative_budget_is_rejected():
    with pytest.raises(PreconditionError, match="at least 0, got -1"):
        op.has_perfect_packing(op.complete_graph(6), op.complete_graph(3), budget=-1)
    with pytest.raises(PreconditionError, match="at least 0, got -1"):
        op.copy_covering_vertex(op.complete_graph(6), op.complete_graph(3), 0, budget=-1)


def test_refutation_node_ceilings():
    # NO verdicts that need a complete search. With the failed-set memo but
    # trying every twin they took 59,628, 434,548, 200,736 and 3,850,336
    # nodes, and the cover search of verify 164,794
    cases = [
        (op.disjoint_union(op.complete_graph(13), op.complete_graph(14)), K3),
        (op.disjoint_union(op.complete_graph(13), op.complete_graph(15)), op.cycle_graph(4)),
        (op.complete_multipartite([7, 9])[0], op.cycle_graph(4)),
        (op.complete_multipartite([9, 11])[0], op.cycle_graph(4)),
    ]
    for g, h in cases:
        res = op.has_perfect_packing(g, h)
        assert res.verdict is Verdict.NO and res.nodes <= 1_000
    report = op.verify_lower_bound(op.construct_prop2(3, 1, 7, 7), op.construct_fdiamond())
    assert report.no_cover is Verdict.YES and report.nodes <= 1_647
    # complete multipartite hosts, refuted by the type-count engine. The
    # search alone took 3,564 / 23,166 / 134,466 / 728,496 nodes for
    # k = 4..7 and 468 / 2,355 / 14,082 / 98,175 for r = 4..7
    for k in range(4, 11):
        g, _ = op.complete_multipartite([3] * k + [3 * (k - 1)])
        res = op.has_perfect_packing(g, K3)
        assert res.verdict is Verdict.NO and res.nodes <= 1, k
    for r in range(4, 10):
        # the space barrier: every copy of K_r takes one vertex per class
        g, _ = op.complete_multipartite([7, 9] + [8] * (r - 2))
        res = op.has_perfect_packing(g, op.complete_graph(r))
        assert res.verdict is Verdict.NO and res.nodes <= 1, r
    # divisibility barriers, which pass the count bound at the root and
    # only the engine's branching refutes: K_{1,...,1,3} on r classes into
    # [t+1, t-1, t, ..., t], where each class size must have the parity of
    # the even number of copies. The search alone took 114 / 1,287 /
    # 20,376 / 436,363 / 458,648 nodes
    for r, t, ceiling in ((2, 8, 7), (3, 10, 26), (4, 12, 59), (5, 14, 106), (6, 8, 24)):
        g, _ = op.complete_multipartite([t + 1, t - 1] + [t] * (r - 2))
        res = op.has_perfect_packing(g, op.complete_multipartite([1] * (r - 1) + [3])[0])
        assert res.verdict is Verdict.NO and 1 < res.nodes <= ceiling, r


def test_search_alone_on_multipartite_hosts(monkeypatch):
    # the engine refutes these hosts at the root, so the search's budget
    # cut-off and twin-rule ceilings are checked with the engine switched
    # off, on the hosts they were set on
    _without_engine(monkeypatch)
    g, _ = op.complete_multipartite([3, 4, 5])
    full = op.has_perfect_packing(g, K3)
    assert full.verdict is Verdict.NO and full.nodes > 1
    for budget in range(full.nodes):
        assert op.has_perfect_packing(g, K3, budget).verdict is Verdict.UNKNOWN
    assert op.has_perfect_packing(g, K3, full.nodes).verdict is Verdict.NO
    for sizes in ([7, 9], [9, 11]):
        res = op.has_perfect_packing(op.complete_multipartite(sizes)[0], op.cycle_graph(4))
        assert res.verdict is Verdict.NO and res.nodes <= 1_000


def test_engine_cut_off_by_budget_falls_through_to_search(monkeypatch):
    # the engine refutes in a few nodes what takes the search thousands;
    # with any smaller budget it runs out, and the call is the search's
    # with the same budget
    g, _ = op.complete_multipartite([7, 7, 5, 5])
    h = op.complete_multipartite([1, 1, 1, 3])[0]
    full = op.has_perfect_packing(g, h)
    assert full.verdict is Verdict.NO and 1 < full.nodes < 20
    cut = [op.has_perfect_packing(g, h, budget) for budget in range(full.nodes)]
    exact = op.has_perfect_packing(g, h, full.nodes)
    assert (exact.verdict, exact.nodes) == (Verdict.NO, full.nodes)
    _without_engine(monkeypatch)
    assert op.has_perfect_packing(g, h).nodes > 1_000
    for budget, res in enumerate(cut):
        assert res.verdict is Verdict.UNKNOWN
        assert res == op.has_perfect_packing(g, h, budget)


# sha256 over the certificates of the YES instances among seeded random
# hosts and the structured hosts above, taken from the search without the
# failed-set memo: skipping refuted sets must not change any certificate
CERTIFICATE_DIGEST = "1870bad913391ad718a3b918fd82ad1746184b5293d825ead7708136a78cbafe"


def test_packing_certificates_match_pinned_digest():
    rng = random.Random(31)
    hs = [K2, K3, op.path_graph(3), op.cycle_graph(4), op.star_graph(3)]
    instances = []
    for _ in range(300):
        h = rng.choice(hs)
        g = op.random_graph(h.n * rng.choice([1, 2, 3]), rng.uniform(0.4, 1.0), rng)
        instances.append((g, h))
    instances += [(g, h) for g in _structured_hosts() for h in hs if g.n % h.n == 0]
    digest = hashlib.sha256()
    yes = 0
    for g, h in instances:
        res = op.has_perfect_packing(g, h)
        if res.verdict is Verdict.YES:
            yes += 1
            certificate = json.dumps(res.to_json_dict()["certificate"])
            digest.update((op.to_graph6(g) + op.to_graph6(h) + certificate + "\n").encode())
    assert yes > 100
    assert digest.hexdigest() == CERTIFICATE_DIGEST


def _twin_rich_hosts(rng, count):
    """Blow-ups of random quotients on 2-6 classes of 1-4 vertices, each
    class a clique or an independent set, relabelled; order at most 12."""
    hosts = []
    while len(hosts) < count:
        sizes = [rng.randint(1, 4) for _ in range(rng.randint(2, 6))]
        if sum(sizes) > 12:
            continue
        classes, start = [], 0
        for size in sizes:
            classes.append(range(start, start + size))
            start += size
        p = rng.random()
        edges = []
        for i, cls in enumerate(classes):
            if rng.random() < 0.5:
                edges += combinations(cls, 2)
            for other in classes[i + 1:]:
                if rng.random() < p:
                    edges += product(cls, other)
        perm = list(range(start))
        rng.shuffle(perm)
        hosts.append(op.relabel(op.Graph.from_edges(start, edges), perm))
    return hosts


# sha256 over the packing certificates and cover embeddings of the hosts
# below, taken from the search that tried every twin: trying one vertex
# per twin class must not change any of them
TWIN_DIGEST = "4b509a8e373f9e70cde16d2b3d0292676d997aefcd4c54673f5cc748c83cf957"


def test_twin_rich_hosts_agree_with_oracles():
    rng = random.Random(41)
    hs = [K2, K3, op.cycle_graph(4), op.star_graph(3), op.construct_fdiamond()]
    digest = hashlib.sha256()
    for g in _twin_rich_hosts(rng, 100):
        for h in hs:
            res = op.has_perfect_packing(g, h)
            assert (res.verdict is Verdict.YES) == naive_has_perfect_packing(g, h)
            if res.verdict is Verdict.YES:
                assert op.verify_packing(g, h, res.certificate)
            covers = [op.copy_covering_vertex(g, h, w).embedding for w in range(g.n)]
            for w, emb in enumerate(covers):
                # the first anchored copy of the exhaustive enumeration
                assert emb == next(op.enumerate_copies(g, h, anchor=w), None)
            w = rng.randrange(g.n)
            if h.n <= 4:
                assert (covers[w] is not None) == naive_copy_covering(g, h, w)
            record = [res.to_json_dict()["certificate"], [e and e.to_json() for e in covers]]
            digest.update((op.to_graph6(g) + op.to_graph6(h) + json.dumps(record) + "\n").encode())
    assert digest.hexdigest() == TWIN_DIGEST


def _without_engine(monkeypatch):
    monkeypatch.setattr(packing, "_types_refute", lambda sizes, h, meter: False)


def test_type_cap_bounds_one_component():
    # 3 C11: 341 colourings with at most 3 classes per component, 1,023 in
    # all; the cap of 1,000 bounds each component's search, so the engine
    # finishes. It refutes nothing: three copies of each rotation of the
    # type (4, 4, 3) fill [33, 33, 33]
    c11 = op.cycle_graph(11)
    h = op.disjoint_union(op.disjoint_union(c11, c11), c11)
    assert packing._types_refute([33, 33, 33], h, Meter()) is False


def test_engine_past_its_cap_leaves_the_search_alone(monkeypatch):
    # C13 has 1,365 colourings with at most 3 classes, past the engine's
    # cap, so the verdict and node count are the search's without it
    c13 = op.cycle_graph(13)
    hosts = [op.complete_multipartite(sizes)[0] for sizes in ([7, 3, 3], [5, 4, 4])]
    with pytest.raises(BudgetExhausted):
        packing._types_refute([7, 3, 3], c13, Meter())
    with_engine = [op.has_perfect_packing(g, c13) for g in hosts]
    assert [r.verdict for r in with_engine] == [Verdict.NO, Verdict.YES]
    _without_engine(monkeypatch)
    assert with_engine == [op.has_perfect_packing(g, c13) for g in hosts]


def _multipartite_hosts(rng, count):
    """Complete multipartite graphs on 2-5 classes of 1-5 vertices, order
    at most 16, relabelled."""
    hosts = []
    while len(hosts) < count:
        sizes = [rng.randint(1, 5) for _ in range(rng.randint(2, 5))]
        if sum(sizes) <= 16:
            g, _ = op.complete_multipartite(sizes)
            perm = list(range(g.n))
            rng.shuffle(perm)
            hosts.append(op.relabel(g, perm))
    return hosts


def test_type_count_engine_agrees_with_search_and_naive_oracle(monkeypatch):
    # the engine refutes complete multipartite hosts; with it switched off
    # the search decides alone, and it is the oracle for every pair
    rng = random.Random(53)
    p3 = op.path_graph(3)
    hs = [K2, K3, p3, op.cycle_graph(4), op.star_graph(3), op.cycle_graph(5),
          op.construct_fdiamond(), op.disjoint_union(K2, p3)]
    results = []
    for g in _multipartite_hosts(rng, 200):
        for h in hs:
            if g.n % h.n == 0:
                results.append((g, h, op.has_perfect_packing(g, h)))
    _without_engine(monkeypatch)
    refuted = branched = 0
    for g, h, res in results:
        search = op.has_perfect_packing(g, h)
        if res.verdict is Verdict.YES:
            # the engine leaves a YES to the search: same certificate and count
            assert res == search
            assert op.verify_packing(g, h, res.certificate)
        else:
            assert res.verdict is search.verdict is Verdict.NO
            refuted += 1
            branched += res.nodes > 1
        if h.n <= 5:
            assert (res.verdict is Verdict.YES) == naive_has_perfect_packing(g, h)
    assert len(results) > 300 and refuted > 50 and branched > 0


def _is_complete_multipartite(g):
    """True iff non-adjacency is an equivalence relation on V(g)."""
    apart = [g.vertex_mask & ~row for row in g.adj]  # v and its non-neighbours
    return all(apart[u] == apart[v] for v in range(g.n) for u in range(g.n) if apart[v] >> u & 1)


def _near_multipartite_hosts(rng, count):
    """Complete multipartite graphs on 2-6 classes of 1-5 vertices, order
    at most 10, less 0-3 seeded edges, relabelled."""
    hosts = []
    while len(hosts) < count:
        sizes = [rng.randint(1, 5) for _ in range(rng.randint(2, 6))]
        if sum(sizes) <= 10:
            g, _ = op.complete_multipartite(sizes)
            gone = set(rng.sample(list(g.edges()), min(rng.randint(0, 3), g.edge_count())))
            g = op.Graph.from_edges(g.n, [e for e in g.edges() if e not in gone])
            perm = list(range(g.n))
            rng.shuffle(perm)
            hosts.append(op.relabel(g, perm))
    return hosts


def test_engine_refutes_hosts_through_their_open_twin_classes(monkeypatch):
    # open twins are never adjacent, so every host is a spanning subgraph
    # of the complete multipartite graph on its open-twin classes, and the
    # engine's NO there is a NO for the host. With at least |H| classes it
    # runs on hosts that are not complete multipartite too; with it
    # switched off the search decides alone, and it is the oracle
    rng = random.Random(67)
    paw = op.Graph.from_edges(4, [(0, 1), (1, 2), (0, 2), (2, 3)])
    hs = [K2, K3, op.path_graph(3), op.cycle_graph(4), op.star_graph(3), op.complete_graph(4), paw]
    types_refute = packing._types_refute
    refutations = []

    def counted(sizes, h, meter):
        refuted = types_refute(sizes, h, meter)
        refutations.append(refuted)
        return refuted

    monkeypatch.setattr(packing, "_types_refute", counted)
    results = []
    engine_refuted = set()  # hosts, not complete multipartite
    for i, g in enumerate(_near_multipartite_hosts(rng, 800)):
        for h in hs:
            if g.n % h.n == 0:
                refutations.clear()
                results.append((g, h, op.has_perfect_packing(g, h)))
                if any(refutations) and not _is_complete_multipartite(g):
                    engine_refuted.add(i)
    _without_engine(monkeypatch)
    for g, h, res in results:
        search = op.has_perfect_packing(g, h)
        if res.verdict is Verdict.YES:
            # the engine leaves a YES to the search: same certificate and count
            assert res == search
            assert op.verify_packing(g, h, res.certificate)
        else:
            assert res.verdict is search.verdict is Verdict.NO
        assert (res.verdict is Verdict.YES) == naive_has_perfect_packing(g, h)
    assert len(engine_refuted) >= 100


def test_engine_refutes_near_multipartite_cliff_rows_at_the_root():
    # the K4 space barrier and K3 into K_{3^5,12}, each less one edge, built
    # as tools/cliffs.py builds them; the search alone takes 2,600 and
    # 41,109 nodes
    for sizes, h in (([7, 9, 8, 8], op.complete_graph(4)), ([3] * 5 + [12], K3)):
        g, _ = op.complete_multipartite(sizes)
        gone = set(random.Random(1).sample(list(g.edges()), 1))
        g = op.Graph.from_edges(g.n, [e for e in g.edges() if e not in gone])
        res = op.has_perfect_packing(g, h)
        assert (res.verdict, res.nodes) == (Verdict.NO, 1)


def test_engine_refutes_at_a_component_without_colouring():
    # K4 has no 3-colouring, so the profile search of K4 + C15 with 3
    # classes stops at K4, before C15's 5,461 colourings pass the engine's
    # cap, and the engine refutes at its root; the packing search took
    # 1,641,215 nodes to refute it. With C15 first the cap still leaves
    # the host to the search
    h = op.disjoint_union(op.complete_graph(4), op.cycle_graph(15))
    g = op.complete_multipartite([6, 6, 7])[0]
    res = op.has_perfect_packing(g, h)
    assert (res.verdict, res.nodes) == (Verdict.NO, 1)
    with pytest.raises(BudgetExhausted):
        packing._types_refute([6, 6, 7], op.disjoint_union(op.cycle_graph(15), op.complete_graph(4)), Meter())


def test_engine_skips_hosts_whose_classes_all_fit(monkeypatch):
    # at least |H| open-twin classes of at most n/|H| vertices each always
    # pack, so the engine is called only with a class above n/|H|: not on
    # K_{2,2,2} for K3 or K_{3,3,2,2,2} for C4, and on random hosts of the
    # packing probes only where twins fill a class past n/3
    calls = []
    types_refute = packing._types_refute

    def counted(sizes, h, meter):
        calls.append(max(sizes) > sum(sizes) // h.n)
        return types_refute(sizes, h, meter)

    monkeypatch.setattr(packing, "_types_refute", counted)
    for sizes, h in (([2, 2, 2], K3), ([3, 3, 2, 2, 2], op.cycle_graph(4))):
        assert op.has_perfect_packing(op.complete_multipartite(sizes)[0], h).verdict is Verdict.YES
    assert calls == []
    rng = random.Random(3617)
    for _ in range(30):
        g = op.random_graph(9, 0.7, rng)
        assert (op.has_perfect_packing(g, K3).verdict is Verdict.YES) == naive_has_perfect_packing(g, K3)
    assert op.has_perfect_packing(op.complete_multipartite([4, 1, 1])[0], K3).verdict is Verdict.NO
    assert calls and all(calls)


def test_embedder_builds_h_part_once():
    # h's component order and neighbour lists are built once for all the
    # searches on one h, and again for the next h
    packing._pattern_plan.cache_clear()
    rng = random.Random(3619)
    hosts = [op.random_graph(9, 0.7, rng) for _ in range(10)]
    for h in (K3, K3, op.path_graph(3)):
        for g in hosts:
            op.has_perfect_packing(g, h)
            op.copy_covering_vertex(g, h, 4)
    info = packing._pattern_plan.cache_info()
    assert info.misses == 2 and info.hits >= 2 * len(hosts)


def test_engine_skips_hosts_with_fewer_twin_classes_than_h(monkeypatch):
    # an fdiamond blow-up has 6 open-twin classes against |fdiamond| = 7 and
    # is not complete multipartite: the engine would pay a profile search
    # only to find that the multipartite graph on those classes packs
    calls = []
    monkeypatch.setattr(packing, "_types_refute", lambda *args: calls.append(args))
    fd = op.construct_fdiamond()
    for t in (2, 4, 6):
        assert op.has_perfect_packing(op.blow_up(fd, t), fd).verdict is Verdict.YES
    assert calls == []


def test_type_count_engine_deals_to_groups_on_hosts_with_many_classes(monkeypatch):
    # hosts of 16 to 40 classes with two or three distinct sizes: the
    # engine deals each type to the groups of equal count, so a state has
    # a handful of children. Dealt to each class instead, one type of
    # K_{1,1,1,3} padded to the 40 classes of K_{9,1^39} has up to
    # C(40, 6) orderings
    k1113 = op.complete_multipartite([1, 1, 1, 3])[0]
    cases = [
        (k1113, [9] + [1] * 39, Verdict.YES, 8),
        (k1113, [9, 9] + [1] * 30, Verdict.YES, 8),
        (op.cycle_graph(4), [12] + [1] * 28, Verdict.YES, 10),
        (op.cycle_graph(6), [9] + [1] * 27, Verdict.YES, 6),
        (op.cycle_graph(8), [10] + [1] * 30, Verdict.YES, 5),
        (op.complete_multipartite([1, 1, 1, 1, 3])[0], [11, 9, 9] + [1] * 13, Verdict.NO, 117),
    ]
    dealt = packing._dealt
    children = []

    def counted(counts, t):
        # every child counts, taken or not
        out = list(dealt(counts, t))
        children.append(len(out))
        return iter(out)

    monkeypatch.setattr(packing, "_dealt", counted)
    for h, sizes, verdict, nodes in cases:
        children.clear()
        meter = Meter()
        assert packing._types_refute(sizes, h, meter) is (verdict is Verdict.NO)
        assert meter.nodes == nodes
        assert max(children) <= 8 and sum(children) <= 4 * nodes, (h, sizes)
        g, _ = op.complete_multipartite(sizes)
        res = op.has_perfect_packing(g, h)
        assert res.verdict is verdict
        if verdict is Verdict.YES:
            assert op.verify_packing(g, h, res.certificate)
        else:
            assert res.nodes == nodes


def test_type_count_engine_builds_children_only_as_it_takes_them(monkeypatch):
    # on a YES host of 14 distinct class sizes a state can have thousands
    # of children; the search takes the first of each and builds no more
    sizes = [35] + list(range(1, 14))
    dealt = packing._dealt
    taken = []

    def counted(counts, t):
        children = dealt(counts, t)
        # a generator builds each child when it is taken
        assert inspect.isgenerator(children)
        for child in children:
            taken.append(child)
            yield child

    monkeypatch.setattr(packing, "_dealt", counted)
    for parts, nodes in (([1, 1, 1, 1, 3], 18), ([1, 1, 1, 3], 21)):
        taken.clear()
        meter = Meter()
        h = op.complete_multipartite(parts)[0]
        assert packing._types_refute(sizes, h, meter) is False
        assert meter.nodes == nodes
        assert len(taken) <= nodes, (parts, len(taken))


def _as_before(res):
    """A PackingResult in the form of ``oracles.packing_search_before``."""
    cert = None if res.certificate is None else [e.mapping for e in res.certificate]
    return res.verdict.value, cert, res.nodes


def _cover_as_before(res):
    return res.verdict.value, res.embedding and res.embedding.mapping, res.nodes


def test_search_matches_the_search_before_its_nodes_got_cheaper(monkeypatch):
    # verdicts, certificates, cover embeddings and node counts equal those
    # of the pre-change search at the full budget and at every budget
    # below it; the copy streams are equal too
    _without_engine(monkeypatch)
    rng = random.Random(67)
    k1 = op.empty_graph(1)
    hs = [K2, K3, op.path_graph(3), op.cycle_graph(4), op.star_graph(3),
          op.disjoint_union(K2, K2),  # disconnected
          op.disjoint_union(K2, op.path_graph(3)),
          op.disjoint_union(K2, k1),  # an isolated vertex
          op.disjoint_union(op.path_graph(3), op.empty_graph(2))]
    hosts = _twin_rich_hosts(rng, 40)
    hosts += [op.random_graph(rng.choice([6, 8, 9, 10, 12]), rng.uniform(0.3, 1.0), rng) for _ in range(40)]
    checked = branched = 0
    for g in hosts:
        for h in rng.sample(hs, 4):
            if g.n % h.n == 0:
                full = op.has_perfect_packing(g, h)
                assert _as_before(full) == packing_search_before(g, h)
                for budget in range(full.nodes):
                    res = op.has_perfect_packing(g, h, budget)
                    assert _as_before(res) == packing_search_before(g, h, budget)
                checked += 1
                branched += full.nodes > 2 * g.n // h.n
            w = rng.randrange(g.n)
            full = op.copy_covering_vertex(g, h, w)
            assert _cover_as_before(full) == cover_search_before(g, h, w)
            for budget in range(full.nodes):
                res = op.copy_covering_vertex(g, h, w, budget)
                assert _cover_as_before(res) == cover_search_before(g, h, w, budget)
            for anchor in (None, w):  # the first 2,000 copies of each stream
                got = [e.mapping for e in islice(op.enumerate_copies(g, h, anchor), 2_000)]
                assert got == list(islice(copies_before(g, h, anchor), 2_000))
    assert checked > 100 and branched > 20


def _hs_host(rng, n, r, p):
    """A G(n, p) draw with minimum degree at least (1 - 1/r) n, which
    forces a K_r-factor (Hajnal-Szemeredi)."""
    while True:
        g = op.random_graph(n, p, rng)
        if min(g.degrees()) * r >= (r - 1) * n:
            return g


def test_search_matches_the_search_before_on_hosts_of_benchmark_size(monkeypatch):
    # the comparison above on hosts of up to 128 vertices, whose anchor the
    # search reads off bit-sliced counts (8 planes at n = 128) and the
    # oracle finds by a scan: YES hosts of the Hajnal-Szemeredi bound, a
    # blow-up of fdiamond, and two NO hosts that the search refutes only
    # after branching. On the second, a cut barrier, it backtracks and
    # meets refuted sets again. Cut off at a few budgets, both stop alike.
    _without_engine(monkeypatch)
    rng = random.Random(71)
    fd = op.construct_fdiamond()
    k4 = op.complete_graph(4)
    barrier, _ = op.complete_multipartite([7, 9, 8, 8])
    gone = set(random.Random(1).sample(list(barrier.edges()), 1))
    barrier = op.Graph.from_edges(barrier.n, [e for e in barrier.edges() if e not in gone])
    # K_9 joined to six K4s less 6 edges: each K4 needs two vertices of
    # K_9 for a K3-factor (tools/cliffs.py, Cliff E)
    cut = op.complement(op.disjoint_union(op.empty_graph(9), op.complete_multipartite([4] * 6)[0]))
    gone = set(random.Random(6).sample(list(cut.edges()), 6))
    cut = op.Graph.from_edges(cut.n, [e for e in cut.edges() if e not in gone])
    perm = list(range(cut.n))
    random.Random(1).shuffle(perm)
    cases = [
        (_hs_host(rng, 120, 3, 0.83), K3, "yes"),
        (_hs_host(rng, 120, 4, 0.89), k4, "yes"),
        (op.blow_up(fd, 6), fd, "yes"),
        (barrier, k4, "no"),
        (_hs_host(rng, 100, 4, 0.9), k4, "yes"),
        (_hs_host(rng, 126, 3, 0.84), K3, "yes"),
        (_hs_host(rng, 128, 4, 0.9), k4, "yes"),
        (op.relabel(cut, perm), K3, "no"),
    ]
    nodes = []
    for g, h, verdict in cases:
        events = Counter()
        full = op.has_perfect_packing(g, h)
        assert full.verdict.value == verdict
        assert _as_before(full) == packing_search_before(g, h, None, events)
        nodes.append(full.nodes)
        for budget in rng.sample(range(full.nodes), 3):
            assert _as_before(op.has_perfect_packing(g, h, budget)) == packing_search_before(g, h, budget)
        for w in rng.sample(range(g.n), 3):
            assert _cover_as_before(op.copy_covering_vertex(g, h, w)) == cover_search_before(g, h, w)
        for anchor in (None, rng.randrange(g.n)):  # the first 200 copies of each stream
            got = [e.mapping for e in islice(op.enumerate_copies(g, h, anchor), 200)]
            assert got == list(islice(copies_before(g, h, anchor), 200))
    assert len(packing._degree_planes(cases[6][0].adj)) == 8
    # the K4 space barrier minus 1 edge and the cut barrier (tools/cliffs.py)
    assert nodes[3] == 2_600 and nodes[7] == 53_118
    assert events["memo hits"] > 1_000 and events["retries"] > 1_000


def test_twin_classes_match_the_definition():
    # the singletons that two set checks give, and the loop for hosts with
    # twins, against u ~ v when N(u) - v == N(v) - u
    rng = random.Random(79)
    hosts = _twin_rich_hosts(rng, 40)
    hosts += [op.random_graph(rng.choice([1, 2, 5, 9, 30, 128]), rng.random(), rng) for _ in range(40)]
    hosts += [op.empty_graph(0), op.complete_graph(5), op.empty_graph(4), op.cycle_graph(4)]
    singletons = 0
    for g in hosts:
        twins, open_twins = packing._twin_classes(g)
        assert list(twins) == [
            sum(1 << u for u in range(g.n) if g.adj[u] & ~(1 << v) == g.adj[v] & ~(1 << u))
            for v in range(g.n)
        ]
        assert open_twins == {
            row: sum(1 << u for u in range(g.n) if g.adj[u] == row) for row in set(g.adj)
        }
        singletons += all(m & (m - 1) == 0 for m in twins)
    assert singletons > 20 and len(hosts) - singletons > 20  # both paths ran
