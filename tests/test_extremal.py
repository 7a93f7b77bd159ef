import hashlib
import json
import tracemalloc
from fractions import Fraction

import pytest

import orepack as op
from orepack import PreconditionError, Verdict, coloring, extremal, parameters

from oracles import are_isomorphic


def test_prop1_shape_r3_n9():
    inst = op.construct_prop1(3, 9)
    g = inst.graph
    assert g.n == 9
    assert inst.w == 0
    assert g.degree(inst.w) == 3
    assert op.min_ore_degree_sum(g) == 10
    assert inst.claimed_ore_bound == 10
    # the distinguished vertex sees an independent set when r = 3
    nb = op.induced_subgraph(g, g.neighbors(inst.w))
    assert nb.edge_count() == 0


@pytest.mark.parametrize("r,n", [(2, 4), (2, 7), (3, 9), (3, 10), (4, 13), (5, 17)])
def test_prop1_meets_its_bound(r, n):
    inst = op.construct_prop1(r, n)
    assert op.min_ore_degree_sum(inst.graph) >= inst.claimed_ore_bound
    # neighborhood of w is (r-2)-partite, so (r-2)-colorable
    nbrs = inst.graph.neighbors(inst.w)
    if nbrs:
        nb = op.induced_subgraph(inst.graph, nbrs)
        assert op.chromatic_number(nb) <= max(1, r - 2)


def test_prop1_r2_degenerates_to_isolated_w():
    inst = op.construct_prop1(2, 4)
    assert inst.graph.degree(inst.w) == 0
    assert inst.graph.edge_count() == 3  # triangle beside the isolated vertex


def test_prop1_errors():
    with pytest.raises(PreconditionError):
        op.construct_prop1(3, 2)
    with pytest.raises(PreconditionError):
        op.construct_prop1(1, 5)
    with pytest.raises(PreconditionError):
        op.construct_prop1(3, 129)  # order above 128


def test_prop2_shape_3_1_7_7():
    inst = op.construct_prop2(3, 1, 7, 7)
    g = inst.graph
    assert g.n == 49
    assert g.degree(inst.w) == 21
    assert op.min_ore_degree_sum(g) == 55
    assert inst.claimed_ore_bound == 55
    assert inst.claimed_ore_bound == 2 * (1 - Fraction(3, 7)) * 49 - 1


@pytest.mark.parametrize(
    "r,m,h_order,t",
    [(3, 1, 7, 7), (3, 0, 6, 4), (3, 0, 6, 8), (4, 0, 3, 12), (4, 1, 5, 20), (3, 2, 5, 10)],
)
def test_prop2_degree_identities(r, m, h_order, t):
    inst = op.construct_prop2(r, m, h_order, t)
    g = inst.graph
    n = g.n
    assert n == h_order * t
    block = (m + 2) * r - 2
    s = 2 * h_order // block
    w = inst.w
    # class layout: w=0, then st-1, then m classes of st, then r-2 big ones
    start = 1 + (s * t - 1)
    for _ in range(m):
        y = start  # first vertex of an st-class
        assert g.degree(y) + g.degree(w) == 2 * h_order * t - (m + 2) * s * t - 1
        start += s * t
    big = (m + 2) * s * t // 2
    for i in range(r - 2):
        y1 = start + i * big
        y2 = y1 + 1
        assert (
            g.degree(y1) + g.degree(y2)
            == 2 * (1 - Fraction(m + 2, block)) * n
        )
    assert op.min_ore_degree_sum(g) >= inst.claimed_ore_bound


def test_prop2_errors():
    with pytest.raises(PreconditionError):
        op.construct_prop2(3, 1, 7, 6)  # 7 does not divide 6
    with pytest.raises(PreconditionError):
        op.construct_prop2(3, 1, 8, 7)  # s not integral
    with pytest.raises(PreconditionError):
        op.construct_prop2(2, 1, 7, 7)  # r too small
    with pytest.raises(PreconditionError):
        op.construct_prop2(3, 1, 7, 21)  # order 147 > 128


@pytest.mark.parametrize("build,args", [
    (op.construct_prop1, (10**6, 10**6)),
    (op.construct_prop2, (3, 10**6, 1500002, 3000004)),
])
def test_order_is_checked_before_class_sizes_are_listed(build, args):
    # r or m near 10^6 passes every other precondition; a list of that many
    # class sizes would take megabytes before the order check rejects it
    tracemalloc.start()
    try:
        with pytest.raises(PreconditionError, match="exceeds 128"):
            build(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_prop2_padded_shape():
    inst = op.construct_prop2_padded(3, 1, 7, 56)
    g = inst.graph
    assert g.n == 56
    assert inst.claimed_ore_bound == 2 * (1 - Fraction(3, 7)) * 56 - 2 * 7**4
    assert op.min_ore_degree_sum(g) >= inst.claimed_ore_bound
    # padded clones keep w uncoverable by the 7-vertex witness graph
    fd = op.construct_fdiamond()
    res = op.copy_covering_vertex(g, fd, inst.w)
    assert res.verdict is Verdict.NO


def test_prop2_padded_errors():
    with pytest.raises(PreconditionError):
        op.construct_prop2_padded(3, 1, 7, 50)  # 7 does not divide 50
    with pytest.raises(PreconditionError):
        op.construct_prop2_padded(3, 1, 7, 42)  # below minimum order


def test_fdiamond_shape():
    fd = op.construct_fdiamond()
    assert fd.n == 7
    assert fd.edge_count() == 13
    assert sorted(fd.degrees()).count(2) == 1
    assert fd.degree(6) == 2
    assert set(fd.neighbors(6)) == {0, 2}
    rep = op.full_report(fd)
    assert (rep.chi, rep.sigma) == (3, 2)
    assert rep.ce.value == 1
    assert rep.chi_ore == Fraction(14, 5)


def test_fdiamond_is_smallest_apex_instance():
    assert are_isomorphic(op.construct_fdiamond(), op.construct_hdiamond(1, 3, [2, 2, 2]))


def test_hdiamond_examples():
    hd = op.construct_hdiamond(2, 5, [3, 3, 3, 3, 3])
    assert hd.n == 16
    apex = 15
    assert hd.degree(apex) == 2 * 3 + 3  # k(k+1) + |V4|
    ce, _ = op.colour_extension_number(hd)
    assert ce.value == 2
    hd2 = op.construct_hdiamond(1, 3, [2, 2, 2])
    ce2, _ = op.colour_extension_number(hd2)
    assert ce2.value == 1


def test_hdiamond_errors():
    with pytest.raises(PreconditionError):
        op.construct_hdiamond(2, 3, [3, 3, 3])  # r < k+2
    with pytest.raises(PreconditionError):
        op.construct_hdiamond(2, 4, [2, 3, 3, 3])  # class size <= k
    with pytest.raises(PreconditionError):
        op.construct_hdiamond(2, 4, [3, 3, 3])  # wrong length
    with pytest.raises(PreconditionError):
        op.construct_hdiamond(0, 3, [2, 2, 2])


def test_generated_graphs_pass_invariants():
    # Graph.__post_init__ revalidates symmetry/loops on every construction
    insts = [
        op.construct_prop1(3, 9),
        op.construct_prop2(3, 1, 7, 7),
        op.construct_prop2_padded(3, 1, 7, 56),
    ]
    for inst in insts:
        assert inst.graph.n <= 128
        assert 0 <= inst.w < inst.graph.n


def test_verify_lower_bound_prop1():
    report = op.verify_lower_bound(op.construct_prop1(3, 9), op.complete_graph(3))
    assert report.ore_ok
    assert report.no_cover is Verdict.YES
    assert report.divisibility_ok
    assert report.all_ok


def test_verify_lower_bound_mismatch():
    with pytest.raises(PreconditionError):
        op.verify_lower_bound(op.construct_prop1(3, 9), op.complete_graph(4))
    with pytest.raises(PreconditionError):
        # K3 has infinite extension number, prop2 needs it finite
        op.verify_lower_bound(op.construct_prop2(3, 1, 7, 7), op.complete_graph(3))
    with pytest.raises(PreconditionError):
        # F-diamond is fine for prop2 but not for prop1
        op.verify_lower_bound(op.construct_prop1(3, 9), op.construct_fdiamond())


def test_verify_lower_bound_finds_chi_once(monkeypatch):
    # the chi checked against the instance is the chi of the CE search
    calls = []

    def counted(h):
        calls.append(h)
        return coloring.chromatic_number(h)

    for module in (extremal, parameters):
        monkeypatch.setattr(module, "chromatic_number", counted)
    fd = op.construct_fdiamond()
    assert op.verify_lower_bound(op.construct_prop2(3, 1, 7, 7), fd).all_ok
    assert calls == [fd]


def test_verify_lower_bound_unknown_on_budget():
    inst = op.construct_prop2(3, 1, 7, 7)
    fd = op.construct_fdiamond()
    full = op.verify_lower_bound(inst, fd)
    assert full.no_cover is Verdict.YES
    report = op.verify_lower_bound(inst, fd, budget=full.nodes - 1)
    assert report.no_cover is Verdict.UNKNOWN
    assert not report.all_ok


def test_instance_json_round_trip():
    inst = op.construct_prop2(3, 1, 7, 7)
    payload = json.loads(json.dumps(inst.to_json_dict()))
    assert payload["family"] == "prop2"
    assert payload["w"] == 0
    assert payload["claimed_bound"] == {"num": 55, "den": 1}
    assert op.parse_graph6(payload["graph6"]) == inst.graph
    assert payload["params"] == {"r": 3, "m": 1, "h_order": 7, "t": 7}


@pytest.mark.parametrize("inst", [
    op.construct_prop1(3, 9), op.construct_prop2(3, 1, 7, 7), op.construct_prop2_padded(3, 1, 7, 56),
])
def test_instance_from_json_dict_inverts_to_json_dict(inst):
    payload = json.loads(json.dumps(inst.to_json_dict()))
    back = op.ExtremalInstance.from_json_dict(payload)
    assert back == inst and back.to_json_dict() == inst.to_json_dict()


# Parameter grid that reaches every branch of every construction: r = 2
# (no upper classes), m = 0 and m > 0, padding zero and positive, apex
# families with and without classes between the (k+1)-st and the last,
# explicit labels. The digest was taken from the edge-list implementation
# the mask-edit constructions replaced.
DIGEST_PROP1 = [(2, 2), (2, 4), (2, 7), (3, 3), (3, 9), (3, 10), (4, 13), (5, 17), (6, 6), (4, 128)]
DIGEST_PROP2 = [
    (3, 1, 7, 7), (3, 0, 6, 4), (3, 0, 6, 8), (4, 0, 3, 12), (4, 1, 5, 20), (3, 2, 5, 10),
    (5, 0, 4, 24),
]
DIGEST_PADDED = [(3, 1, 7, 56), (3, 1, 7, 63), (3, 0, 6, 30), (4, 0, 3, 36), (4, 0, 3, 42), (3, 2, 5, 125)]
DIGEST_HDIAMOND = [
    (1, 3, [2, 2, 2]), (2, 5, [3] * 5), (2, 4, [3, 4, 7, 7]), (2, 4, [3, 4, 5, 5]),
    (3, 5, [4, 6, 7, 7, 7]), (1, 4, [2, 3, 4, 5]), (1, 5, [2, 2, 2, 2, 3]), (5, 7, [6] * 7),
]
CONSTRUCTION_DIGEST = "af22e81e8485297e817747d6b98328195cbe103554dd78fb055b6952782bc2b8"


def test_constructions_match_pinned_digest():
    digest = hashlib.sha256()
    instances = (
        [op.construct_prop1(*a) for a in DIGEST_PROP1]
        + [op.construct_prop2(*a) for a in DIGEST_PROP2]
        + [op.construct_prop2_padded(*a) for a in DIGEST_PADDED]
    )
    for inst in instances:
        digest.update((op.to_graph6(inst.graph) + json.dumps(inst.to_json_dict()) + "\n").encode())
    graphs = [op.construct_hdiamond(*a) for a in DIGEST_HDIAMOND] + [
        op.construct_hdiamond(1, 3, [2, 2, 2], labels=tuple("abcdefg")),
        op.construct_fdiamond(),
    ]
    for g in graphs:
        digest.update((op.to_graph6(g) + json.dumps(g.labels) + "\n").encode())
    assert digest.hexdigest() == CONSTRUCTION_DIGEST
