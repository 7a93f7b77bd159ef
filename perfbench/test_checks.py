"""Tests of the benchmark's own output checks: each one must accept a right
answer and reject a corrupted certificate, a wrong verdict or a wrong
parameter value.

    python3 -m pytest -q perfbench/test_checks.py
"""

from __future__ import annotations

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import checks  # noqa: E402


def encode_graph6(n: int, edges) -> str:
    """Minimal graph6 writer for n <= 62, kept apart from orepack's."""
    edge_set = {frozenset(e) for e in edges}
    bits = [1 if frozenset((i, j)) in edge_set else 0 for j in range(1, n) for i in range(j)]
    bits += [0] * (-len(bits) % 6)
    body = "".join(chr(63 + int("".join(map(str, bits[k:k + 6])), 2)) for k in range(0, len(bits), 6))
    return chr(63 + n) + body


def write_graph(tmp_path, name: str, n: int, edges) -> str:
    path = tmp_path / f"{name}.g6"
    path.write_text(encode_graph6(n, edges) + "\n", encoding="ascii")
    return str(path)


def clique_edges(vertices):
    vs = list(vertices)
    return [(a, b) for i, a in enumerate(vs) for b in vs[i + 1:]]


def multipartite_edges(sizes):
    parts, start = [], 0
    for s in sizes:
        parts.append(range(start, start + s))
        start += s
    return [(u, v) for i, p in enumerate(parts) for q in parts[i + 1:] for u in p for v in q]


def frac(num, den=1):
    return {"num": num, "den": den}


INF = {"finite": False, "value": None}


def report_3k2() -> dict:
    """The right report of 3K2: both classes of every 2-colouring have 3."""
    return {
        "chi": 2, "sigma": 3, "chi_cr": frac(2), "d_set": [0], "hcf_chi": INF, "hcf_c": 2,
        "hcf_is_one": False, "ce": INF, "chi_star": frac(2), "chi_ore": frac(2),
        "chi_prime_ore": frac(2), "ore_coefficient": frac(1), "witness_vertex": None,
    }


def test_decoder_and_brute_force_colouring():
    assert checks.decode_graph6("Bw") == [0b110, 0b101, 0b011]
    c5 = checks.decode_graph6(encode_graph6(5, [(i, (i + 1) % 5) for i in range(5)]))
    assert checks.union_colouring_profile(c5) == (3, 1, {0, 1})
    two_c5 = checks.decode_graph6(encode_graph6(10, [(i, (i + 1) % 5) for i in range(5)]
                                                + [(5 + i, 5 + (i + 1) % 5) for i in range(5)]))
    # profiles (3,3,4) and (2,4,4) arise; (2,2,1)+(2,2,1) can give (4,4,2)
    chi, sigma, diffs = checks.union_colouring_profile(two_c5)
    assert (chi, sigma) == (3, 2) and 0 in diffs and 1 in diffs and 2 in diffs


def test_params_check_rejects_wrong_values(tmp_path):
    path = write_graph(tmp_path, "3k2", 6, [(0, 1), (2, 3), (4, 5)])
    spec = {"name": "3K2", "k": 3}
    good = report_3k2()
    assert checks.params_checker(path, "kK2", spec, {})(0, json.dumps(good)) is None
    for key, wrong in (("sigma", 1), ("chi_ore", frac(5, 2)), ("ce", {"finite": True, "value": 0}), ("d_set", [0, 1])):
        bad = dict(good, **{key: wrong})
        assert checks.params_checker(path, "kK2", spec, {})(0, json.dumps(bad)) is not None, key
    assert checks.params_checker(path, "kK2", spec, {})(1, json.dumps(good)) is not None


def test_params_check_rejects_broken_relations_and_relabelling_drift(tmp_path):
    path = write_graph(tmp_path, "k33", 6, multipartite_edges([3, 3]))
    rep = report_3k2()  # K_{3,3} has the same report
    seen: dict = {}
    check = checks.params_checker(path, "sparse", {"name": "K33"}, seen)
    assert check(0, json.dumps(rep)) is None
    assert check(0, json.dumps(dict(rep, ore_coefficient=frac(3, 2)))) is not None
    assert check(0, json.dumps(dict(rep, chi_cr=frac(9, 5)))) is not None
    # a second relabelling of the same H must give the same report
    other = dict(rep, hcf_c=1, hcf_is_one=False)
    assert checks.params_checker(path, "sparse", {"name": "K33"}, seen)(0, json.dumps(other)) is not None


def test_refute_check_rejects_wrong_verdicts(tmp_path):
    k3 = write_graph(tmp_path, "k3", 3, clique_edges(range(3)))
    k45 = write_graph(tmp_path, "k4k5", 9, clique_edges(range(4)) + clique_edges(range(4, 9)))
    check = checks.refute_checker(k45, k3, "cliques")
    assert check(1, "NO\n") is None
    assert check(0, "YES\n") is not None
    assert check(4, "UNKNOWN\n") is not None
    # K3 and K6 have a triangle factor: no counting argument, so even NO fails
    k36 = write_graph(tmp_path, "k3k6", 9, clique_edges(range(3)) + clique_edges(range(3, 9)))
    assert checks.refute_checker(k36, k3, "cliques")(1, "NO\n") is not None
    k345 = write_graph(tmp_path, "k345", 12, multipartite_edges([3, 4, 5]))
    assert checks.refute_checker(k345, k3, "tripartite")(1, "NO\n") is None
    c4 = write_graph(tmp_path, "c4", 4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    k44 = write_graph(tmp_path, "k44", 8, multipartite_edges([4, 4]))
    assert checks.refute_checker(k44, c4, "bipartite")(1, "NO\n") is not None


def test_find_check_rejects_corrupted_certificates(tmp_path):
    k3 = write_graph(tmp_path, "k3", 3, clique_edges(range(3)))
    # two triangles 0-1-2 and 3-4-5, plus the edge 2-3
    g = write_graph(tmp_path, "g", 6, clique_edges(range(3)) + clique_edges(range(3, 6)) + [(2, 3)])
    check = checks.find_checker(g, k3, None)

    def out(cert):
        return "YES\n" + json.dumps({"verdict": "yes", "certificate": cert}) + "\n"

    good = [{"0": 0, "1": 1, "2": 2}, {"0": 3, "1": 4, "2": 5}]
    assert check(0, out(good)) is None
    assert check(0, out([{"0": 0, "1": 1, "2": 3}, {"0": 2, "1": 4, "2": 5}])) is not None  # non-edge
    assert check(0, out([good[0], {"0": 2, "1": 4, "2": 5}])) is not None  # overlap
    assert check(0, out(good[:1])) is not None  # vertices left uncovered
    assert check(0, out([good[0], {"0": 3, "1": 4}])) is not None  # partial map
    assert check(1, "NO\n") is not None  # wrong verdict


def test_cover_check_and_hajnal_szemeredi_guarantee(tmp_path):
    k3 = write_graph(tmp_path, "k3", 3, clique_edges(range(3)))
    k6 = write_graph(tmp_path, "k6", 6, clique_edges(range(6)))
    check = checks.cover_checker(k6, k3, 4, 3)
    assert check(0, json.dumps({"0": 4, "1": 0, "2": 1})) is None
    assert check(0, json.dumps({"0": 2, "1": 0, "2": 1})) is not None  # misses w
    assert check(1, "NONE\n") is not None
    # C6 has minimum degree 2 < (1 - 1/3) * 6, so YES is not promised
    c6 = write_graph(tmp_path, "c6", 6, [(i, (i + 1) % 6) for i in range(6)])
    assert checks.cover_checker(c6, k3, 0, 3)(0, json.dumps({"0": 0, "1": 1, "2": 2})) is not None


def test_verify_check_recomputes_the_degree_sum(tmp_path):
    fd = write_graph(tmp_path, "h", 3, clique_edges(range(3)))
    g6 = encode_graph6(6, multipartite_edges([3, 3]))  # degree sums 6 on non-edges
    out = json.dumps({"ore_ok": True, "no_cover": "yes", "divisibility_ok": True, "nodes": 1})
    for bound, ok in ((6, True), (7, False)):
        inst = tmp_path / f"inst{bound}.json"
        inst.write_text(json.dumps({"graph6": g6, "w": 0, "claimed_bound": frac(bound)}))
        result = checks.verify_checker(str(inst), fd)(0, out)
        assert (result is None) == ok
    inst = tmp_path / "inst6.json"
    wrong = json.dumps({"ore_ok": True, "no_cover": "no", "divisibility_ok": True, "nodes": 1})
    assert checks.verify_checker(str(inst), fd)(0, wrong) is not None
    assert checks.verify_checker(str(inst), fd)(1, out) is not None


def test_probe_check():
    check = checks.probe_checker(10)
    good = {"samples": 10, "condition_hits": 3, "violations": 0, "unknowns": 0, "violation_graphs": []}
    assert check(0, json.dumps(good)) is None
    assert check(1, json.dumps(dict(good, violations=1))) is not None
    assert check(0, json.dumps(dict(good, unknowns=1))) is not None
    assert check(0, json.dumps(dict(good, condition_hits=0))) is not None
