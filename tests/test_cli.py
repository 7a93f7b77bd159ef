import hashlib
import io
import json
import os
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import orepack as op
from orepack import cli, coloring, parameters, probes
from orepack.cli import build_parser, main

from fixtures import dense_g30, pendant_triangle


def run_cli(capsys, *argv, run=main):
    """(exit code, stdout, stderr) of one ``main`` call, or of ``run``, in
    this process."""
    try:
        code = run(list(argv))
    except SystemExit as exc:  # argparse's usage errors and --help
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def fdiamond_file(tmp_path):
    path = tmp_path / "fd.g6"
    path.write_text(op.to_graph6(op.construct_fdiamond()) + "\n")
    return str(path)


@pytest.fixture()
def k4_minus_file(tmp_path):
    g = op.Graph.from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
    path = tmp_path / "k4m.g6"
    path.write_text(op.to_graph6(g) + "\n")
    return str(path)


def graph_file(tmp_path, name, g):
    path = tmp_path / name
    path.write_text(op.to_graph6(g) + "\n")
    return str(path)


def test_params_fdiamond(capsys, fdiamond_file):
    code, out, _ = run_cli(capsys, "params", fdiamond_file)
    assert code == 0
    payload = json.loads(out)
    assert payload["chi_ore"] == {"num": 14, "den": 5}
    assert payload["ore_coefficient"] == {"num": 9, "den": 7}


def test_params_k4_minus(capsys, k4_minus_file):
    code, out, _ = run_cli(capsys, "params", k4_minus_file)
    assert code == 0
    payload = json.loads(out)
    assert payload["ce"] == {"finite": False, "value": None}
    assert payload["chi_ore"] == {"num": 3, "den": 1}


def test_params_edgeless_exits_3(capsys, tmp_path):
    path = graph_file(tmp_path, "empty.g6", op.empty_graph(4))
    code, _, err = run_cli(capsys, "params", path)
    assert code == 3
    assert "edge" in err


def test_params_parse_error_exits_2(capsys, tmp_path):
    path = tmp_path / "bad.g6"
    path.write_text("!!!not a graph!!!\n")
    code, _, _ = run_cli(capsys, "params", str(path))
    assert code == 2


def test_params_missing_file_exits_2(capsys):
    code, _, _ = run_cli(capsys, "params", "/nonexistent/path.g6")
    assert code == 2


def test_params_non_ascii_file_exits_2(capsys, tmp_path):
    path = tmp_path / "bad.g6"
    path.write_bytes(b"\xff\xfe")
    code, out, err = run_cli(capsys, "params", str(path))
    assert (code, out) == (2, "")
    assert "input error" in err


def test_params_separator_after_graph6_exits_2(capsys, tmp_path):
    # the unit separator is ASCII but neither whitespace nor graph6
    path = tmp_path / "k2.g6"
    path.write_text("A_\x1f\n")
    code, out, err = run_cli(capsys, "params", str(path))
    assert (code, out) == (2, "")
    assert "outside graph6 range" in err


def test_pack_separator_in_edge_list_exits_2(capsys, tmp_path):
    # an edge line ending in the unit separator is not the pair "0 1"
    k2 = graph_file(tmp_path, "k2.g6", op.complete_graph(2))
    path = tmp_path / "k2.txt"
    path.write_text("2 1\n0 1\x1f\n")
    code, out, err = run_cli(capsys, "pack", str(path), k2)
    assert (code, out) == (2, "")
    assert "bad edge line" in err


def test_pack_yes_no(capsys, tmp_path):
    c4 = graph_file(tmp_path, "c4.g6", op.cycle_graph(4))
    k2 = graph_file(tmp_path, "k2.g6", op.complete_graph(2))
    star = graph_file(tmp_path, "star.g6", op.star_graph(3))
    c6 = graph_file(tmp_path, "c6.g6", op.cycle_graph(6))
    k3 = graph_file(tmp_path, "k3.g6", op.complete_graph(3))

    code, out, _ = run_cli(capsys, "pack", c4, k2)
    assert code == 0 and out.splitlines()[0] == "YES"

    code, out, _ = run_cli(capsys, "pack", star, k2)
    assert code == 1 and out.splitlines()[0] == "NO"

    code, out, _ = run_cli(capsys, "pack", c6, k3)
    assert code == 1 and out.splitlines()[0] == "NO"


def test_pack_find_prints_verified_certificate(capsys, tmp_path):
    c4 = graph_file(tmp_path, "c4.g6", op.cycle_graph(4))
    k2 = graph_file(tmp_path, "k2.g6", op.complete_graph(2))
    code, out, _ = run_cli(capsys, "pack", c4, k2, "--find")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "YES"
    payload = json.loads(lines[1])
    embs = [op.Embedding(tuple(d[str(i)] for i in range(2))) for d in payload["certificate"]]
    assert op.verify_packing(op.cycle_graph(4), op.complete_graph(2), embs)


def run_optimized(patch, *argv):
    """Run the CLI in a `python -O` process, which strips asserts, after
    executing ``patch`` with ``op`` and ``cli`` imported."""
    script = (
        "import sys, orepack as op, orepack.cli as cli\n"
        f"{patch}\n"
        "sys.exit(cli.main(sys.argv[1:]))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(op.__file__).parents[1]))
    return subprocess.run(
        [sys.executable, "-O", "-c", script, *argv], capture_output=True, text=True, env=env
    )


def test_pack_find_rejected_certificate_under_optimize(tmp_path):
    # the certificate check must survive `python -O`, which strips asserts,
    # and must run for a plain `pack` as well as for `pack --find`
    c4 = graph_file(tmp_path, "c4.g6", op.cycle_graph(4))
    k2 = graph_file(tmp_path, "k2.g6", op.complete_graph(2))
    for extra in (["--find"], []):
        proc = run_optimized("cli.verify_packing = lambda *args: False", "pack", c4, k2, *extra)
        assert proc.returncode == 4
        assert proc.stdout == "UNKNOWN\n"


def test_cover_rejected_embedding_under_optimize(tmp_path):
    # a cover embedding that is no copy of H, or a copy that misses w, gives
    # no answer, also under `python -O`
    k4 = graph_file(tmp_path, "k4.g6", op.complete_graph(4))
    k3 = graph_file(tmp_path, "k3.g6", op.complete_graph(3))
    patches = (
        "cli.is_copy = lambda *args: False",
        "cli.copy_covering_vertex = lambda *args: op.CoverSearchResult("
        "op.Verdict.YES, op.Embedding((1, 2, 3)), 1)",
    )
    for patch in patches:
        proc = run_optimized(patch, "cover", k4, k3, "0")
        assert proc.returncode == 4
        assert proc.stdout == "UNKNOWN\n"
        assert "failed verification" in proc.stderr


def test_pack_rejected_certificate_is_an_internal_error(capsys, tmp_path, monkeypatch):
    # the same check in this process: UNKNOWN on stdout, the internal error
    # on stderr, exit 4, with or without --find
    c4 = graph_file(tmp_path, "c4.g6", op.cycle_graph(4))
    k2 = graph_file(tmp_path, "k2.g6", op.complete_graph(2))
    monkeypatch.setattr(cli, "verify_packing", lambda *args: False)
    for extra in (["--find"], []):
        code, out, err = run_cli(capsys, "pack", c4, k2, *extra)
        assert (code, out) == (4, "UNKNOWN\n")
        assert "internal error: the packing certificate failed verification" in err


def test_cover_rejected_embedding_is_an_internal_error(capsys, tmp_path, monkeypatch):
    k4 = graph_file(tmp_path, "k4.g6", op.complete_graph(4))
    k3 = graph_file(tmp_path, "k3.g6", op.complete_graph(3))
    monkeypatch.setattr(cli, "is_copy", lambda *args: False)
    code, out, err = run_cli(capsys, "cover", k4, k3, "0")
    assert (code, out) == (4, "UNKNOWN\n")
    assert "internal error: the cover embedding failed verification" in err


def test_params_enumeration_cap_exits_4(capsys, tmp_path, monkeypatch):
    # C15 is connected and has 5,461 optimal 3-colorings, each one completed
    # coloring of the profile search, more than the lowered cap allows
    path = graph_file(tmp_path, "c15.g6", op.cycle_graph(15))
    monkeypatch.setattr(
        parameters, "class_size_profiles", lambda h: coloring.class_size_profiles(h, cap=100)
    )
    code, out, err = run_cli(capsys, "params", path)
    assert code == 4
    assert out == ""
    assert "100" in err


def test_params_cap_on_colorings_counted_in_bulk_exits_4(capsys, tmp_path, monkeypatch):
    # a triangle with 12 pendant leaves has 4,096 optimal colorings, all
    # counted in one bulk step from the triangle's coloring: the cap still
    # counts each of them
    path = graph_file(tmp_path, "pendants.g6", pendant_triangle(12))
    for cap, want in ((4_095, 4), (4_096, 0)):
        monkeypatch.setattr(
            parameters, "class_size_profiles", lambda h, cap=cap: coloring.class_size_profiles(h, cap=cap)
        )
        code, out, err = run_cli(capsys, "params", path)
        assert code == want
        if want:
            assert out == ""
            assert "4095" in err
        else:
            assert json.loads(out)["sigma"] == 1


def test_params_cap_on_a_recounted_tailless_component_exits_4(capsys, tmp_path, monkeypatch):
    # G(30,0.7)#2 has no tail and 4,102 optimal colorings: its window pass
    # checks the first 31 and runs on to the end on the same meter, one
    # step per coloring, so a cap of 4,101 stops it and 4,102 does not.
    # (Before it ran on, the pass stopped at the 31st and a recount spent
    # the 4,102 steps on a meter of its own, with the same outcomes.)
    path = graph_file(tmp_path, "dense.g6", dense_g30())
    for cap, want in ((4_101, 4), (4_102, 0)):
        monkeypatch.setattr(
            parameters, "class_size_profiles", lambda h, cap=cap: coloring.class_size_profiles(h, cap=cap)
        )
        code, out, err = run_cli(capsys, "params", path)
        assert code == want
        if want:
            assert out == ""
            assert "4101" in err
        else:
            assert json.loads(out)["sigma"] == 1


def test_pack_budget_unknown(capsys, tmp_path):
    inst = op.construct_prop2(3, 1, 7, 7)
    full = op.has_perfect_packing(inst.graph, op.construct_fdiamond())
    assert full.verdict is op.Verdict.NO
    g = graph_file(tmp_path, "big.g6", inst.graph)
    fd = graph_file(tmp_path, "fd.g6", op.construct_fdiamond())
    code, out, _ = run_cli(capsys, "pack", g, fd, "--budget", str(full.nodes - 1))
    assert code == 4 and out.splitlines()[0] == "UNKNOWN"


def test_pack_budget_too_small_for_the_search_still_refutes(capsys, tmp_path):
    # the K4 space barrier [7, 9, 8, 8] less an edge between its classes of
    # 8 has the open-twin classes [7, 9, 1, 7, 1, 7]; the type-count engine
    # refutes the multipartite graph on them in 1 node, since 8 copies of
    # K4 cannot cover the class of 9. The search alone takes 2,752 nodes
    g, _ = op.complete_multipartite([7, 9, 8, 8])
    g = op.Graph.from_edges(g.n, [e for e in g.edges() if e != (16, 24)])
    host = graph_file(tmp_path, "barrier.g6", g)
    k4 = graph_file(tmp_path, "k4.g6", op.complete_graph(4))
    code, out, _ = run_cli(capsys, "pack", host, k4, "--budget", "1")
    assert code == 1 and out.splitlines()[0] == "NO"


def test_pack_empty_h_exits_3(capsys, tmp_path):
    k2 = graph_file(tmp_path, "k2.g6", op.complete_graph(2))
    empty = tmp_path / "empty.g6"
    empty.write_text("?\n")
    code, out, err = run_cli(capsys, "pack", k2, str(empty))
    assert (code, out) == (3, "")
    assert "precondition error" in err


def test_cover(capsys, tmp_path, fdiamond_file):
    inst = op.construct_prop1(3, 9)
    g = graph_file(tmp_path, "p1.g6", inst.graph)
    k3 = graph_file(tmp_path, "k3.g6", op.complete_graph(3))
    k4 = graph_file(tmp_path, "k4.g6", op.complete_graph(4))

    code, out, _ = run_cli(capsys, "cover", g, k3, "0")
    assert code == 1 and out.strip() == "NONE"

    code, out, _ = run_cli(capsys, "cover", k4, k3, "0")
    assert code == 0
    emb = json.loads(out)
    assert 0 in set(emb.values())

    code, _, err = run_cli(capsys, "cover", g, k3, "99")
    assert code == 2 and "out of range" in err


def test_cover_budget_unknown(capsys, tmp_path, fdiamond_file):
    inst = op.construct_prop2(3, 1, 7, 7)
    full = op.copy_covering_vertex(inst.graph, op.construct_fdiamond(), 0)
    g = graph_file(tmp_path, "big.g6", inst.graph)
    budget = str(full.nodes - 1)
    code, out, _ = run_cli(capsys, "cover", g, fdiamond_file, "0", "--budget", budget)
    assert code == 4 and out.strip() == "UNKNOWN"


def test_construct_prop2_and_verify(capsys, tmp_path, fdiamond_file):
    code, out, _ = run_cli(
        capsys, "construct", "prop2", "--r", "3", "--m", "1", "--h-order", "7", "--t", "7"
    )
    assert code == 0
    lines = out.splitlines()
    meta = json.loads(lines[1])
    assert lines[0] == meta["graph6"]
    assert meta["claimed_bound"] == {"num": 55, "den": 1}
    g = op.parse_graph6(lines[0])
    assert g.n == 49

    inst_path = tmp_path / "inst.json"
    inst_path.write_text(lines[1])
    code, out, _ = run_cli(capsys, "verify", str(inst_path), fdiamond_file)
    assert code == 0
    report = json.loads(out)
    assert report == {
        "ore_ok": True,
        "no_cover": "yes",
        "divisibility_ok": True,
        "nodes": report["nodes"],
    }


def test_construct_divisibility_error(capsys):
    code, _, err = run_cli(
        capsys, "construct", "prop2", "--r", "3", "--m", "1", "--h-order", "7", "--t", "6"
    )
    assert code == 3
    assert "divisibility" in err


def test_construct_fdiamond_and_params_pipe(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "construct", "fdiamond")
    assert code == 0
    g6 = out.splitlines()[0]
    path = tmp_path / "fd.g6"
    path.write_text(g6 + "\n")
    code, out, _ = run_cli(capsys, "params", str(path))
    assert code == 0
    assert json.loads(out)["chi_ore"] == {"num": 14, "den": 5}


def test_construct_prop1_order_exits_3(capsys):
    code, out, err = run_cli(capsys, "construct", "prop1", "--r", "3", "--n", "200")
    assert (code, out) == (3, "")
    assert "exceeds 128" in err


def test_construct_missing_flag_exits_3(capsys):
    code, _, err = run_cli(capsys, "construct", "prop1", "--r", "3")
    assert code == 3
    assert "--n" in err


def test_construct_prop2_bad_parameter_exits_3(capsys):
    for m, h_order, message in (("-1", "7", "need m >= 0"), ("1", "0", "need h_order >= 1")):
        code, out, err = run_cli(
            capsys, "construct", "prop2", "--r", "3", "--m", m, "--h-order", h_order, "--t", "7"
        )
        assert (code, out) == (3, "")
        assert message in err


def test_construct_multipartite_and_blowup(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "construct", "multipartite", "--sizes", "2,2,2")
    assert code == 0
    lines = out.splitlines()
    assert op.parse_graph6(lines[0]).edge_count() == 12
    assert json.loads(lines[1])["classes"] == [[0, 1], [2, 3], [4, 5]]

    k3 = graph_file(tmp_path, "k3.g6", op.complete_graph(3))
    code, out, _ = run_cli(capsys, "construct", "blowup", "--graph", k3, "--t", "2")
    assert code == 0
    assert op.parse_graph6(out.splitlines()[0]) == op.complete_multipartite([2, 2, 2])[0]


def test_construct_prints_the_four_byte_order_field(capsys, fdiamond_file):
    # orders past 62 write '~' and three order characters before the body
    cases = (
        (["blowup", "--graph", fdiamond_file, "--t", "18"], op.blow_up(op.construct_fdiamond(), 18)),
        (["multipartite", "--sizes", "64,64"], op.complete_multipartite([64, 64])[0]),
    )
    for argv, built in cases:
        code, out, _ = run_cli(capsys, "construct", *argv)
        word = out.splitlines()[0]
        assert code == 0 and word.startswith("~")
        assert op.parse_graph6(word) == built and built.n in (126, 128)


def test_verify_mismatch_exits_3(capsys, tmp_path):
    inst = op.construct_prop1(3, 9)
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(inst.to_json_dict()))
    k4 = graph_file(tmp_path, "k4.g6", op.complete_graph(4))
    code, _, err = run_cli(capsys, "verify", str(path), k4)
    assert code == 3
    assert "mismatch" in err
    # a family without a bound stays a precondition error
    path.write_text(json.dumps(dict(inst.to_json_dict(), family="hdiamond", params={})))
    code, _, err = run_cli(capsys, "verify", str(path), k4)
    assert code == 3
    assert "no verifiable bound" in err
    # two F-diamonds keep chi 3 and CE 1 but have 14 vertices, not 7
    path.write_text(json.dumps(op.construct_prop2(3, 1, 7, 7).to_json_dict()))
    fd = op.construct_fdiamond()
    fd2 = graph_file(tmp_path, "fd2.g6", op.disjoint_union(fd, fd))
    code, out, err = run_cli(capsys, "verify", str(path), fd2)
    assert (code, out) == (3, "")
    assert "order mismatch: |h|=14, instance h_order=7" in err


def test_verify_preconditions_on_h_exit_3(capsys, tmp_path, fdiamond_file):
    # each precondition that h must meet for the instance's bound, checked
    # before any search, with nothing on stdout
    path = tmp_path / "inst.json"
    cases = [
        (op.construct_prop1(3, 9), fdiamond_file, "prop1 requires an H with infinite colour extension number"),
        (
            op.construct_prop2(3, 1, 7, 7),
            graph_file(tmp_path, "c7.g6", op.cycle_graph(7)),
            "extension number mismatch: CE(h)=0, instance m=1",
        ),
        (
            op.construct_prop1(3, 9),
            graph_file(tmp_path, "k4.g6", op.complete_graph(4)),
            "chromatic number mismatch: chi(h)=4, instance r=3",
        ),
    ]
    for inst, h_file, message in cases:
        path.write_text(json.dumps(inst.to_json_dict()))
        code, out, err = run_cli(capsys, "verify", str(path), h_file)
        assert (code, out) == (3, "")
        assert message in err


def test_verify_unknown_exits_4(capsys, tmp_path, fdiamond_file):
    inst = op.construct_prop2(3, 1, 7, 7)
    full = op.verify_lower_bound(inst, op.construct_fdiamond())
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(inst.to_json_dict()))
    budget = str(full.nodes - 1)
    code, _, _ = run_cli(capsys, "verify", str(path), fdiamond_file, "--budget", budget)
    assert code == 4


def test_verify_failed_check_exits_1(capsys, tmp_path, fdiamond_file):
    # claim one more than the least degree sum: the cover search still
    # proves w uncovered, but the Ore check fails
    inst = op.construct_prop2(3, 1, 7, 7)
    full = op.verify_lower_bound(inst, op.construct_fdiamond())
    least = op.min_ore_degree_sum(inst.graph)
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(dict(inst.to_json_dict(), claimed_bound={"num": least + 1, "den": 1})))
    code, out, _ = run_cli(capsys, "verify", str(path), fdiamond_file)
    assert code == 1
    assert out == json.dumps(
        {"ore_ok": False, "no_cover": "yes", "divisibility_ok": True, "nodes": full.nodes},
        separators=(",", ":"),
    ) + "\n"


def test_verify_bad_instance_exits_2(capsys, tmp_path, fdiamond_file):
    path = tmp_path / "inst.json"
    path.write_text('{"graph6": "A_"}')
    code, _, _ = run_cli(capsys, "verify", str(path), fdiamond_file)
    assert code == 2
    # K3 meets prop1's precondition, so a truncated instance would be checked
    k3_file = graph_file(tmp_path, "k3.g6", op.complete_graph(3))
    good = op.construct_prop1(3, 9).to_json_dict()
    bad = [
        dict(good, params={"n": 9}),  # a bounded family without "r"
        dict(good, params=5),  # params not an object
        dict(good, claimed_bound={"num": 1, "den": 0}),
        # graph6 not a string, or w not finite: a traceback before
        dict(good, graph6=5),
        dict(good, graph6=None),
        dict(good, w=float("inf")),
        # floats and bools are not integers: before, they were truncated
        # and the truncated instance was checked
        dict(good, w=0.7),
        dict(good, claimed_bound={"num": good["claimed_bound"]["num"] + 0.9, "den": 1}),
        dict(good, params=dict(good["params"], m=1.9)),
        dict(good, w=True),
        dict(good, family=5),
    ]
    for payload in bad:
        path.write_text(json.dumps(payload))
        code, out, err = run_cli(capsys, "verify", str(path), k3_file)
        assert (code, out) == (2, "")
        assert "bad instance JSON" in err
    for w in (9, -1):  # prop1(3, 9) has 9 vertices
        path.write_text(json.dumps(dict(good, w=w)))
        code, out, err = run_cli(capsys, "verify", str(path), k3_file)
        assert (code, out) == (2, "")
        assert "bad instance JSON: distinguished vertex out of range" in err
    # nesting past the recursion limit, and an integer past Python's
    # 4,300-digit limit: a traceback and exit 1 before
    deep = "[" * 1000 + "]" * 1000
    long_w = json.dumps(dict(good, w="W")).replace('"W"', "7" * 5000)
    for text in (deep, long_w):
        path.write_text(text)
        code, out, err = run_cli(capsys, "verify", str(path), k3_file)
        assert (code, out) == (2, "")
        assert err.startswith("input error: bad instance JSON: ") and err.count("\n") == 1


def test_verify_against_the_empty_graph_exits_3(capsys, tmp_path):
    # chi(h) is found first and raises, so the divisibility check that
    # divides by |h| never meets a 0-vertex h
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(op.construct_prop1(3, 9).to_json_dict()))
    empty = graph_file(tmp_path, "k0.g6", op.empty_graph(0))
    code, out, err = run_cli(capsys, "verify", str(path), empty)
    assert (code, out) == (3, "")
    assert "chromatic number of the empty graph is undefined" in err


def test_verify_non_utf8_instance_exits_2(capsys, tmp_path, fdiamond_file):
    path = tmp_path / "inst.json"
    path.write_bytes(b'{"graph6": "\xff\xfe"}')
    code, out, err = run_cli(capsys, "verify", str(path), fdiamond_file)
    assert (code, out) == (2, "")
    assert "input error" in err


def test_probe_cli_and_determinism(capsys):
    args = [
        "probe", "--family", "kierstead-kostochka",
        "--n", "6", "--r", "3", "--samples", "60", "--seed", "11",
    ]
    code, out1, _ = run_cli(capsys, *args)
    assert code == 0
    payload = json.loads(out1)
    assert payload["violations"] == 0
    code, out2, _ = run_cli(capsys, *args)
    assert out1 == out2


def test_probe_budget_exhausted_exits_4(capsys):
    code, out, _ = run_cli(
        capsys, "probe", "--family", "hajnal-szemeredi", "--n", "9", "--r", "3",
        "--samples", "30", "--seed", "1", "--budget", "1",
    )
    payload = json.loads(out)
    assert (code, payload["violations"], payload["unknowns"]) == (4, 0, 7)


def test_probe_violation_exits_1(capsys, monkeypatch):
    # a NO on a graph that meets the hypothesis contradicts the theorem
    monkeypatch.setattr(
        probes,
        "has_perfect_packing",
        lambda g, h, budget: op.PackingResult(op.Verdict.NO, None, 0, budget),
    )
    code, out, err = run_cli(
        capsys, "probe", "--family", "kierstead-kostochka",
        "--n", "6", "--r", "3", "--samples", "60", "--seed", "11",
    )
    payload = json.loads(out)
    assert code == 1
    assert payload["violations"] == payload["condition_hits"] > 0
    for g6 in payload["violation_graphs"]:
        assert f"violation: {g6}" in err.splitlines()


def test_probe_bad_config_exits_3(capsys):
    code, _, _ = run_cli(
        capsys, "probe", "--family", "hajnal-szemeredi", "--n", "7", "--r", "3",
        "--samples", "5",
    )
    assert code == 3


def test_probe_order_above_128_exits_3(capsys):
    code, out, err = run_cli(
        capsys, "probe", "--family", "average-degree", "--n", "129", "--samples", "1",
    )
    assert (code, out) == (3, "")
    assert "precondition error" in err


def test_probe_negative_seed_exits_3(capsys):
    # seed -5 would replay seed 5's first sample
    code, out, err = run_cli(
        capsys, "probe", "--family", "average-degree", "--n", "30", "--samples", "2", "--seed", "-5",
    )
    assert (code, out) == (3, "")
    assert "need a seed of at least 0, got -5" in err


def test_probe_at_order_128_matches_its_pin(capsys):
    # the largest order of the contract: each sample draws 8,128 pairs in
    # several blocks
    code, out, _ = run_cli(
        capsys, "probe", "--family", "average-degree", "--n", "128", "--samples", "3", "--seed", "7",
    )
    assert code == 0
    assert out == '{"samples":3,"condition_hits":237,"violations":0,"unknowns":0,"violation_graphs":[]}\n'


# each verb that takes --budget, with the arguments of a call that runs
BUDGET_CALLS = {
    "pack": ["pack", "k6.g6", "k3.g6"],
    "cover": ["cover", "k6.g6", "k3.g6", "0"],
    "verify": ["verify", "inst.json", "k3.g6"],
    "probe": ["probe", "--family", "hajnal-szemeredi", "--n", "9", "--r", "3", "--samples", "5"],
}


@pytest.mark.parametrize("verb", list(BUDGET_CALLS))
def test_negative_budget_exits_2(capsys, tmp_path, monkeypatch, verb):
    monkeypatch.chdir(tmp_path)
    graph_file(tmp_path, "k6.g6", op.complete_graph(6))
    graph_file(tmp_path, "k3.g6", op.complete_graph(3))
    Path("inst.json").write_text(json.dumps(op.construct_prop1(3, 9).to_json_dict()))
    argv = BUDGET_CALLS[verb]
    code, out, err = run_cli(capsys, *argv, "--budget", "-1")
    assert (code, out) == (2, "")
    assert "argument --budget: must be at least 0, got -1" in err
    code, out, err = run_cli(capsys, *argv, "--budget", "abc")
    assert (code, out) == (2, "")
    assert "argument --budget: invalid int value: 'abc'" in err
    code, out, _ = run_cli(capsys, *argv, "--budget", "0")
    assert code != 2 and out != ""


def _stdin_of(monkeypatch, data: bytes) -> None:
    """Make ``data`` the bytes of stdin, behind a text stream as in a
    process."""
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(data)))


def test_stdin_dash_input(capsys, monkeypatch):
    _stdin_of(monkeypatch, op.to_graph6(op.construct_fdiamond()).encode())
    code, out, _ = run_cli(capsys, "params", "-")
    assert code == 0
    assert json.loads(out)["chi"] == 3


def test_stdin_bytes_decode_as_a_file_does(capsys, monkeypatch, tmp_path, fdiamond_file):
    # stdin was read as text in the locale's encoding: b"B\xc3\xa9" read
    # as a character outside graph6's range, and 0xff as '\udcff'
    ascii_error = "input error: 'ascii' codec can't decode byte 0x{:02x} in position 1: ordinal not in range(128)\n"
    for data in (b"B\xc3\xa9\n", b"A\xff\n"):
        path = tmp_path / "na.g6"
        path.write_bytes(data)
        _stdin_of(monkeypatch, data)
        expected = (2, "", ascii_error.format(data[1]))
        assert run_cli(capsys, "params", str(path)) == expected
        assert run_cli(capsys, "params", "-") == expected
    data = b'{"graph6":\r\n "\xff\xfe"}'
    path = tmp_path / "inst.json"
    path.write_bytes(data)
    _stdin_of(monkeypatch, data)
    expected = (2, "", "input error: 'utf-8' codec can't decode byte 0xff in position 14: invalid start byte\n")
    assert run_cli(capsys, "verify", str(path), fdiamond_file) == expected
    assert run_cli(capsys, "verify", "-", fdiamond_file) == expected
    # CR and CRLF line ends read as LF from stdin too
    _stdin_of(monkeypatch, b"# a 4-cycle\r\n4 4\r0 1\r\n1 2\r2 3\r\n3 0\r\n")
    code, out, _ = run_cli(capsys, "params", "-")
    assert code == 0 and json.loads(out)["chi"] == 2


def _open_error(path) -> str:
    """What ``open`` says when it cannot read ``path``."""
    with pytest.raises(OSError) as raised:
        with open(path, "rb") as fh:
            fh.read()
    return str(raised.value)


def test_missing_file_error_names_the_path(capsys, tmp_path, fdiamond_file):
    path = str(tmp_path / "missing.g6")
    expected = (2, "", f"input error: {_open_error(path)}\n")
    assert expected[2] == f"input error: [Errno 2] No such file or directory: {path!r}\n"
    assert run_cli(capsys, "params", path) == expected
    assert run_cli(capsys, "pack", fdiamond_file, path) == expected
    assert run_cli(capsys, "verify", path, fdiamond_file) == expected


def test_directory_error_names_the_path(capsys, tmp_path, fdiamond_file):
    # a directory opens with os.open, and os.read fails without the path
    path = tmp_path / "dir.g6"
    path.mkdir()
    expected = (2, "", f"input error: {_open_error(path)}\n")
    assert expected[2] == f"input error: [Errno 21] Is a directory: {str(path)!r}\n"
    assert run_cli(capsys, "params", str(path)) == expected
    assert run_cli(capsys, "cover", fdiamond_file, str(path), "0") == expected
    assert run_cli(capsys, "verify", str(path), fdiamond_file) == expected


def test_files_longer_than_one_read_arrive_whole(capsys, tmp_path, monkeypatch):
    g = op.construct_fdiamond()
    paths = [graph_file(tmp_path, "g.g6", g), tmp_path / "g.txt"]
    paths[1].write_text("# padding" * 10 + "\n" + op.to_edge_list(g))
    expected = run_cli(capsys, "params", paths[0])
    for chunk in (1, 7, 1 << 16):
        monkeypatch.setattr(cli, "_CHUNK", chunk)
        for path in paths:
            assert run_cli(capsys, "params", str(path)) == expected


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "orepack", "construct", "fdiamond"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == op.to_graph6(op.construct_fdiamond())


def _fresh_process(argv, cwd, columns):
    """(exit code, stdout, stderr) of ``argv`` run alone in a new process."""
    env = dict(os.environ, PYTHONPATH=str(Path(op.__file__).parents[1]), COLUMNS=str(columns))
    proc = subprocess.run(
        [sys.executable, "-m", "orepack", *argv], capture_output=True, text=True, env=env, cwd=cwd
    )
    return proc.returncode, proc.stdout, proc.stderr


# calls that could leak state between parses of one parser: a usage error,
# help, a flag given and then left out, a budget given and then left out
REUSE_SEQUENCE = (
    ["pack", "c4.g6"],
    ["params", "--help"],
    ["pack", "--find", "c4.g6", "k2.g6"],
    ["pack", "c4.g6", "k2.g6"],
    ["cover", "--budget", "1", "fd.g6", "k3.g6", "0"],
    ["cover", "fd.g6", "k3.g6", "0"],
    ["params", "fd.g6"],
)


def test_one_parser_serves_every_call_as_a_fresh_process_would(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for name, g in (("c4", op.cycle_graph(4)), ("k2", op.complete_graph(2)),
                    ("k3", op.complete_graph(3)), ("fd", op.construct_fdiamond())):
        graph_file(tmp_path, f"{name}.g6", g)
    monkeypatch.setenv("COLUMNS", "80")
    runs = [run_cli(capsys, *argv) for argv in REUSE_SEQUENCE]
    assert build_parser() is build_parser()
    assert [code for code, _, _ in runs] == [2, 0, 0, 0, 4, 0, 0]
    assert runs[3][1] == "YES\n"  # the certificate of --find is not printed again
    for argv, run in zip(REUSE_SEQUENCE, runs):
        assert run == _fresh_process(argv, tmp_path, 80), argv
    # help is wrapped to the width of the moment, not the width at build time
    description = "Exact toolkit for perfect-packing parameters under Ore-type degree conditions"
    for columns in (40, 120):
        monkeypatch.setenv("COLUMNS", str(columns))
        run = run_cli(capsys, "--help")
        assert run == _fresh_process(["--help"], tmp_path, columns)
        assert (description in run[1].splitlines()) == (columns == 120)


FUZZ_CHARS = "0123456789 \n\t#-+_?@~ABz>{}[]\":,.\x7f\u00e9"


def _mutants(rng, text, count):
    """``text`` and ``count`` copies of it with one to three characters
    inserted, deleted or replaced."""
    out = [text]
    for _ in range(count):
        t = text
        for _ in range(rng.randrange(1, 4)):
            at = rng.randrange(len(t) + 1)
            kind = rng.choice("idr") if at < len(t) else "i"
            new = "" if kind == "d" else rng.choice(FUZZ_CHARS)
            t = t[:at] + new + t[at + (kind != "i"):]
        out.append(t)
    return out


def _rejected(read, text):
    """Whether the reader behind the CLI must reject ``text``."""
    try:
        read(text)
    except ValueError:  # GraphFormatError and json.JSONDecodeError
        return True
    return False


def _graph_rejected(text):
    # graph files are read as ASCII
    return not text.isascii() or _rejected(op.parse_graph_text, text)


def _instance_rejected(text):
    return _rejected(lambda t: op.ExtremalInstance.from_json_dict(json.loads(t)), text)


def test_fuzzed_inputs_exit_2_exactly_when_rejected(capsys, tmp_path, monkeypatch):
    # mutated graph6, edge-list and instance texts through params, pack and
    # verify, thousands of calls on one parser: no traceback, and exit 2
    # exactly on the texts the format's reader rejects
    monkeypatch.chdir(tmp_path)
    rng = random.Random(2026)
    graph_file(tmp_path, "k2.g6", op.complete_graph(2))
    graph_file(tmp_path, "k3.g6", op.complete_graph(3))
    graph_file(tmp_path, "k6.g6", op.complete_graph(6))
    graph_file(tmp_path, "fd.g6", op.construct_fdiamond())
    cases = []
    for _ in range(100):
        g = op.random_graph(rng.randrange(0, 10), rng.random(), rng)
        for text in (op.to_graph6(g) + "\n", op.to_edge_list(g)):
            for mutant in _mutants(rng, text, 3):
                rejected = _graph_rejected(mutant)
                for argv in (["params", "g.txt"], ["pack", "g.txt", "k2.g6", "--budget", "200"],
                             ["pack", "k6.g6", "g.txt", "--budget", "200"]):
                    cases.append(("g.txt", mutant, argv, rejected))
    for inst, h in ((op.construct_prop1(3, 9), "k3.g6"), (op.construct_prop2(3, 1, 7, 7), "fd.g6")):
        for mutant in _mutants(rng, json.dumps(inst.to_json_dict()), 150):
            argv = ["verify", "inst.json", h, "--budget", "200"]
            cases.append(("inst.json", mutant, argv, _instance_rejected(mutant)))
    codes = Counter()
    for path, text, argv, rejected in cases:
        Path(path).write_text(text, encoding="utf-8")
        code, _, err = run_cli(capsys, *argv)
        codes[code] += 1
        assert (code == 2) == rejected, (argv, text, code, err)
        assert code in (0, 1, 2, 3, 4) and "Traceback" not in err, (argv, text, err)
    assert len(cases) > 2000 and min(codes[c] for c in (0, 1, 2, 3)) > 50


def _without(argv, flag):
    """``argv`` with ``flag`` and its value left out."""
    i = argv.index(flag)
    return argv[:i] + argv[i + 2:]


CONSTRUCT_OK = (
    ["construct", "prop1", "--r", "3", "--n", "9"],
    ["construct", "prop2", "--r", "3", "--m", "1", "--h-order", "7", "--t", "7"],
    ["construct", "prop2-padded", "--r", "3", "--m", "1", "--h-order", "7", "--n", "56"],
    ["construct", "fdiamond"],
    ["construct", "hdiamond", "--k", "2", "--r", "4", "--sizes", "3,4,7,7"],
    ["construct", "multipartite", "--sizes", "2,3,4"],
    ["construct", "blowup", "--graph", "k3.g6", "--t", "2"],
)

# every family with valid flags and with each of its flags left out, bad
# size lists, orders above 128, a missing --graph file, ignored flags, and
# probe configs that run or are rejected
CLI_GRID = (
    list(CONSTRUCT_OK)
    + [_without(argv, flag) for argv in CONSTRUCT_OK for flag in argv if flag.startswith("--")]
    + [
        ["construct", family, *flags, "--sizes", sizes]
        for family, flags in (("hdiamond", ["--k", "1", "--r", "3"]), ("multipartite", []))
        for sizes in ("3,x", "", "2,0", "2,2,2,", " 2, 3")
    ]
    + [
        ["construct", "prop1", "--r", "3", "--n", "200"],
        ["construct", "prop2", "--r", "3", "--m", "1", "--h-order", "7", "--t", "21"],
        ["construct", "prop2-padded", "--r", "3", "--m", "1", "--h-order", "7", "--n", "133"],
        ["construct", "hdiamond", "--k", "2", "--r", "4", "--sizes", "40,40,40,40"],
        ["construct", "hdiamond", "--k", "0", "--r", "4", "--sizes", "3,4,7,7"],
        ["construct", "multipartite", "--sizes", "100,29"],
        ["construct", "blowup", "--graph", "k3.g6", "--t", "43"],
        ["construct", "blowup", "--graph", "missing.g6", "--t", "2"],
        ["construct", "blowup", "--graph", "missing.g6"],
        ["construct", "fdiamond", "--r", "5", "--sizes", "2,2"],
        ["construct", "multipartite", "--sizes", "2,2", "--t", "3"],
        ["construct", "prop1", "--r", "3", "--n", "9", "--k", "4", "--graph", "missing.g6"],
        ["probe", "--family", "hajnal-szemeredi", "--n", "6", "--r", "3", "--samples", "20", "--seed", "3"],
        ["probe", "--family", "kierstead-kostochka", "--n", "7", "--r", "3", "--samples", "5"],
        ["probe", "--family", "kierstead-kostochka", "--n", "6", "--samples", "5"],
        ["probe", "--family", "average-degree", "--n", "8", "--samples", "20", "--seed", "2"],
        ["probe", "--family", "average-degree", "--n", "129", "--samples", "1"],
    ]
)

# sha256 over (argv, exit code, stdout, stderr) of every call in CLI_GRID,
# taken from the construct verb that dispatched each family by hand
CLI_GRID_DIGEST = "8e502765ee350d1f126249a15d8b9a1f69cb4812c0f63496beb52afe01909f79"


def test_construct_and_probe_grid_matches_pinned_digest(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    Path("k3.g6").write_text(op.to_graph6(op.complete_graph(3)) + "\n")
    digest = hashlib.sha256()
    codes = set()
    for argv in CLI_GRID:
        code, out, err = run_cli(capsys, *argv)
        codes.add(code)
        digest.update((json.dumps([argv, code, out, err]) + "\n").encode())
    assert codes == {0, 2, 3}
    assert digest.hexdigest() == CLI_GRID_DIGEST


def _main_before(argv):
    """``main`` as it parsed before: every call through the top-level
    parser. The calls below raise no input error, so it keeps no handler."""
    args = build_parser().parse_args(argv)
    return args.func(args)


# calls that the verb's subparser answers alone: every verb, option forms
# and abbreviations before the positionals, help, and its usage errors
ONE_PASS = (
    ["params", "fd.g6"],
    ["pack", "c4.g6", "k2.g6"],
    ["cover", "fd.g6", "k3.g6", "0"],
    ["construct", "fdiamond"],
    ["verify", "inst.json", "k3.g6"],
    ["probe", "--family", "hajnal-szemeredi", "--n", "6", "--r", "3", "--samples", "5"],
    ["pack", "--find", "c4.g6", "k2.g6"],
    ["pack", "--fin", "c4.g6", "k2.g6"],
    ["pack", "--bud", "7", "k6.g6", "k3.g6"],
    ["pack", "--budget=5", "k6.g6", "k3.g6"],
    ["pack", "--", "c4.g6", "k2.g6"],
    ["pack", "-h"],
    ["pack", "c4.g6"],
    ["cover", "fd.g6", "k3.g6", "x"],
    ["construct", "nope"],
    ["probe", "--family", "nope", "--n", "6", "--samples", "5"],
)

# calls the top-level parser reads whole: no verb first, or words the
# verb does not take
TOP_LEVEL = (
    [],
    ["-h"],
    ["bogus"],
    ["--version"],
    ["pack", "--bogus", "c4.g6", "k2.g6"],
    ["pack", "c4.g6", "k2.g6", "k3.g6"],
    ["--", "pack", "c4.g6", "k2.g6"],
)


def test_one_argparse_pass_matches_the_parse_through_the_top_level_parser(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for name, g in (("c4", op.cycle_graph(4)), ("k2", op.complete_graph(2)), ("k3", op.complete_graph(3)),
                    ("k6", op.complete_graph(6)), ("fd", op.construct_fdiamond())):
        graph_file(tmp_path, f"{name}.g6", g)
    Path("inst.json").write_text(json.dumps(op.construct_prop1(3, 9).to_json_dict()))
    monkeypatch.setenv("COLUMNS", "80")
    parser = build_parser()
    top_level = []
    parse_args = parser.parse_args
    monkeypatch.setattr(parser, "parse_args", lambda argv: top_level.append(argv) or parse_args(argv))
    codes = Counter()
    for argv in ONE_PASS + TOP_LEVEL:
        top_level.clear()
        run = run_cli(capsys, *argv)
        assert bool(top_level) == (argv in TOP_LEVEL), argv
        assert run == run_cli(capsys, *argv, run=_main_before), argv
        codes[run[0]] += 1
    # a leading '--' is a usage error or a pack call, by Python version
    assert codes[0] >= 12 and codes[2] >= 9 and codes[4] == 1


# (file name, text with "\n" line ends): graph6 and edge-list files, a
# header on the graph6 line or on its own, and one-word texts that graph6
# rejects
LINE_END_CASES = (
    ("fd.g6", op.to_graph6(op.construct_fdiamond()) + "\n"),
    ("c4.txt", "# a 4-cycle\n4 4\n0 1\n1 2\n\n2 3  # last but one\n3 0\n"),
    ("c5.g6", ">>graph6<<" + op.to_graph6(op.cycle_graph(5)) + "\n"),
    ("k3.g6", ">>graph6<<\n" + op.to_graph6(op.complete_graph(3)) + "\n"),
    ("bad.txt", "2 1\n0 1\x1f\n"),
    ("hash.g6", "A_#x\n"),
    ("sep.g6", "A_\x1c\n"),
)


def test_cr_and_crlf_files_read_as_lf_files(capsys, tmp_path, fdiamond_file):
    outcomes = []
    for name, text in LINE_END_CASES:
        runs = []
        for end in ("\n", "\r", "\r\n"):
            path = tmp_path / name
            path.write_bytes(text.replace("\n", end).encode("ascii"))
            runs.append(run_cli(capsys, "params", str(path)))
        assert runs[1] == runs[0] and runs[2] == runs[0], name
        outcomes.append(runs[0])
    assert [code for code, _, _ in outcomes] == [0, 0, 0, 0, 2, 2, 2]
    assert outcomes[4][2] == "input error: bad edge line '0 1\\x1f', expected two integers\n"
    assert outcomes[5][2] == "input error: character '#' outside graph6 range\n"
    assert outcomes[6][2] == "input error: character '\\x1c' outside graph6 range\n"
    # a verify instance with CRLF line ends reads as with LF
    inst = json.dumps(op.construct_prop2(3, 1, 7, 7).to_json_dict(), indent=1)
    runs = []
    for end in ("\n", "\r\n"):
        path = tmp_path / "inst.json"
        path.write_bytes(inst.replace("\n", end).encode("utf-8"))
        runs.append(run_cli(capsys, "verify", str(path), fdiamond_file))
    assert runs[0][0] == 0 and runs[1] == runs[0]


def test_undecodable_bytes_exit_2_with_the_codec_message(capsys, tmp_path, fdiamond_file):
    path = tmp_path / "k2.g6"
    path.write_bytes(b"A\xc3\xa9\r\n")
    code, out, err = run_cli(capsys, "params", str(path))
    assert (code, out) == (2, "")
    assert err == ("input error: 'ascii' codec can't decode byte 0xc3 in position 1: "
                   "ordinal not in range(128)\n")
    path = tmp_path / "inst.json"
    path.write_bytes(b'{"graph6":\r\n "\xff\xfe"}')
    code, out, err = run_cli(capsys, "verify", str(path), fdiamond_file)
    assert (code, out) == (2, "")
    assert err == "input error: 'utf-8' codec can't decode byte 0xff in position 14: invalid start byte\n"
