import hashlib
import json
import os
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import orepack as op
from orepack import coloring, parameters, probes
from orepack.cli import build_parser, main


def run_cli(capsys, *argv):
    """(exit code, stdout, stderr) of one ``main`` call in this process."""
    try:
        code = main(list(argv))
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


def test_pack_budget_unknown(capsys, tmp_path):
    inst = op.construct_prop2(3, 1, 7, 7)
    full = op.has_perfect_packing(inst.graph, op.construct_fdiamond())
    assert full.verdict is op.Verdict.NO
    g = graph_file(tmp_path, "big.g6", inst.graph)
    fd = graph_file(tmp_path, "fd.g6", op.construct_fdiamond())
    code, out, _ = run_cli(capsys, "pack", g, fd, "--budget", str(full.nodes - 1))
    assert code == 4 and out.splitlines()[0] == "UNKNOWN"


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
    code, out, _ = run_cli(capsys, *argv, "--budget", "0")
    assert code != 2 and out != ""


def test_stdin_dash_input(capsys, monkeypatch):
    import io

    monkeypatch.setattr(sys, "stdin", io.StringIO(op.to_graph6(op.construct_fdiamond())))
    code, out, _ = run_cli(capsys, "params", "-")
    assert code == 0
    assert json.loads(out)["chi"] == 3


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
