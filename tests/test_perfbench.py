"""The benchmark under perfbench/ reaches into orepack by module attribute
and builds its inputs through orepack's own generators. These tests read
perfbench/ and change nothing in it: a rename in src/ that would break
``perfbench/run.py --trace 1`` or an input builder fails here first."""

import importlib
import sys
import types
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
MODULES = ("graphs", "coloring", "parameters", "packing", "extremal", "probes", "cli")


@pytest.fixture()
def perfbench(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return types.SimpleNamespace(
        tracing=importlib.import_module("tracing"),
        workloads=importlib.import_module("workloads"),
    )


def _lib():
    return types.SimpleNamespace(**{m: importlib.import_module(f"orepack.{m}") for m in MODULES})


def test_every_traced_attribute_resolves(perfbench):
    lib = vars(_lib())
    missing = [key for key in perfbench.tracing.WRAPPED if not hasattr(lib[key[0]], key[1])]
    assert missing == []


def test_every_workload_builds_its_inputs(perfbench, tmp_path):
    lib = _lib()
    for name, build in perfbench.workloads.BUILDERS.items():
        workdir = tmp_path / name
        workdir.mkdir()
        tasks = build(lib, perfbench.workloads.Inputs(lib, 1, str(workdir)))
        assert tasks, name
        written = {str(p) for p in workdir.iterdir()}
        for task in tasks:
            assert {a for a in task.argv if a.startswith(str(workdir))} <= written, name


def test_the_cli_table_reads_every_task_as_argparse_does(perfbench, tmp_path):
    # every benchmark task is a plain call: the CLI reads it without
    # argparse, into the namespace the top-level parser returns, less the
    # verb's name
    lib = _lib()
    parser = lib.cli.build_parser()
    for seed in (1, 2):
        for name, build in perfbench.workloads.BUILDERS.items():
            workdir = tmp_path / f"{name}-{seed}"
            workdir.mkdir()
            for task in build(lib, perfbench.workloads.Inputs(lib, seed, str(workdir))):
                verb, *words = task.argv
                args = lib.cli._read_plain(verb, words)
                assert args is not None, task.argv
                expected, extra = parser.parse_known_args(task.argv)
                assert vars(expected).pop("command") == verb
                assert (vars(args), extra) == (vars(expected), []), task.argv
