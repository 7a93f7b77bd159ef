"""The record types of the public API: their fields, immutability,
constructor checks and equality, and what importing them costs."""

import inspect
import os
import pickle
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import orepack as op
from orepack import ExtendedNat, ExtremalInstance, Graph, Verdict, graphs

K3 = op.complete_graph(3)
FIVE = ExtendedNat(5)
EMB = op.Embedding((0, 1, 2))

# every public record type -> the field names in order and one value each,
# and whether assigning to a field is allowed
RECORDS = [
    (op.ColoringPartition, {"classes": (frozenset({0}), frozenset({1, 2})), "sizes_sorted": (1, 2)}, False),
    (op.ParameterReport, {
        "chi": 3, "sigma": 1, "chi_cr": Fraction(14, 5), "d_set": (0, 1), "hcf_chi": FIVE, "hcf_c": 7,
        "hcf_is_one": True, "ce": FIVE, "chi_star": Fraction(14, 5), "chi_ore": Fraction(5, 2),
        "chi_prime_ore": Fraction(5, 2), "ore_coefficient": Fraction(6, 5), "witness_vertex": 6,
    }, False),
    (ExtendedNat, {"value": 5}, False),
    (op.Embedding, {"mapping": (0, 1, 2)}, False),
    (op.PackingResult, {"verdict": Verdict.YES, "certificate": (EMB,), "nodes": 3, "budget": 10}, False),
    (op.CoverSearchResult, {"verdict": Verdict.YES, "embedding": EMB, "nodes": 3}, False),
    (op.VerificationReport, {
        "ore_ok": True, "no_cover": Verdict.YES, "divisibility_ok": False, "nodes": 4,
    }, False),
    (op.ProbeConfig, {
        "family": "hajnal-szemeredi", "n": 9, "samples": 5, "seed": 1, "r": 3, "budget": 10,
    }, False),
    (op.ProbeSummary, {
        "samples": 5, "condition_hits": 2, "violations": 1, "unknowns": 1, "violation_graphs": ["Bw"],
    }, True),
    (Graph, {"n": 3, "adj": K3.adj}, False),
    (ExtremalInstance, {
        "graph": K3, "w": 0, "claimed_ore_bound": Fraction(3), "family": "prop1", "params": {"r": 3, "n": 3},
    }, False),
]


@pytest.mark.parametrize("cls, fields, mutable", RECORDS, ids=[r[0].__name__ for r in RECORDS])
def test_record_fields_and_immutability(cls, fields, mutable):
    record = cls(*fields.values())
    assert [getattr(record, name) for name in fields] == list(fields.values())
    assert record._key() == tuple(fields.values())
    assert cls(**fields) == record
    assert pickle.loads(pickle.dumps(record)) == record
    if cls not in (ExtendedNat, Graph):  # a number and a summary of the edges
        listed = ", ".join(f"{name}={value!r}" for name, value in fields.items())
        assert repr(record) == f"{cls.__name__}({listed})"
    for name in fields:
        if mutable:
            setattr(record, name, None)
            assert getattr(record, name) is None
        else:
            with pytest.raises(AttributeError):
                setattr(record, name, None)
            with pytest.raises(AttributeError):
                delattr(record, name)
            assert getattr(record, name) == fields[name]


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_record_constructors_take_their_fields_in_slot_order():
    # FrozenRecord._set, Record.__repr__ and Record.__reduce__ all read the
    # constructor's parameters as the fields in __slots__ order
    classes = [cls for cls in _subclasses(graphs.Record) if cls is not graphs.FrozenRecord]
    assert {cls for cls, _, _ in RECORDS} <= set(classes)
    for cls in classes:
        assert tuple(inspect.signature(cls).parameters) == cls.__slots__, cls.__name__


def test_graphs_built_from_valid_rows_are_frozen():
    # parse_graph6, relabel and random_graph build through
    # Graph._of_valid_rows, which does not run Graph.__init__
    c5 = op.cycle_graph(5)
    built = (
        op.parse_graph6(op.to_graph6(c5)),
        op.relabel(c5, [2, 0, 4, 1, 3]),
        op.random_graph(7, 0.5, random.Random(3)),
    )
    for g in built:
        plain = Graph(g.n, g.adj)
        assert g == plain and hash(g) == hash(plain)
        assert pickle.loads(pickle.dumps(g)) == g
        for name in ("n", "adj"):
            with pytest.raises(AttributeError):
                setattr(g, name, None)
            with pytest.raises(AttributeError):
                delattr(g, name)
        assert (g.n, g.adj) == (plain.n, plain.adj)


def test_record_defaults():
    config = op.ProbeConfig("average-degree", 6, 5, 1)
    assert config.r is None and config.budget == op.packing.DEFAULT_BUDGET
    a, b = op.ProbeSummary(3), op.ProbeSummary(3)
    assert a == op.ProbeSummary(3, 0, 0, 0, []) and a.violation_graphs is not b.violation_graphs
    with pytest.raises(TypeError):
        hash(a)  # mutable, so unhashable


def test_record_constructor_checks():
    with pytest.raises(ValueError, match="^ExtendedNat must be nonnegative$"):
        ExtendedNat(-1)
    prop1 = op.construct_prop1(3, 9)
    for w in (prop1.graph.n, -1):
        with pytest.raises(ValueError, match="^distinguished vertex out of range$"):
            ExtremalInstance(prop1.graph, w, prop1.claimed_ore_bound, "prop1", prop1.params)
    with pytest.raises(ValueError, match="^prop2 params lack h_order, t$"):
        ExtremalInstance(prop1.graph, 0, prop1.claimed_ore_bound, "prop2", {"r": 3, "m": 1})
    # only the bounded families name their params
    assert ExtremalInstance(prop1.graph, 0, prop1.claimed_ore_bound, "fdiamond", {}).params == {}


def test_graph_equality_and_hash_are_its_rows():
    plain = op.cycle_graph(5)
    rows = Graph(5, plain.adj)
    assert plain == rows and hash(plain) == hash(rows) == hash((5, plain.adj))
    assert plain != op.path_graph(5) and plain != (5, plain.adj)
    assert len({plain, rows, op.cycle_graph(5)}) == 1
    with pytest.raises(AttributeError, match="^cannot delete field 'n'$"):
        del plain.n
    assert plain.n == 5


def test_extremal_instance_hashes_and_owns_its_params():
    # a FrozenRecord hashes its key, params included; the instance keeps a
    # copy of the params it is given
    a, b = op.construct_prop1(3, 9), op.construct_prop1(3, 9)
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert a != op.construct_prop1(3, 12)
    params = dict(a.params)
    inst = ExtremalInstance(a.graph, a.w, a.claimed_ore_bound, "prop1", params)
    key = hash(inst)
    params["r"] = 4
    del params["n"]
    assert inst == a and inst.params == a.params and hash(inst) == key


def test_extremal_instance_params_are_read_only():
    # no edit through inst.params can change a built instance's hash or
    # equality; the params still print, compare and pickle as a dict
    a = op.construct_prop1(3, 9)
    key, members = hash(a), {a}
    edits = (
        lambda p: p.__setitem__("r", 4), lambda p: p.__delitem__("n"), lambda p: p.update(r=4),
        lambda p: p.pop("r"), lambda p: p.popitem(), lambda p: p.clear(),
        lambda p: p.setdefault("m", 1), lambda p: p.__ior__({"r": 4}),
    )
    for edit in edits:
        with pytest.raises(TypeError, match="^the params of an extremal instance are read-only$"):
            edit(a.params)
    assert a.params == {"r": 3, "n": 9} and repr(a.params) == "{'r': 3, 'n': 9}"
    assert hash(a) == key == hash(op.construct_prop1(3, 9)) and a in members
    assert pickle.loads(pickle.dumps(a)) == a
    params = pickle.loads(pickle.dumps(a.params))
    assert params == a.params and type(params) is type(a.params)
    with pytest.raises(TypeError):
        params["r"] = 4


def test_importing_the_cli_loads_no_dataclass_machinery():
    # the records are slotted classes with written-out constructors, so a
    # CLI process compiles no generated methods and does not import inspect
    code = (
        "import sys; before = set(sys.modules); import orepack.cli; "
        "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(op.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60, check=True
    )
    assert proc.stdout == "[]\n"


# the standard modules that orepack imports, loaded before it is
STDLIB = (
    "import argparse, binascii, collections.abc, enum, fractions, functools, itertools, json, "
    "math, operator, random, re, sys"
)


def _run_fresh(code, *flags):
    """Standard output of ``code`` run by a fresh interpreter that finds
    orepack where the tests do."""
    env = dict(os.environ, PYTHONPATH=str(Path(op.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, *flags, "-c", code], env=env, capture_output=True, text=True, timeout=60,
        check=True,
    )
    return proc.stdout


def test_importing_the_cli_compiles_and_evals_nothing():
    # a NamedTuple compiles each field's forward reference and evals its
    # generated constructor; the compiles that load a module file are the
    # import system's own
    code = STDLIB + """
import builtins
calls = {"compile": 0, "eval": 0}
real_compile, real_eval = builtins.compile, builtins.eval
def counted_compile(source, filename, *args, **kwargs):
    if not str(filename).endswith(".py"):
        calls["compile"] += 1
    return real_compile(source, filename, *args, **kwargs)
def counted_eval(*args, **kwargs):
    calls["eval"] += 1
    return real_eval(*args, **kwargs)
builtins.compile, builtins.eval = counted_compile, counted_eval
import orepack.cli
print(calls["compile"], calls["eval"])
"""
    assert _run_fresh(code) == "0 0\n"


def test_importing_the_cli_leaves_typing_unloaded():
    # -S: no site hook loads typing first
    code = STDLIB + (
        "; before = set(sys.modules); import orepack.cli; "
        "print('typing' in set(sys.modules) - before)"
    )
    assert _run_fresh(code, "-S") == "False\n"
