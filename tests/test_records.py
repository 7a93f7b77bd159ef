"""The record types of the public API: their fields, immutability,
constructor checks and equality, and what importing them costs."""

import os
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import orepack as op
from orepack import ExtendedNat, ExtremalInstance, Graph, Verdict

K3 = op.complete_graph(3)
FIVE = ExtendedNat.finite(5)
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
    (Graph, {"n": 3, "adj": K3.adj, "labels": ("a", "b", "c")}, False),
    (ExtremalInstance, {
        "graph": K3, "w": 0, "claimed_ore_bound": Fraction(3), "family": "prop1", "params": {"r": 3, "n": 3},
    }, False),
]


@pytest.mark.parametrize("cls, fields, mutable", RECORDS, ids=[r[0].__name__ for r in RECORDS])
def test_record_fields_and_immutability(cls, fields, mutable):
    record = cls(*fields.values())
    assert [getattr(record, name) for name in fields] == list(fields.values())
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


def test_record_defaults():
    config = op.ProbeConfig("average-degree", 6, 5, 1)
    assert config.r is None and config.budget == op.packing.DEFAULT_BUDGET
    a, b = op.ProbeSummary(3), op.ProbeSummary(3)
    assert a == op.ProbeSummary(3, 0, 0, 0, []) and a.violation_graphs is not b.violation_graphs
    with pytest.raises(TypeError):
        hash(a)  # mutable, so unhashable
    assert Graph(3, K3.adj).labels is None


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


def test_graph_equality_and_hash_ignore_labels():
    plain = op.cycle_graph(5)
    labelled = Graph(5, plain.adj, tuple("abcde"))
    assert plain == labelled and hash(plain) == hash(labelled) == hash((5, plain.adj))
    assert plain != op.path_graph(5) and plain != (5, plain.adj)
    assert len({plain, labelled, op.cycle_graph(5)}) == 1
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


def test_importing_the_cli_loads_no_dataclass_machinery():
    # the records are NamedTuples and slotted classes, so a CLI process
    # compiles no generated methods and does not import inspect
    code = (
        "import sys; before = set(sys.modules); import orepack.cli; "
        "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(op.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60, check=True
    )
    assert proc.stdout == "[]\n"
