"""Acceptance suite: one test per acceptance criterion, each printing a
single PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``).

Criterion 3 pins a 22-vertex apex instance because, in the k = 2, r = 4
apex family, chi_cr < chi - 2/(CE+2) requires more than 21 vertices.
"""

import json
import random
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

import orepack as op
from orepack import ExtendedNat, ProbeConfig, Verdict
from orepack.cli import main as cli_main

from fixtures import corpus, k4_minus, small_corpus
from oracles import brute_colour_extension_number, has_perfect_matching


@contextmanager
def criterion(num, desc):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num:02d} FAIL - {desc}")
        raise
    else:
        print(f"ACCEPTANCE {num:02d} PASS - {desc}")


def test_criterion_01_worked_examples():
    with criterion(1, "worked-example parameter reproduction"):
        t0 = time.monotonic()
        rep = op.full_report(op.construct_fdiamond())
        assert rep.chi == 3
        assert rep.sigma == 2
        assert rep.chi_cr == Fraction(14, 5)
        assert rep.hcf_is_one
        assert rep.ce == ExtendedNat(1)
        assert rep.chi_ore == Fraction(14, 5)
        assert rep.ore_coefficient == Fraction(9, 7)
        assert time.monotonic() - t0 < 1.0
        t0 = time.monotonic()
        rep = op.full_report(k4_minus())
        assert rep.ce == ExtendedNat(None)
        assert rep.chi_ore == 3
        assert rep.ore_coefficient == Fraction(4, 3)
        assert time.monotonic() - t0 < 1.0


def test_criterion_02_apex_family_extension_numbers():
    with criterion(2, "apex family has extension number k"):
        for k, r in [(1, 3), (2, 4), (2, 5)]:
            sizes = [k + 1] * r
            t0 = time.monotonic()
            hd = op.construct_hdiamond(k, r, sizes)
            ce, _ = op.colour_extension_number(hd)
            assert ce == ExtendedNat(k), (k, r)
            assert time.monotonic() - t0 < 60.0


def test_criterion_03_strict_betweenness_at_pinned_instance():
    with criterion(3, "packing threshold strictly between chi_cr and chi"):
        # The apex sees two vertices in each of the first three classes, so
        # it joins the last one: the unique optimal coloring has class sizes
        # 3, 4, 7, 8 (differences {1, 3}, hcf 1) on n = 22 vertices. Hence
        # chi_cr = 3 * 22 / (22 - 3) = 66/19 and, with CE = 2,
        # chi - 2/(CE+2) = 7/2; 66/19 < 7/2 because 132 < 133. Every class
        # has at least 3 vertices, so sigma >= 3 and chi_cr = 3n/(n-3)
        # drops below 7/2 only once n > 21.
        hd = op.construct_hdiamond(2, 4, [3, 4, 7, 7])
        rep = op.full_report(hd)
        assert hd.n == 22
        assert rep.sigma == 3
        assert rep.ce == ExtendedNat(2)
        assert rep.chi_cr == Fraction(66, 19)
        assert rep.chi_ore == Fraction(7, 2)
        assert rep.chi_cr < rep.chi_ore
        assert rep.chi_ore < rep.chi


def test_criterion_04_prop1_verification():
    with criterion(4, "near-multipartite lower-bound instance verifies"):
        t0 = time.monotonic()
        inst = op.construct_prop1(3, 9)
        assert inst.claimed_ore_bound == 10
        report = op.verify_lower_bound(inst, op.complete_graph(3))
        assert report.ore_ok
        assert report.no_cover is Verdict.YES
        assert report.divisibility_ok
        assert time.monotonic() - t0 < 1.0


def test_criterion_05_prop2_verification():
    with criterion(5, "49-vertex lower-bound instance verifies by complete search"):
        t0 = time.monotonic()
        inst = op.construct_prop2(3, 1, 7, 7)
        assert op.min_ore_degree_sum(inst.graph) == 55
        assert inst.claimed_ore_bound == 2 * (1 - Fraction(3, 7)) * 49 - 1 == 55
        report = op.verify_lower_bound(inst, op.construct_fdiamond(), budget=10**8)
        assert report.ore_ok
        assert report.no_cover is Verdict.YES
        assert report.divisibility_ok
        assert time.monotonic() - t0 < 600.0


def test_criterion_06_prop2_degree_identities():
    with criterion(6, "degree identities hold exactly on generated instances"):
        grid = [(3, 1, 7, 7), (3, 0, 6, 4), (3, 0, 6, 8), (4, 0, 3, 12),
                (4, 1, 5, 20), (3, 2, 5, 10), (3, 1, 14, 7)]
        for r, m, h_order, t in grid:
            inst = op.construct_prop2(r, m, h_order, t)
            g = inst.graph
            n = g.n
            block = (m + 2) * r - 2
            s = 2 * h_order // block
            w = inst.w
            start = 1 + (s * t - 1)
            for _ in range(m):
                for y in range(start, start + s * t):
                    assert (
                        g.degree(y) + g.degree(w)
                        == 2 * h_order * t - (m + 2) * s * t - 1
                    ), (r, m, h_order, t)
                start += s * t
            big = (m + 2) * s * t // 2
            for i in range(r - 2):
                y1 = start + i * big
                for y2 in range(y1 + 1, y1 + big):
                    assert (
                        g.degree(y1) + g.degree(y2)
                        == 2 * (1 - Fraction(m + 2, block)) * n
                    ), (r, m, h_order, t)


def test_criterion_07_parameter_law_suite():
    with criterion(7, "parameter laws hold over the fixture corpus"):
        graphs = corpus()
        assert len(graphs) >= 20
        for name, h in graphs.items():
            rep = op.full_report(h)
            assert rep.chi - 1 < rep.chi_cr <= rep.chi, name
            assert (rep.chi_cr == rep.chi) == (rep.d_set == (0,)), name
            if rep.ce.is_finite and rep.ce.value >= 1:
                assert rep.ce.value <= rep.chi - 2, name
            if rep.chi == 2:
                has_isolated = any(h.degree(v) == 0 for v in range(h.n))
                if has_isolated:
                    assert rep.ce == ExtendedNat(0), name
                else:
                    assert rep.ce == ExtendedNat(None), name
            assert rep.chi_ore == max(rep.chi_star, rep.chi_prime_ore), name


def test_criterion_08_matching_oracle_equivalence():
    with criterion(8, "edge-packing agrees with the matching oracle on 10^4 graphs"):
        t0 = time.monotonic()
        rng = random.Random(2718)
        k2 = op.complete_graph(2)
        for i in range(10**4):
            n = 2 * rng.randrange(1, 7)  # even orders keep both sides honest
            p = (0.2, 0.5, 0.8)[i % 3]
            g = op.random_graph(n, p, rng)
            verdict = op.has_perfect_packing(g, k2).verdict
            assert verdict is not Verdict.UNKNOWN
            assert (verdict is Verdict.YES) == has_perfect_matching(g), op.to_graph6(g)
        assert time.monotonic() - t0 < 60.0


def test_criterion_09_theorem_probes():
    with criterion(9, "randomized theorem probes see zero violations"):
        t0 = time.monotonic()
        hs = op.run_probe(
            ProbeConfig(family="hajnal-szemeredi", n=9, samples=200, seed=42, r=3)
        )
        assert hs.violations == 0 and hs.unknowns == 0
        for n in (6, 9):
            kk = op.run_probe(
                ProbeConfig(family="kierstead-kostochka", n=n, samples=200, seed=42, r=3)
            )
            assert kk.violations == 0 and kk.unknowns == 0
        avg = op.run_probe(ProbeConfig(family="average-degree", n=30, samples=500, seed=42))
        assert avg.violations == 0
        assert time.monotonic() - t0 < 300.0


def test_criterion_10_extension_number_oracle_equivalence():
    with criterion(10, "extension number matches the exhaustive oracle"):
        checked = 0
        for name, g in small_corpus(8).items():
            ce, witness = op.colour_extension_number(g)
            want, _ = brute_colour_extension_number(g)
            if want is None:
                assert not ce.is_finite, name
            else:
                assert ce.is_finite and ce.value == want, name
                assert witness is not None, name
            checked += 1
        assert checked >= 15


def test_criterion_11_round_trip_and_determinism(capsys, tmp_path):
    with criterion(11, "graph6 round-trip and byte-identical CLI reruns"):
        rng = random.Random(31415)
        for i in range(10**4):
            n = rng.randrange(0, 33)
            g = op.random_graph(n, rng.random(), rng)
            assert op.parse_graph6(op.to_graph6(g)) == g
        # a couple of orders needing the long form of the size field
        for n in (63, 128):
            g = op.random_graph(n, 0.4, rng)
            assert op.parse_graph6(op.to_graph6(g)) == g

        probe_args = [
            "probe", "--family", "hajnal-szemeredi",
            "--n", "9", "--r", "3", "--samples", "50", "--seed", "42",
        ]
        outs = []
        for _ in range(2):
            assert cli_main(probe_args) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]

        path = tmp_path / "fd.g6"
        path.write_text(op.to_graph6(op.construct_fdiamond()) + "\n")
        outs = []
        for _ in range(2):
            assert cli_main(["params", str(path)]) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]
        payload = json.loads(outs[0])
        assert payload["chi_ore"] == {"num": 14, "den": 5}
