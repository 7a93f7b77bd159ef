"""Seeded randomized probes of the packing theorems backing the toolkit.

Each probe draws reproducible random graphs, keeps those satisfying a
theorem's hypothesis, and checks its conclusion exactly. The theorems are
true, so any violation indicates an artifact bug; the probe reports it
with the offending graph6 string.

``random_graph(n, p, rng)`` draws G(n, p) exactly as the loop that makes
one ``rng.random() < p`` test per vertex pair u < v, u-major, would: the
same graph, and the same generator state after it. It draws bit-parallel.
On CPython, ``random()`` is (a 2^26 + b) / 2^53, where a and b are the top
27 and 26 bits of the next two 32-bit Mersenne Twister words, so the test
holds exactly when the 53-bit key a 2^26 + b is below t = ceil(p 2^53)
(t = 0 when not p > 0, which takes in NaN; t = 2^53 when p >= 1, which
takes in +inf). ``rng.getrandbits(64 k)`` returns the same 2k words, the
first lowest, so 64-bit lane i of that int holds pair i's two words. Per
block of at most ``_LANE_BLOCK`` pairs, masks and shifts make every lane's
key at once, and subtracting it from 2^63 + t - 1 in every lane leaves a
top byte of 0x80 where the key is below t and 0x7F elsewhere, with no
borrow across lanes. Those top bytes, one per pair, become one binary
numeral laid out as the upper triangle of the bit matrix of ``graphs``;
its transpose gives the lower half.
"""

from __future__ import annotations

import math
import random
from functools import lru_cache
from operator import itemgetter

from .graphs import (
    MAX_VERTICES,
    FrozenRecord,
    Graph,
    PreconditionError,
    Record,
    _check_order,
    _stride,
    _transpose,
    _unpack,
    average_degree,
    complete_graph,
    min_ore_degree_sum,
    to_graph6,
)
from .packing import DEFAULT_BUDGET, Verdict, has_perfect_packing

PACKING_PROBE_MAX_N = 24
DEFAULT_P_SWEEP = (0.5, 0.7, 0.9)


class ProbeConfig(FrozenRecord):
    __slots__ = ("family", "n", "samples", "seed", "r", "budget")

    def __init__(
        self, family: str, n: int, samples: int, seed: int, r: int | None = None,
        budget: int = DEFAULT_BUDGET,
    ) -> None:
        self._set(family, n, samples, seed, r, budget)

    def validate(self) -> None:
        if self.family not in PROBE_FAMILIES:
            raise PreconditionError(f"unknown probe family {self.family!r}")
        if self.samples < 1:
            raise PreconditionError("need at least one sample")
        if self.seed < 0:
            # sample i seeds Random with (seed << 32) + i, and Random seeds
            # from its absolute value: sample 0 of seed -s was that of s
            raise PreconditionError(f"need a seed of at least 0, got {self.seed}")
        if not 1 <= self.n <= MAX_VERTICES:
            raise PreconditionError(f"need 1 <= n <= {MAX_VERTICES}")
        if PROBE_FAMILIES[self.family] is not None:
            if self.r is None or self.r < 2:
                raise PreconditionError("packing probes need a clique order r >= 2")
            if self.n % self.r != 0:
                raise PreconditionError(
                    f"packing probes need r | n, got n={self.n}, r={self.r}"
                )
            if self.n > PACKING_PROBE_MAX_N:
                raise PreconditionError(
                    f"packing probes are limited to n <= {PACKING_PROBE_MAX_N}"
                )


class ProbeSummary(Record):
    __slots__ = ("samples", "condition_hits", "violations", "unknowns", "violation_graphs")

    def __init__(
        self,
        samples: int,
        condition_hits: int = 0,
        violations: int = 0,
        unknowns: int = 0,
        violation_graphs: list[str] | None = None,
    ) -> None:
        self.samples = samples
        self.condition_hits = condition_hits
        self.violations = violations
        self.unknowns = unknowns
        self.violation_graphs = [] if violation_graphs is None else violation_graphs

    def to_json_dict(self) -> dict:
        return {
            "samples": self.samples,
            "condition_hits": self.condition_hits,
            "violations": self.violations,
            "unknowns": self.unknowns,
            "violation_graphs": list(self.violation_graphs),
        }


# vertex pairs drawn per getrandbits call: past a few hundred, larger
# blocks save little time and hold more memory
_LANE_BLOCK = 256
# a lane's top byte after the comparison, as the digit of its pair
_PAIR_DIGIT = bytes.maketrans(b"\x7f\x80", b"01")


# bounded, so memory stays flat: 8 entries of at most 7 KB hold the two
# block sizes of each of the three p a probe cycles through
@lru_cache(maxsize=8)
def _lane_constants(k: int, t: int) -> tuple[int, int, int]:
    """For k lanes: the mask of bits 5-31 (a) and of bits 38-63 (b) of each
    lane, and 2^63 + t - 1 in each lane."""
    ones = int.from_bytes(b"\1\0\0\0\0\0\0\0" * k, "little")
    return 0xFFFFFFE0 * ones, (0xFFFFFFC0 << 32) * ones, ((1 << 63) + t - 1) * ones


# bounded, so memory stays flat: a plan at n = 120 holds about 23 KB
@lru_cache(maxsize=4)
def _row_plan(n: int):
    """The block sizes of a draw at order n, its layout and its stride w.
    The digits come last pair first, so row u's are those of v = n-1 down
    to u+1, and they follow row u+1's. The layout is a binary numeral, row
    n-1 first, each row w - n zeros, a field for its digits and u + 1
    zeros: the digit of v lands at bit u*w + v. It leads with a zero so
    that order 0 reads as 0. ``cut`` takes the rows' digits out of the
    draw's; for order 1 it gives itemgetter's bare item, which ``%`` takes
    as the one value."""
    w = _stride(n)
    layout, fields, start = [b"0"], [], 0
    for u in reversed(range(n)):
        layout.append(b"0" * (w - n) + b"%s" + b"0" * (u + 1))
        fields.append(slice(start, start + n - 1 - u))
        start += n - 1 - u
    blocks = tuple(min(_LANE_BLOCK, start - i) for i in range(0, start, _LANE_BLOCK))
    # itemgetter needs a key, and order 0 has no rows
    cut = itemgetter(*fields) if fields else lambda digits: ()
    return blocks, b"".join(layout), cut, w


def random_graph(n: int, p: float, rng: random.Random) -> Graph:
    _check_order(n)
    # random() < p exactly when the pair's key is below t
    t = 0 if not p > 0 else 1 << 53 if p >= 1 else math.ceil(p * (1 << 53))
    blocks, layout, cut, w = _row_plan(n)
    digits = []
    for k in blocks:
        lo, hi, top = _lane_constants(k, t)
        x = rng.getrandbits(64 * k)
        # each lane's top byte, the last lane's first
        digits.append((top - ((x & lo) << 21 | (x & hi) >> 38)).to_bytes(8 * k, "big")[::8])
    digits.reverse()
    upper = int(layout % cut(b"".join(digits).translate(_PAIR_DIGIT)), 2)
    return Graph._of_valid_rows(n, _unpack(upper | _transpose(upper, w), n, w))


def _sample_rng(seed: int, index: int) -> random.Random:
    # independent per-sample streams so ordering and parallelism are moot
    return random.Random((seed << 32) + index)


def run_probe(config: ProbeConfig) -> ProbeSummary:
    config.validate()
    summary = ProbeSummary(samples=config.samples)
    hypothesis = PROBE_FAMILIES[config.family]
    clique = None if hypothesis is None else complete_graph(config.r)
    for i in range(config.samples):
        rng = _sample_rng(config.seed, i)
        p = DEFAULT_P_SWEEP[i % len(DEFAULT_P_SWEEP)]
        g = random_graph(config.n, p, rng)
        if hypothesis is None:
            _probe_average_degree(g, summary)
        else:
            _probe_clique_factor(g, clique, config.budget, summary, hypothesis)
    return summary


def _min_degree_hypothesis(g: Graph, r: int) -> bool:
    # delta(G) >= (1 - 1/r) n, compared exactly in integers
    return min(g.degrees()) * r >= (r - 1) * g.n


def _ore_sum_hypothesis(g: Graph, r: int) -> bool:
    # d(x)+d(y) >= 2(1 - 1/r) n - 1 for all non-adjacent pairs
    s = min_ore_degree_sum(g)
    if s == float("inf"):
        return True
    return s * r >= 2 * (r - 1) * g.n - r


# probe family -> the hypothesis on (G, r) of its clique-factor theorem;
# None for the average-degree probe, which takes no r
PROBE_FAMILIES = {
    "hajnal-szemeredi": _min_degree_hypothesis,
    "kierstead-kostochka": _ore_sum_hypothesis,
    "average-degree": None,
}


def _probe_clique_factor(g, clique, budget, summary, hypothesis) -> None:
    if not hypothesis(g, clique.n):
        return
    summary.condition_hits += 1
    result = has_perfect_packing(g, clique, budget)
    if result.verdict is Verdict.UNKNOWN:
        summary.unknowns += 1
    elif result.verdict is Verdict.NO:
        summary.violations += 1
        summary.violation_graphs.append(to_graph6(g))


def _probe_average_degree(g: Graph, summary: ProbeSummary) -> None:
    # for every k <= k_max whose degree-sum hypothesis holds, the average
    # degree must be at least k (complete graphs satisfy all of them); the
    # checks run k = 0, 1, ... and stop at the first violation, which is
    # at k = floor(avg) + 1 when that is at most k_max
    s = min_ore_degree_sum(g)
    k_max = g.n - 1 if s == float("inf") else min(g.n - 1, int(s) // 2)
    first = math.floor(average_degree(g)) + 1
    if first <= k_max:
        summary.condition_hits += first + 1
        summary.violations += 1
        summary.violation_graphs.append(to_graph6(g))
    else:
        summary.condition_hits += k_max + 1
