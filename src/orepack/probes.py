"""Seeded randomized probes of the packing theorems backing the toolkit.

Each probe draws reproducible random graphs, keeps those satisfying a
theorem's hypothesis, and checks its conclusion exactly. The theorems are
true, so any violation indicates an artifact bug; the probe reports it
with the offending graph6 string.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Optional

from .graphs import (
    MAX_VERTICES,
    Graph,
    PreconditionError,
    average_degree,
    complete_graph,
    min_ore_degree_sum,
    to_graph6,
)
from .packing import DEFAULT_BUDGET, Verdict, has_perfect_packing

PACKING_PROBE_MAX_N = 24
DEFAULT_P_SWEEP = (0.5, 0.7, 0.9)


@dataclass(frozen=True)
class ProbeConfig:
    family: str
    n: int
    samples: int
    seed: int
    r: Optional[int] = None
    budget: int = DEFAULT_BUDGET

    def validate(self) -> None:
        if self.family not in PROBE_FAMILIES:
            raise PreconditionError(f"unknown probe family {self.family!r}")
        if self.samples < 1:
            raise PreconditionError("need at least one sample")
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


@dataclass
class ProbeSummary:
    samples: int
    condition_hits: int = 0
    violations: int = 0
    unknowns: int = 0
    violation_graphs: list[str] = field(default_factory=list)

    def to_json_dict(self) -> dict:
        return {
            "samples": self.samples,
            "condition_hits": self.condition_hits,
            "violations": self.violations,
            "unknowns": self.unknowns,
            "violation_graphs": list(self.violation_graphs),
        }


def random_graph(n: int, p: float, rng: random.Random) -> Graph:
    adj = [0] * n
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
    return Graph._of_valid_rows(n, tuple(adj))


def _sample_rng(seed: int, index: int) -> random.Random:
    # independent per-sample streams so ordering and parallelism are moot
    return random.Random((seed << 32) + index)


def run_probe(config: ProbeConfig) -> ProbeSummary:
    config.validate()
    summary = ProbeSummary(samples=config.samples)
    hypothesis = PROBE_FAMILIES[config.family]
    for i in range(config.samples):
        rng = _sample_rng(config.seed, i)
        p = DEFAULT_P_SWEEP[i % len(DEFAULT_P_SWEEP)]
        g = random_graph(config.n, p, rng)
        if hypothesis is None:
            _probe_average_degree(g, summary)
        else:
            _probe_clique_factor(g, config, summary, hypothesis)
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


def _probe_clique_factor(g, config, summary, hypothesis) -> None:
    r = config.r
    if not hypothesis(g, r):
        return
    summary.condition_hits += 1
    result = has_perfect_packing(g, complete_graph(r), config.budget)
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
