"""Print the cost of each Cliff A and Cliff B instance.

    python3 tools/cliffs.py

Cliff A (ROADMAP.md, Baseline) is the class-size profile search of
`orepack params`: for each instance the table gives chi, the number of
distinct sorted class-size profiles of the optimal colorings, and the
wall time of `class_size_profiles`, or CAP when the search ends in
`BudgetExhausted`. G(16,0.15)#1 and G(26,0.2)#3 are drawn as the
benchmark draws its G(n,p)#i, from `Random(1000 n + i)`; a triangle with
12 pendant leaves has 4,096 colorings, which the profile search counts
in bulk from the one coloring of the triangle. The last four rows have
no tail: the dense G(22,0.5) and G(28,0.6), drawn from `Random(2205)` and
`Random(2806)`, and the cycles C15 and C21. A second table gives chi and
the wall time of `chromatic_number` on unions of many paths and a
5-cycle, where a search that backtracks across components retries every
coloring of the paths, and on G(40,0.5) from `Random(40)`, where a
search that takes the vertices in a fixed order branches on many
vertices below one that no class can take.
A third gives CE, its witness and the wall time of `full_report` on the
costliest `params` inputs of the benchmark: the fdiamond blow-ups fd*4
and fd*5, the complete multipartite K[2,3,4,5,6,7], the dense G(n, 0.7)
draws from `Random(1000 n + index)` and hd(5,7,[6]*7), where the profile
search and the colour extension search do the work. Two draws also
appear relabelled by `Random(2).shuffle`, which leaves vertex 0 not
free: the CE = 0 witness is then not the first vertex, and the profile
search must decide every vertex below it. The last row is a 128-vertex
host whose 119 lowest vertices are not free. Each row of these three
tables pins its answer (chi and the profile count or CAP, chi, CE and
its witness): the script exits 1, naming each row, when one answers
otherwise.
Cliff B is the set of NO verdicts that only a complete search proves:
perfect-packing refutations in K_a+K_b, K_{a,b}, K_{a,b,c} and
K_{3,...,3,3(k-1)} hosts (k = 4..10), the space barriers of K_r
(r = 4..9), the divisibility barriers of K_{1,...,1,3} (r = 2..6
classes), and the covering refutation that `orepack verify` runs for
prop2(3,1,7,7) against fdiamond. Cliff C is five of those hosts (the K4,
K5 and K6 space barriers and K3 into K_{3^5,12} and K_{3^6,15}) with 1
or 3 edges deleted, which the type-count engine no longer sees. Their
table gives the verdict, the search nodes, the wall time and the wall
time per node. Every row of it is a NO instance: the script exits 1,
naming each row, when one answers anything else.
A last table runs the type-count engine of `has_perfect_packing`
(`packing._types_refute`) alone on two YES hosts of 14 distinct class
sizes, where a state has thousands of children and the engine takes
only the first of each; the search that `has_perfect_packing` runs
after it would take 35 s on the first. It gives the engine's verdict,
nodes and wall time, and the script exits 1, naming the row, when the
engine answers anything but YES. Times are `time.perf_counter` wall
times of one run.
"""

from __future__ import annotations

import os
import random
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import orepack as op  # noqa: E402
from orepack import packing  # noqa: E402
from orepack.graphs import Meter  # noqa: E402


def _copies(g: op.Graph, k: int) -> op.Graph:
    out = op.empty_graph(0)
    for _ in range(k):
        out = op.disjoint_union(out, g)
    return out


def _pendant_triangle(k: int) -> op.Graph:
    """A triangle with k pendant leaves, dealt to its corners in turn. Each
    leaf misses two of the three classes, so it has 2^k 3-colorings, all
    from one coloring of the triangle."""
    return op.Graph.from_edges(k + 3, [(0, 1), (1, 2), (0, 2)] + [(i % 3, i + 3) for i in range(k)])


# (name, graph, (chi, number of profiles), or None for CAP)
PROFILE_CLIFFS = (
    ("16K2", lambda: _copies(op.complete_graph(2), 16), (2, 1)),
    ("18K2", lambda: _copies(op.complete_graph(2), 18), (2, 1)),
    ("22K2", lambda: _copies(op.complete_graph(2), 22), (2, 1)),
    ("3C5", lambda: _copies(op.cycle_graph(5), 3), (3, 3)),
    ("4C5", lambda: _copies(op.cycle_graph(5), 4), (3, 4)),
    ("G(16,0.15)#1 from Random(16001)", lambda: op.random_graph(16, 0.15, random.Random(16001)), (3, 11)),
    ("G(20,0.15) from Random(20)", lambda: op.random_graph(20, 0.15, random.Random(20)), (4, 39)),
    ("G(24,0.2) from Random(24)", lambda: op.random_graph(24, 0.2, random.Random(24)), None),
    ("G(26,0.2)#3 from Random(26003)", lambda: op.random_graph(26, 0.2, random.Random(26003)), None),
    ("K3 with 12 pendant leaves", lambda: _pendant_triangle(12), (3, 13)),
    ("G(22,0.5) from Random(2205)", lambda: op.random_graph(22, 0.5, random.Random(2205)), (6, 9)),
    ("G(28,0.6) from Random(2806)", lambda: op.random_graph(28, 0.6, random.Random(2806)), (8, 6)),
    ("C15", lambda: op.cycle_graph(15), (3, 7)),
    ("C21", lambda: op.cycle_graph(21), (3, 12)),
)


def _paths_and_c5(k: int) -> op.Graph:
    return op.disjoint_union(_copies(op.path_graph(3), k), op.cycle_graph(5))


# (name, graph, chi)
CHROMATIC_CLIFFS = (
    ("16P3+C5", lambda: _paths_and_c5(16), 3),
    ("18P3+C5", lambda: _paths_and_c5(18), 3),
    ("G(40,0.5) from Random(40)", lambda: op.random_graph(40, 0.5, random.Random(40)), 8),
)


def _shuffled(g: op.Graph) -> op.Graph:
    """g relabelled by ``random.Random(2).shuffle``."""
    perm = list(range(g.n))
    random.Random(2).shuffle(perm)
    return op.relabel(g, perm)


def _cycle_on_path_square(m: int, k: int) -> op.Graph:
    """The square of a path on m vertices, labelled from its far end, and
    a k-cycle through the path's last edge. For odd k no path vertex is
    free, and the cycle has (2^k - 2)/6 3-colorings with that edge fixed."""
    n = m + k - 2
    edges = [(i, i + 1) for i in range(m - 1)] + [(i, i + 2) for i in range(m - 2)]
    cycle = [m - 2, m - 1, *range(m, n)]
    edges += [(cycle[i], cycle[i + 1]) for i in range(1, k - 1)] + [(cycle[-1], cycle[0])]
    return op.Graph.from_edges(n, edges)


# (name, graph, (CE, witness)); an infinite CE has value and witness None
REPORTS = (
    ("fd*4", lambda: op.blow_up(op.construct_fdiamond(), 4), (1, 24)),
    ("fd*5", lambda: op.blow_up(op.construct_fdiamond(), 5), (1, 30)),
    ("K[2,3,4,5,6,7]", lambda: op.complete_multipartite([2, 3, 4, 5, 6, 7])[0], (None, None)),
    ("G(24,0.7)#0", lambda: op.random_graph(24, 0.7, random.Random(1000 * 24 + 0)), (1, 2)),
    ("G(30,0.7)#2", lambda: op.random_graph(30, 0.7, random.Random(1000 * 30 + 2)), (0, 0)),
    (
        "G(30,0.7)#2 shuffled",
        lambda: _shuffled(op.random_graph(30, 0.7, random.Random(1000 * 30 + 2))),
        (0, 1),
    ),
    (
        "G(18,0.12)#1 shuffled",
        lambda: _shuffled(op.random_graph(18, 0.12, random.Random(1000 * 18 + 1))),
        (0, 2),
    ),
    ("hd(5,7,[6]*7)", lambda: op.construct_hdiamond(5, 7, [6] * 7), (5, 42)),
    ("C11 on a path square", lambda: _cycle_on_path_square(119, 11), (0, 119)),
)


def _union(a: int, b: int) -> op.Graph:
    return op.disjoint_union(op.complete_graph(a), op.complete_graph(b))


def _bipartite(a: int, b: int) -> op.Graph:
    return op.complete_multipartite([a, b])[0]


def _skewed(k: int) -> op.Graph:
    """k classes of 3 and one of 3(k-1). Each triangle takes at most one
    vertex of the large class, so no K3-packing covers it."""
    return op.complete_multipartite([3] * k + [3 * (k - 1)])[0]


def _space_barrier(r: int, t: int = 8) -> op.Graph:
    """The r-partite host with classes [t-1, t+1, t, ..., t]. Each copy of
    K_r takes one vertex of every class, so the t copies that the order
    allows leave a vertex of the class of t+1 uncovered."""
    return op.complete_multipartite([t - 1, t + 1] + [t] * (r - 2))[0]


def _minus_edges(g: op.Graph, k: int) -> op.Graph:
    """g without k of its edges, drawn by ``random.Random(k).sample``. A
    spanning subgraph of a NO host is a NO host, but no longer complete
    multipartite, so the search has to refute it."""
    gone = set(random.Random(k).sample(list(g.edges()), k))
    return op.Graph.from_edges(g.n, [e for e in g.edges() if e not in gone])


# the Cliff C hosts: Cliff B hosts that are refuted at the root, each with
# k edges deleted
NEAR_MULTIPARTITE = (
    ("K4 space barrier, t=8", lambda: _space_barrier(4), op.complete_graph(4)),
    ("K5 space barrier, t=8", lambda: _space_barrier(5), op.complete_graph(5)),
    ("K6 space barrier, t=6", lambda: _space_barrier(6, 6), op.complete_graph(6)),
    ("K3 into K_{3^5,12}", lambda: _skewed(5), op.complete_graph(3)),
    ("K3 into K_{3^6,15}", lambda: _skewed(6), op.complete_graph(3)),
)


def _parity_t(r: int) -> int:
    """The least even t >= 8 for which r classes of about t vertices take
    an even number m = rt/(r+2) of copies of K_{1,...,1,3}."""
    return next(t for t in range(8, 64, 2) if r * t % (2 * (r + 2)) == 0)


def _divisibility_barrier(r: int):
    """K_{1,...,1,3} on r classes into the r-partite host with classes
    [t+1, t-1, t, ..., t]. Each copy puts 1 vertex into every class but
    one, which gets 3, so every class size has the parity of the number
    of copies m, which is even, and t+1 is odd. No j classes are too full
    for the copies, so the count bound at the root does not refute it."""
    t = _parity_t(r)
    host = op.complete_multipartite([t + 1, t - 1] + [t] * (r - 2))[0]
    return host, op.complete_multipartite([1] * (r - 1) + [3])[0]


# verify reports whether w is left uncovered; the cover search's verdict
# is the opposite one
COVER_VERDICT = {op.Verdict.YES: "NO", op.Verdict.NO: "YES", op.Verdict.UNKNOWN: "UNKNOWN"}


def _verify_prop2():
    inst = op.construct_prop2(3, 1, 7, 7)
    report = op.verify_lower_bound(inst, op.construct_fdiamond())
    return COVER_VERDICT[report.no_cover], report.nodes


def _pack(g: op.Graph, h: op.Graph):
    result = op.has_perfect_packing(g, h)
    return result.verdict.value.upper(), result.nodes


CLIFFS = (
    ("K3 into K13+K14", lambda: _pack(_union(13, 14), op.complete_graph(3))),
    ("C4 into K13+K15", lambda: _pack(_union(13, 15), op.cycle_graph(4))),
    ("C4 into K_{7,9}", lambda: _pack(_bipartite(7, 9), op.cycle_graph(4))),
    ("C4 into K_{9,11}", lambda: _pack(_bipartite(9, 11), op.cycle_graph(4))),
    ("C4 into K_{30,34}", lambda: _pack(_bipartite(30, 34), op.cycle_graph(4))),
    ("K3 into K40+K41", lambda: _pack(_union(40, 41), op.complete_graph(3))),
    ("K3 into K_{20,20,23}", lambda: _pack(op.complete_multipartite([20, 20, 23])[0], op.complete_graph(3))),
    *(
        (f"K3 into K_{{3,...,3,{3 * (k - 1)}}}, k={k}", lambda k=k: _pack(_skewed(k), op.complete_graph(3)))
        for k in range(4, 11)
    ),
    *(
        (f"K{r} space barrier, t=8", lambda r=r: _pack(_space_barrier(r), op.complete_graph(r)))
        for r in range(4, 10)
    ),
    *(
        (f"K_{{1,...,1,3}} parity barrier, r={r}, t={_parity_t(r)}", lambda r=r: _pack(*_divisibility_barrier(r)))
        for r in range(2, 7)
    ),
    ("verify prop2(3,1,7,7) vs fdiamond", _verify_prop2),
    *(
        (f"{name} -{k} edge{'s' * (k > 1)}", lambda build=build, h=h, k=k: _pack(_minus_edges(build(), k), h))
        for name, build, h in NEAR_MULTIPARTITE
        for k in (1, 3)
    ),
)


# packed graph H as class sizes, and the host's class sizes
ENGINE_YES = (
    ("K_{1,1,1,1,3} into K_{35,1,2,...,13}", [1, 1, 1, 1, 3], [35, *range(1, 14)]),
    ("K_{1,1,1,3} into K_{35,1,2,...,13}", [1, 1, 1, 3], [35, *range(1, 14)]),
)


def _engine(parts, sizes):
    meter = Meter()
    try:
        refuted = packing._types_refute(sizes, op.complete_multipartite(parts)[0], meter)
    except op.BudgetExhausted:
        return "UNKNOWN", meter.nodes
    return "NO" if refuted else "YES", meter.nodes


def main() -> int:
    wrong = []
    width = max(len(name) for name, _, _ in PROFILE_CLIFFS)
    print(f"{'instance':<{width}}  chi  profiles        ms")
    for name, build, pinned in PROFILE_CLIFFS:
        g = build()
        start = time.perf_counter()
        try:
            chi, profiles, _ = op.class_size_profiles(g)
            got = chi, len(profiles)
            answer = f"{chi:3d}  {len(profiles):8d}"
        except op.BudgetExhausted:
            got = None
            answer = f"{'CAP':>13}"
        ms = (time.perf_counter() - start) * 1000
        print(f"{name:<{width}}  {answer}  {ms:8.1f}")
        if got != pinned:
            wrong.append((name, "CAP" if pinned is None else "chi %d with %d profiles" % pinned))
    print()
    width = max(len(name) for name, _, _ in CHROMATIC_CLIFFS)
    print(f"{'instance':<{width}}  chi        ms")
    for name, build, pinned in CHROMATIC_CLIFFS:
        g = build()
        start = time.perf_counter()
        chi = op.chromatic_number(g)
        ms = (time.perf_counter() - start) * 1000
        print(f"{name:<{width}}  {chi:3d}  {ms:8.1f}")
        if chi != pinned:
            wrong.append((name, f"chi {pinned}"))
    print()
    width = max(len(name) for name, _, _ in REPORTS)
    print(f"{'instance':<{width}}   CE  witness        ms")
    for name, build, pinned in REPORTS:
        g = build()
        start = time.perf_counter()
        report = op.full_report(g)
        ms = (time.perf_counter() - start) * 1000
        print(f"{name:<{width}}  {report.ce!r:>3}  {report.witness_vertex!s:>7}  {ms:8.1f}")
        if (report.ce.value, report.witness_vertex) != pinned:
            wrong.append((name, "CE %s with witness %s" % pinned))
    print()
    width = max(len(name) for name, _ in CLIFFS)
    print(f"{'instance':<{width}}  verdict      nodes        ms  us/node")
    for name, run in CLIFFS:
        start = time.perf_counter()
        verdict, nodes = run()
        ms = (time.perf_counter() - start) * 1000
        print(f"{name:<{width}}  {verdict:<7}  {nodes:9d}  {ms:8.1f}  {1000 * ms / max(nodes, 1):7.2f}")
        if verdict != "NO":
            wrong.append((name, "NO"))
    print()
    width = max(len(name) for name, _, _ in ENGINE_YES)
    print(f"{'type-count engine':<{width}}  verdict      nodes        ms")
    for name, parts, sizes in ENGINE_YES:
        start = time.perf_counter()
        verdict, nodes = _engine(parts, sizes)
        ms = (time.perf_counter() - start) * 1000
        print(f"{name:<{width}}  {verdict:<7}  {nodes:9d}  {ms:8.1f}")
        if verdict != "YES":
            wrong.append((name, "YES"))
    for name, expected in wrong:
        print(f"cliffs.py: {name} answered other than {expected}", file=sys.stderr)
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
