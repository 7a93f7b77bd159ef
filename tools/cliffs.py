"""Print the cost of each cliff instance, and check each one's answer.

    python3 tools/cliffs.py

The instances are where orepack's exact searches fall off cliffs
(ROADMAP.md, Baseline). They come as tables, each a header and rows, and
each row is a name, the work it times and the answer it pins. One loop
times and prints every row; the script exits 1, with one stderr line per
row that names it and shows its answer and its pin, when a row answers
other than its pin. A packing row times building its host too; every
other row times only its call. Times are `time.perf_counter` wall times of
one run.

- Cliff A, the class-size profile search of `orepack params`: chi and
  the number of distinct sorted class-size profiles of the optimal
  colourings, or CAP when `class_size_profiles` ends in `BudgetExhausted`.
  G(16,0.15)#1 and G(26,0.2)#3 are drawn as the benchmark draws its
  G(n,p)#i, from `Random(1000 n + i)`. A triangle with 12 pendant leaves
  has 4,096 colourings, which the profile search counts in bulk from the
  one colouring of the triangle. The last four rows have no tail: the
  dense G(22,0.5) and G(28,0.6), drawn from `Random(2205)` and
  `Random(2806)`, and the cycles C15 and C21. On 3C5, 4C5, C5+C7+K2 and
  16P3+C5 the clique bound that the profile search starts from is 2,
  below chi = 3, so it searches the components again with 3 classes.
- `chromatic_number` on unions of many paths and a 5-cycle, where a
  search that backtracks across components retries every colouring of
  the paths, and on G(40,0.5) from `Random(40)`, where a search that
  takes the vertices in a fixed order branches on many vertices below one
  that no class can take.
- CE and its witness from `full_report` on the costliest `params` inputs
  of the benchmark: the fdiamond blow-ups fd*4 and fd*5, the complete
  multipartite K[2,3,4,5,6,7], the dense G(n, 0.7) draws from
  `Random(1000 n + index)`, hd(5,7,[6]*7) and hd(3,5,[4,6,7,7,7]). Two
  draws and hd(5,7,[6]*7) also appear relabelled by `Random(2).shuffle`,
  which leaves vertex 0 not free: the CE = 0 witness is then not the
  first vertex, and the profile search must decide every vertex below
  it. Then a 128-vertex host whose 119 lowest vertices are not free, and
  the unions 3C5, C5+C7+K2 and 16P3+C5, whose clique bound is below chi.
- The same from `colour_extension_number` alone, the search that
  `orepack verify` runs, with the number of colouring searches it starts
  (`parameters._color_search` calls), a count that does not depend on
  the machine. On the hdiamonds the clique bounds leave one: the
  eligibility search of the one neighbourhood without a clique on chi - 1
  vertices. On G(40,0.5) from `Random(40)`, `full_report` reads CE = 0
  off the profile search, while the search alone tries thousands of
  colourings of N(x) for an extension.
- Cliffs B and C, NO verdicts that only a complete search proves, with
  the search nodes and the wall time per node. Cliff B: perfect-packing
  refutations in K_a+K_b, K_{a,b}, K_{a,b,c} and K_{3,...,3,3(k-1)} hosts
  (k = 4..10), the space barriers of K_r (r = 4..9), the divisibility
  barriers of K_{1,...,1,3} (r = 2..6 classes), K4 + C15 into K_{6,6,7}
  (K4 has no 3-colouring, so the profile search stops before the
  5,461 colourings of C15 pass the engine's cap), and the covering
  refutation that `orepack verify` runs for prop2(3,1,7,7) against
  fdiamond. Cliff C: five of those hosts (the K4, K5 and K6 space barriers
  and K3 into K_{3^5,12} and K_{3^6,15}) with 1 or 3 edges deleted. They
  are no longer complete multipartite, but the type-count engine still
  refutes those that keep at least |H| open-twin classes.
- Cliff D, YES hosts at the Kierstead-Kostochka bound: the K_r space
  barrier plus a matching in its class of t+1, so that sigma2 =
  2(1-1/r)n - 1, which forces a K_r-factor. K3 at n = 24 and K4 at
  n = 40, each relabelled by `Random(1).shuffle` and `Random(2).shuffle`,
  with a budget of 2*10^6 nodes.
- Cliff E, cut barriers: K_s joined to k copies of K4 (s = 2k - 3), which
  has no K3-factor since each K4 needs two vertices of K_s, and K_s joined
  to s + 2 triangles, which has no perfect matching since each triangle
  needs one. Each with 0 and with 6 edges deleted, relabelled by
  `Random(1).shuffle`, with a budget of 2*10^6 nodes; one row ends
  UNKNOWN.
- The type-count engine of `has_perfect_packing` (`packing._types_refute`)
  alone on two YES hosts of 14 distinct class sizes, where a state has
  thousands of children and the engine takes only the first of each; the
  search that `has_perfect_packing` runs after it would take 35 s on the
  first.
"""

from __future__ import annotations

import os
import random
import sys
import time
from functools import partial

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import orepack as op  # noqa: E402
from orepack import packing, parameters  # noqa: E402
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


def _paths_and_c5(k: int) -> op.Graph:
    return op.disjoint_union(_copies(op.path_graph(3), k), op.cycle_graph(5))


def _c5_c7_k2() -> op.Graph:
    return op.disjoint_union(op.disjoint_union(op.cycle_graph(5), op.cycle_graph(7)), op.complete_graph(2))


def _k4_c15() -> op.Graph:
    return op.disjoint_union(op.complete_graph(4), op.cycle_graph(15))


def _shuffled(g: op.Graph, seed: int = 2) -> op.Graph:
    """g relabelled by ``random.Random(seed).shuffle``."""
    perm = list(range(g.n))
    random.Random(seed).shuffle(perm)
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


def _kk_host(r: int, t: int, seed: int) -> op.Graph:
    """The K_r space barrier [t-1, t+1, t, ..., t] plus a matching of
    consecutive vertex pairs inside its class of t+1, relabelled by
    ``random.Random(seed).shuffle``. An unmatched vertex of that class and
    a matched one miss each other with degree sum 2(1-1/r)n - 1, the least
    of any pair."""
    g = _space_barrier(r, t)
    big = range(t - 1, 2 * t)
    g = op.Graph.from_edges(g.n, [*g.edges(), *zip(big[::2], big[1::2])])
    assert op.min_ore_degree_sum(g) == 2 * (r - 1) * t - 1
    return _shuffled(g, seed)


def _cut_barrier(s: int, part: int, k: int, d: int) -> op.Graph:
    """K_s joined to k copies of K_part, the complement of s isolated
    vertices beside the complete k-partite graph with classes of part,
    less d edges, relabelled by ``random.Random(1).shuffle``."""
    g = op.complement(op.disjoint_union(op.empty_graph(s), op.complete_multipartite([part] * k)[0]))
    return _shuffled(_minus_edges(g, d), 1)


# the work of each row returns its answer and the search nodes it
# expanded, or None where it counts none

def _profiles(g: op.Graph):
    try:
        chi, profiles, _ = op.class_size_profiles(g)
    except op.BudgetExhausted:
        return "CAP", None
    return (chi, len(profiles)), None


def _chi(g: op.Graph):
    return op.chromatic_number(g), None


def _full_report(g: op.Graph):
    report = op.full_report(g)
    return (report.ce.value, report.witness_vertex), None


def _extension(g: op.Graph):
    """CE and its witness, and the colouring searches the CE search
    starts, counted by wrapping ``parameters._color_search``."""
    search = parameters._color_search
    searches = 0

    def counted(*args):
        nonlocal searches
        searches += 1
        return search(*args)

    parameters._color_search = counted
    try:
        ce, witness = op.colour_extension_number(g)
    finally:
        parameters._color_search = search
    return (ce.value, witness), searches


def _pack(g: op.Graph, h: op.Graph, budget: int = packing.DEFAULT_BUDGET):
    result = op.has_perfect_packing(g, h, budget)
    return result.verdict.value.upper(), result.nodes


# verify reports whether w is left uncovered; the cover search's verdict
# is the opposite one
COVER_VERDICT = {op.Verdict.YES: "NO", op.Verdict.NO: "YES", op.Verdict.UNKNOWN: "UNKNOWN"}


def _verify_prop2():
    inst = op.construct_prop2(3, 1, 7, 7)
    report = op.verify_lower_bound(inst, op.construct_fdiamond())
    return COVER_VERDICT[report.no_cover], report.nodes


def _engine(parts, sizes):
    meter = Meter()
    try:
        refuted = packing._types_refute(sizes, op.complete_multipartite(parts)[0], meter)
    except op.BudgetExhausted:
        return "UNKNOWN", meter.nodes
    return "NO" if refuted else "YES", meter.nodes


def _profile_cells(answer, nodes, ms):
    return (f"{'CAP':>13}" if answer == "CAP" else "%3d  %8d" % answer) + f"  {ms:8.1f}"


def _ce_cells(answer, nodes, ms):
    ce, witness = answer
    return f"{'inf' if ce is None else ce:>3}  {witness!s:>7}  {ms:8.1f}"


def _ce_search_cells(answer, searches, ms):
    return f"{_ce_cells(answer, searches, ms)}  {searches:9d}"


def _search_cells(answer, nodes, ms):
    return f"{answer:<7}  {nodes:9d}  {ms:8.1f}  {1000 * ms / max(nodes, 1):7.2f}"


SEARCH_COLUMNS = "verdict      nodes        ms  us/node"

# (title, the columns after the name, the cells of a row from its answer,
# nodes and ms, rows); a row is (name, work, pinned answer)
TABLES = (
    ("instance", "chi  profiles        ms", _profile_cells, (
        ("16K2", partial(_profiles, _copies(op.complete_graph(2), 16)), (2, 1)),
        ("18K2", partial(_profiles, _copies(op.complete_graph(2), 18)), (2, 1)),
        ("22K2", partial(_profiles, _copies(op.complete_graph(2), 22)), (2, 1)),
        ("3C5", partial(_profiles, _copies(op.cycle_graph(5), 3)), (3, 3)),
        ("4C5", partial(_profiles, _copies(op.cycle_graph(5), 4)), (3, 4)),
        ("C5+C7+K2", partial(_profiles, _c5_c7_k2()), (3, 4)),
        ("16P3+C5", partial(_profiles, _paths_and_c5(16)), (3, 153)),
        ("G(16,0.15)#1 from Random(16001)", partial(_profiles, op.random_graph(16, 0.15, random.Random(16001))), (3, 11)),
        ("G(20,0.15) from Random(20)", partial(_profiles, op.random_graph(20, 0.15, random.Random(20))), (4, 39)),
        ("G(24,0.2) from Random(24)", partial(_profiles, op.random_graph(24, 0.2, random.Random(24))), "CAP"),
        ("G(26,0.2)#3 from Random(26003)", partial(_profiles, op.random_graph(26, 0.2, random.Random(26003))), "CAP"),
        ("K3 with 12 pendant leaves", partial(_profiles, _pendant_triangle(12)), (3, 13)),
        ("G(22,0.5) from Random(2205)", partial(_profiles, op.random_graph(22, 0.5, random.Random(2205))), (6, 9)),
        ("G(28,0.6) from Random(2806)", partial(_profiles, op.random_graph(28, 0.6, random.Random(2806))), (8, 6)),
        ("C15", partial(_profiles, op.cycle_graph(15)), (3, 7)),
        ("C21", partial(_profiles, op.cycle_graph(21)), (3, 12)),
    )),
    ("instance", "chi        ms", lambda chi, nodes, ms: f"{chi:3d}  {ms:8.1f}", (
        ("16P3+C5", partial(_chi, _paths_and_c5(16)), 3),
        ("18P3+C5", partial(_chi, _paths_and_c5(18)), 3),
        ("G(40,0.5) from Random(40)", partial(_chi, op.random_graph(40, 0.5, random.Random(40))), 8),
    )),
    ("full_report", " CE  witness        ms", _ce_cells, (
        ("fd*4", partial(_full_report, op.blow_up(op.construct_fdiamond(), 4)), (1, 24)),
        ("fd*5", partial(_full_report, op.blow_up(op.construct_fdiamond(), 5)), (1, 30)),
        ("K[2,3,4,5,6,7]", partial(_full_report, op.complete_multipartite([2, 3, 4, 5, 6, 7])[0]), (None, None)),
        ("G(24,0.7)#0", partial(_full_report, op.random_graph(24, 0.7, random.Random(1000 * 24 + 0))), (1, 2)),
        ("G(30,0.7)#2", partial(_full_report, op.random_graph(30, 0.7, random.Random(1000 * 30 + 2))), (0, 0)),
        (
            "G(30,0.7)#2 shuffled",
            partial(_full_report, _shuffled(op.random_graph(30, 0.7, random.Random(1000 * 30 + 2)))),
            (0, 1),
        ),
        (
            "G(18,0.12)#1 shuffled",
            partial(_full_report, _shuffled(op.random_graph(18, 0.12, random.Random(1000 * 18 + 1)))),
            (0, 2),
        ),
        ("hd(5,7,[6]*7)", partial(_full_report, op.construct_hdiamond(5, 7, [6] * 7)), (5, 42)),
        ("hd(5,7,[6]*7) shuffled", partial(_full_report, _shuffled(op.construct_hdiamond(5, 7, [6] * 7))), (5, 3)),
        ("hd(3,5,[4,6,7,7,7])", partial(_full_report, op.construct_hdiamond(3, 5, [4, 6, 7, 7, 7])), (3, 31)),
        ("C11 on a path square", partial(_full_report, _cycle_on_path_square(119, 11)), (0, 119)),
        ("3C5", partial(_full_report, _copies(op.cycle_graph(5), 3)), (0, 0)),
        ("C5+C7+K2", partial(_full_report, _c5_c7_k2()), (0, 0)),
        ("16P3+C5", partial(_full_report, _paths_and_c5(16)), (0, 0)),
    )),
    ("colour_extension_number", " CE  witness        ms   searches", _ce_search_cells, (
        ("fdiamond", partial(_extension, op.construct_fdiamond()), (1, 6)),
        ("fd*5", partial(_extension, op.blow_up(op.construct_fdiamond(), 5)), (1, 30)),
        ("hd(5,7,[6]*7)", partial(_extension, op.construct_hdiamond(5, 7, [6] * 7)), (5, 42)),
        ("hd(5,7,[6]*7) shuffled", partial(_extension, _shuffled(op.construct_hdiamond(5, 7, [6] * 7))), (5, 3)),
        ("hd(3,5,[4,6,7,7,7])", partial(_extension, op.construct_hdiamond(3, 5, [4, 6, 7, 7, 7])), (3, 31)),
        ("G(24,0.7)#0", partial(_extension, op.random_graph(24, 0.7, random.Random(1000 * 24 + 0))), (1, 2)),
        ("G(40,0.5) from Random(40)", partial(_extension, op.random_graph(40, 0.5, random.Random(40))), (0, 2)),
    )),
    ("instance", SEARCH_COLUMNS, _search_cells, (
        ("K3 into K13+K14", lambda: _pack(_union(13, 14), op.complete_graph(3)), "NO"),
        ("C4 into K13+K15", lambda: _pack(_union(13, 15), op.cycle_graph(4)), "NO"),
        ("C4 into K_{7,9}", lambda: _pack(_bipartite(7, 9), op.cycle_graph(4)), "NO"),
        ("C4 into K_{9,11}", lambda: _pack(_bipartite(9, 11), op.cycle_graph(4)), "NO"),
        ("C4 into K_{30,34}", lambda: _pack(_bipartite(30, 34), op.cycle_graph(4)), "NO"),
        ("K3 into K40+K41", lambda: _pack(_union(40, 41), op.complete_graph(3)), "NO"),
        ("K3 into K_{20,20,23}", lambda: _pack(op.complete_multipartite([20, 20, 23])[0], op.complete_graph(3)), "NO"),
        *(
            (f"K3 into K_{{3,...,3,{3 * (k - 1)}}}, k={k}", lambda k=k: _pack(_skewed(k), op.complete_graph(3)), "NO")
            for k in range(4, 11)
        ),
        *(
            (f"K{r} space barrier, t=8", lambda r=r: _pack(_space_barrier(r), op.complete_graph(r)), "NO")
            for r in range(4, 10)
        ),
        *(
            (f"K_{{1,...,1,3}} parity barrier, r={r}, t={_parity_t(r)}", lambda r=r: _pack(*_divisibility_barrier(r)), "NO")
            for r in range(2, 7)
        ),
        ("K4+C15 into K_{6,6,7}", lambda: _pack(op.complete_multipartite([6, 6, 7])[0], _k4_c15()), "NO"),
        ("verify prop2(3,1,7,7) vs fdiamond", _verify_prop2, "NO"),
        # Cliff C: Cliff B hosts that are refuted at the root, each with k
        # edges deleted
        *(
            (f"{name} -{k} edge{'s' * (k > 1)}", lambda build=build, h=h, k=k: _pack(_minus_edges(build(), k), h), "NO")
            for name, build, h in (
                ("K4 space barrier, t=8", lambda: _space_barrier(4), op.complete_graph(4)),
                ("K5 space barrier, t=8", lambda: _space_barrier(5), op.complete_graph(5)),
                ("K6 space barrier, t=6", lambda: _space_barrier(6, 6), op.complete_graph(6)),
                ("K3 into K_{3^5,12}", lambda: _skewed(5), op.complete_graph(3)),
                ("K3 into K_{3^6,15}", lambda: _skewed(6), op.complete_graph(3)),
            )
            for k in (1, 3)
        ),
    )),
    ("Kierstead-Kostochka bound", SEARCH_COLUMNS, _search_cells, tuple(
        (
            f"K{r}, n={r * t}, Random({seed})",
            lambda r=r, t=t, seed=seed: _pack(_kk_host(r, t, seed), op.complete_graph(r), 2 * 10**6),
            "YES",
        )
        for r, t in ((3, 8), (4, 10))
        for seed in (1, 2)
    )),
    # H is K_{part-1}: K3 into K4s, K2 into triangles
    ("cut barrier", SEARCH_COLUMNS, _search_cells, tuple(
        (
            f"K{part - 1} into K_{s} join {k}K{part}" + f" -{d} edges" * bool(d),
            lambda s=s, part=part, k=k, d=d: _pack(_cut_barrier(s, part, k, d), op.complete_graph(part - 1), 2 * 10**6),
            pin,
        )
        for d, s, part, k, pin in (
            (0, 9, 4, 6, "NO"),
            (0, 21, 4, 12, "NO"),
            (0, 37, 4, 20, "NO"),
            (0, 14, 3, 16, "NO"),
            (0, 30, 3, 32, "NO"),
            (6, 9, 4, 6, "NO"),
            (6, 21, 4, 12, "NO"),
            (6, 37, 4, 20, "UNKNOWN"),
            (6, 14, 3, 16, "NO"),
            (6, 30, 3, 32, "NO"),
        )
    )),
    ("type-count engine", "verdict      nodes        ms", lambda verdict, nodes, ms: f"{verdict:<7}  {nodes:9d}  {ms:8.1f}", (
        ("K_{1,1,1,1,3} into K_{35,1,2,...,13}", partial(_engine, [1, 1, 1, 1, 3], [35, *range(1, 14)]), "YES"),
        ("K_{1,1,1,3} into K_{35,1,2,...,13}", partial(_engine, [1, 1, 1, 3], [35, *range(1, 14)]), "YES"),
    )),
)


def main() -> int:
    wrong = []
    for i, (title, columns, cells, rows) in enumerate(TABLES):
        if i:
            print()
        width = max(len(title), *(len(name) for name, _, _ in rows))
        print(f"{title:<{width}}  {columns}")
        for name, work, pin in rows:
            start = time.perf_counter()
            answer, nodes = work()
            print(f"{name:<{width}}  {cells(answer, nodes, (time.perf_counter() - start) * 1000)}")
            if answer != pin:
                wrong.append(f"cliffs.py: {title} {name}: answered {answer}, pinned {pin}")
    for line in wrong:
        print(line, file=sys.stderr)
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
