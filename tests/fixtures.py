"""Named fixture graphs shared across the test modules."""

from __future__ import annotations

import random

from orepack import (
    Graph,
    complete_graph,
    complete_multipartite,
    construct_fdiamond,
    construct_hdiamond,
    cycle_graph,
    disjoint_union,
    empty_graph,
    path_graph,
    random_graph,
    star_graph,
)


def k4_minus() -> Graph:
    return Graph.from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])


def petersen() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, 5 + i) for i in range(5)]
    return Graph.from_edges(10, outer + inner + spokes)


def pendant_triangle(k: int) -> Graph:
    """A triangle with k pendant leaves, dealt to its corners in turn: 2^k
    3-colorings, all from the one coloring of the triangle, since each
    leaf misses two of its classes."""
    return Graph.from_edges(k + 3, [(0, 1), (1, 2), (0, 2)] + [(i % 3, i + 3) for i in range(k)])


def dense_g30() -> Graph:
    """G(30, 0.7) drawn from ``random.Random(30002)``, the costliest params
    input of the benchmark: chi 10, no vertex of degree below 15, and
    4,102 optimal colorings."""
    return random_graph(30, 0.7, random.Random(30002))


def corpus() -> dict[str, Graph]:
    """At least 20 graphs with an edge: cliques, cycles, stars, the worked
    examples, apex instances, bipartite graphs, disjoint unions, and
    graphs with isolated vertices."""
    graphs: dict[str, Graph] = {}
    for r in range(2, 7):
        graphs[f"K{r}"] = complete_graph(r)
    for n in range(4, 10):
        graphs[f"C{n}"] = cycle_graph(n)
    graphs["K4_minus"] = k4_minus()
    graphs["F_diamond"] = construct_fdiamond()
    graphs["H_diamond_1_3"] = construct_hdiamond(1, 3, [2, 2, 2])
    graphs["H_diamond_2_4"] = construct_hdiamond(2, 4, [3, 3, 3, 3])
    graphs["H_diamond_2_5"] = construct_hdiamond(2, 5, [3, 3, 3, 3, 3])
    graphs["star3"] = star_graph(3)
    graphs["star4"] = star_graph(4)
    graphs["K23"] = complete_multipartite([2, 3])[0]
    graphs["K33"] = complete_multipartite([3, 3])[0]
    graphs["P3"] = path_graph(3)
    graphs["P4"] = path_graph(4)
    graphs["K2+K3"] = disjoint_union(complete_graph(2), complete_graph(3))
    graphs["K3+K3"] = disjoint_union(complete_graph(3), complete_graph(3))
    graphs["C5+K2"] = disjoint_union(cycle_graph(5), complete_graph(2))
    graphs["K3+K1"] = disjoint_union(complete_graph(3), empty_graph(1))
    graphs["K2+2K1"] = disjoint_union(complete_graph(2), empty_graph(2))
    graphs["petersen"] = petersen()
    return graphs


def small_corpus(max_n: int = 8) -> dict[str, Graph]:
    return {name: g for name, g in corpus().items() if g.n <= max_n}
