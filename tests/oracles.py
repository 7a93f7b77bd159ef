"""Independent reference implementations used only to cross-check the
package. Everything here favors brute force over cleverness: these must
stay structurally unrelated to the code paths they validate."""

from __future__ import annotations

import math
from itertools import combinations, permutations
from typing import Callable

from orepack import Graph


# ---------------------------------------------------------------------------
# adjacency checks and graph6 decoding, edge by edge
#
# These are the scans ``Graph`` and ``parse_graph6`` ran before both moved
# to transposing the adjacency rows.


def graph_error_by_scan(n: int, adj) -> str | None:
    """The ValueError message ``Graph(n, adj)`` must raise, or None when it
    must accept: the checks in their order, the symmetry check edge by edge."""
    if not 0 <= n <= 128:
        return f"vertex count {n} outside 0..128"
    if len(adj) != n:
        return "adjacency row count does not match vertex count"
    for v, mask in enumerate(adj):
        if mask >> n:
            return f"adjacency of vertex {v} mentions vertices >= {n}"
        if mask >> v & 1:
            return f"loop at vertex {v}"
    for v, mask in enumerate(adj):
        for u in range(n):
            if mask >> u & 1 and not adj[u] >> v & 1:
                return f"asymmetric edge {v}-{u}"
    return None


def decode_graph6_by_columns(word: str) -> Graph:
    """The graph of a well-formed graph6 ``word`` (no header), its upper
    triangle read one column and one bit at a time."""
    if word[0] == "~":
        n = ((ord(word[1]) - 63) << 12) | ((ord(word[2]) - 63) << 6) | (ord(word[3]) - 63)
        body = word[4:]
    else:
        n, body = ord(word[0]) - 63, word[1:]
    bits = "".join(format(ord(ch) - 63, "06b") for ch in body)
    adj = [0] * n
    start = 0
    for j in range(1, n):
        for i in range(j):  # column j holds x_{0j} .. x_{(j-1)j}
            if bits[start + i] == "1":
                adj[i] |= 1 << j
                adj[j] |= 1 << i
        start += j
    return Graph(n, tuple(adj))


def ore_sum_by_pairs(g: Graph) -> int | float:
    """``min_ore_degree_sum`` as it was before it took the vertices by
    rising degree: d(x) + d(y) over every non-adjacent pair x < y."""
    degs = g.degrees()
    best: int | float = math.inf
    for u in range(g.n):
        for v in range(u + 1, g.n):
            if not g.has_edge(u, v):
                best = min(best, degs[u] + degs[v])
    return best


def average_degree_checks_by_loop(n: int, ore_sum, avg) -> tuple[int, bool]:
    """(condition hits, violated) of the average-degree probe on a graph of
    order n with minimum Ore degree sum ``ore_sum`` and average degree
    ``avg``, as the probe found them before it counted them in closed form:
    one comparison per k from 0, stopping at the first violation."""
    k_max = n - 1 if ore_sum == math.inf else min(n - 1, int(ore_sum) // 2)
    hits = 0
    for k in range(k_max + 1):
        hits += 1
        if avg < k:
            return hits, True
    return hits, False


# ---------------------------------------------------------------------------
# set partitions and chromatic brute force


def independent_set_partitions(g: Graph):
    """Every partition of V(g) into independent classes (any class count),
    by brute-force first-use enumeration."""
    n = g.n
    results = []

    def rec(v, classes):
        if v == n:
            results.append([frozenset(c) for c in classes])
            return
        for c in classes:
            if all(not g.has_edge(v, u) for u in c):
                c.append(v)
                rec(v + 1, classes)
                c.pop()
        classes.append([v])
        rec(v + 1, classes)
        classes.pop()

    if n == 0:
        return [[]]
    rec(0, [])
    return results


def brute_chromatic_number(g: Graph) -> int:
    if g.n == 0:
        return 0
    return min(len(p) for p in independent_set_partitions(g))


def brute_optimal_partitions(g: Graph):
    parts = independent_set_partitions(g)
    chi = min(len(p) for p in parts)
    return [p for p in parts if len(p) == chi]


# ---------------------------------------------------------------------------
# the colouring kernel without forward checking
#
# ``coloring._color_search`` as it was before it cut dead branches: the same
# first-use backtracking, with every branch searched to its end.


def plain_color_search(
    h: Graph,
    order: list[int],
    classes: list[int],
    total: int,
    visit: Callable[[list[int]], bool],
) -> bool:
    """Backtrack over the vertices in ``order``, putting each into an
    existing class of ``classes`` (masks, which may start out pinned) or
    into the next new class while fewer than ``total`` exist. New classes
    are interchangeable, so only the next unused one is ever opened.

    Calls ``visit(classes)`` on every completed coloring and returns True
    as soon as a call does; False after the whole search.
    """
    adj = h.adj
    end = len(order)

    def place(i: int) -> bool:
        if i == end:
            return visit(classes)
        v = order[i]
        bit = 1 << v
        for c in range(len(classes)):
            if classes[c] & adj[v]:
                continue
            classes[c] |= bit
            if place(i + 1):
                return True
            classes[c] ^= bit
        if len(classes) < total:
            classes.append(bit)
            if place(i + 1):
                return True
            classes.pop()
        return False

    return place(0)


# ---------------------------------------------------------------------------
# class-size profiles with every coloring checked for free vertices
#
# ``coloring.class_size_profiles`` as it was before it decided the free
# vertices of a component with many colorings by pinned searches: each
# completed coloring of each component is checked at every vertex of it.


def profiles_checking_each_coloring(h: Graph, r: int):
    """(r, profiles, free): the sorted class sizes, padded with zeros to r,
    of every coloring of h with at most r classes, and the lowest vertex
    that some such coloring leaves non-adjacent to two of its classes or
    colors with fewer than r classes in its component (None if none)."""
    order = sorted(range(h.n), key=lambda v: (-h.degree(v), v))
    profiles = {(0,) * r}
    free = None
    for comp in _component_sets(h):
        found = set()

        def check(classes, comp=comp, found=found):
            nonlocal free
            found.add(tuple(sorted([0] * (r - len(classes)) + [m.bit_count() for m in classes])))
            for x in comp:
                if len(classes) < r or [m & h.adj[x] for m in classes].count(0) >= 2:
                    free = x if free is None else min(free, x)
            return False

        plain_color_search(h, [v for v in order if v in comp], [], r, check)
        profiles = {
            tuple(sorted(a + b for a, b in zip(old, p)))
            for old in profiles
            for s in found
            for p in _orderings(s)
        }
    return r, profiles, free


def _orderings(s: tuple[int, ...]) -> list[tuple[int, ...]]:
    """The distinct orderings of ``s``."""
    if not s:
        return [()]
    out = []
    for x in set(s):
        i = s.index(x)
        out += [(x,) + rest for rest in _orderings(s[:i] + s[i + 1:])]
    return out


def _component_sets(h: Graph) -> list[set[int]]:
    seen: set[int] = set()
    out = []
    for v in range(h.n):
        if v in seen:
            continue
        comp, stack = {v}, [v]
        while stack:
            for u in h.neighbors(stack.pop()):
                if u not in comp:
                    comp.add(u)
                    stack.append(u)
        seen |= comp
        out.append(comp)
    return out


# ---------------------------------------------------------------------------
# the colour extension search by rising m
#
# ``parameters.colour_extension_number`` as it was before it became one
# pass over the vertices with a falling bound, on the kernel without
# forward checking, which visits the same colorings in the same order.


def ce_by_rising_m(h: Graph, chi: int, start: int = 0):
    """(m, witness), or (None, None) when no vertex is eligible: for m from
    ``start`` up, the lowest eligible x, by x, whose pinned search of N(x)
    with chi - 2 classes reaches a coloring that extends to all of h with
    at most chi + m classes."""
    order = sorted(range(h.n), key=lambda v: (-h.degree(v), v))
    eligible = []
    for x in range(h.n):
        inside = [v for v in order if h.has_edge(x, v)]
        if plain_color_search(h, inside, [], chi - 2, lambda _: True):
            eligible.append((x, inside, [v for v in order if not h.has_edge(x, v)]))
    if not eligible:
        return None, None
    for m in range(start, chi - 1):
        for x, inside, outside in eligible:

            def extends(pinned, outside=outside, m=m):
                return plain_color_search(h, outside, list(pinned), chi + m, lambda _: True)

            if plain_color_search(h, inside, [], chi - 2, extends):
                return m, x
    raise AssertionError("an eligible vertex must extend within chi - 2 extra colors")


# ---------------------------------------------------------------------------
# color extension number via whole-graph partitions
#
# m_x is the least (number of classes) - chi over all independent
# partitions of V whose classes meet N(x) in at most chi - 2 places; the
# partition restricted to N(x) is then the chosen small coloring and the
# partition itself is its extension.


def brute_colour_extension_number(g: Graph):
    chi = brute_chromatic_number(g)
    all_parts = independent_set_partitions(g)
    best = None
    best_witness = None
    for x in range(g.n):
        nbrs = set(g.neighbors(x))
        sub_chi = brute_chromatic_number_of_subset(g, nbrs)
        if sub_chi > chi - 2:
            continue
        m_x = min(
            len(p) - chi
            for p in all_parts
            if sum(1 for c in p if c & nbrs) <= chi - 2
        )
        if best is None or m_x < best:
            best, best_witness = m_x, x
    return best, best_witness  # (None, None) encodes infinity


def brute_chromatic_number_of_subset(g: Graph, vertices) -> int:
    verts = sorted(vertices)
    if not verts:
        return 0
    idx = {v: i for i, v in enumerate(verts)}
    sub = Graph.from_edges(
        len(verts),
        [
            (idx[u], idx[v])
            for u, v in g.edges()
            if u in idx and v in idx
        ],
    )
    return brute_chromatic_number(sub)


# ---------------------------------------------------------------------------
# maximum matching (general graphs, blossom contraction)


def max_matching_size(g: Graph) -> int:
    n = g.n
    match = [-1] * n
    parent = [0] * n
    base = [0] * n
    q: list[int] = []
    used = [False] * n
    blossom = [False] * n

    def lca(a, b):
        used_path = [False] * n
        while True:
            a = base[a]
            used_path[a] = True
            if match[a] == -1:
                break
            a = parent[match[a]]
        while True:
            b = base[b]
            if used_path[b]:
                return b
            b = parent[match[b]]

    def mark_path(v, b, child):
        while base[v] != b:
            blossom[base[v]] = True
            blossom[base[match[v]]] = True
            parent[v] = child
            child = match[v]
            v = parent[match[v]]

    def find_path(root) -> int:
        nonlocal q
        for i in range(n):
            used[i] = False
            parent[i] = -1
            base[i] = i
        used[root] = True
        q = [root]
        while q:
            v = q.pop(0)
            for to in g.neighbors(v):
                if base[v] == base[to] or match[v] == to:
                    continue
                if to == root or (match[to] != -1 and parent[match[to]] != -1):
                    cur = lca(v, to)
                    for i in range(n):
                        blossom[i] = False
                    mark_path(v, cur, to)
                    mark_path(to, cur, v)
                    for i in range(n):
                        if blossom[base[i]]:
                            base[i] = cur
                            if not used[i]:
                                used[i] = True
                                q.append(i)
                elif parent[to] == -1:
                    parent[to] = v
                    if match[to] == -1:
                        # augment along the path ending at 'to'
                        u = to
                        while u != -1:
                            pv = parent[u]
                            ppv = match[pv]
                            match[u] = pv
                            match[pv] = u
                            u = ppv
                        return 1
                    used[match[to]] = True
                    q.append(match[to])
        return 0

    size = 0
    for v in range(n):
        if match[v] == -1:
            size += find_path(v)
    return size


def has_perfect_matching(g: Graph) -> bool:
    return g.n % 2 == 0 and max_matching_size(g) == g.n // 2


# ---------------------------------------------------------------------------
# naive perfect-packing decision (tiny instances only)


def _spans_copy(g: Graph, h: Graph, block) -> bool:
    block = list(block)
    for perm in permutations(block):
        if all(g.has_edge(perm[u], perm[v]) for u, v in h.edges()):
            return True
    return False


def naive_has_perfect_packing(g: Graph, h: Graph) -> bool:
    if h.n == 0 or g.n % h.n != 0:
        return False

    def rec(uncovered: frozenset) -> bool:
        if not uncovered:
            return True
        v = min(uncovered)
        rest = sorted(uncovered - {v})
        for others in combinations(rest, h.n - 1):
            block = (v,) + others
            if _spans_copy(g, h, block) and rec(uncovered - set(block)):
                return True
        return False

    return rec(frozenset(range(g.n)))


def naive_copy_covering(g: Graph, h: Graph, w: int) -> bool:
    for block in combinations(range(g.n), h.n):
        if w in block and _spans_copy(g, h, block):
            return True
    return False


# ---------------------------------------------------------------------------
# isomorphism by backtracking (small graphs)


def are_isomorphic(g1: Graph, g2: Graph) -> bool:
    if g1.n != g2.n or g1.edge_count() != g2.edge_count():
        return False
    if sorted(g1.degrees()) != sorted(g2.degrees()):
        return False
    n = g1.n
    deg1, deg2 = g1.degrees(), g2.degrees()
    order = sorted(range(n), key=lambda v: -deg1[v])
    mapping = [-1] * n
    used = [False] * n

    def rec(i) -> bool:
        if i == n:
            return True
        v = order[i]
        for c in range(n):
            if used[c] or deg1[v] != deg2[c]:
                continue
            ok = True
            for j in range(i):
                u = order[j]
                if g1.has_edge(v, u) != g2.has_edge(c, mapping[u]):
                    ok = False
                    break
            if ok:
                mapping[v] = c
                used[c] = True
                if rec(i + 1):
                    return True
                used[c] = False
                mapping[v] = -1
        return False

    return rec(0)
