"""Independent reference implementations used only to cross-check the
package. Everything here favors brute force over cleverness: these must
stay structurally unrelated to the code paths they validate."""

from __future__ import annotations

import math
from collections import Counter
from functools import reduce
from itertools import combinations, permutations
from typing import Callable

from orepack import BudgetExhausted, Graph, coloring, graphs, packing


# ---------------------------------------------------------------------------
# graph text format detection, line by line
#
# ``parse_graph_text`` as it was before one-word texts skipped the line
# split: every text is cut into content lines and its first line read as
# a possible edge-list header.


def parse_graph_text_before(text: str) -> Graph:
    rows = graphs._content_lines(text)
    if rows and len(graphs._ASCII_SPACES.split(rows[0])) == 2:
        try:
            header = graphs._int_pair(rows[0], "header")
        except graphs.GraphFormatError:
            pass
        else:
            return graphs._edge_list(rows, header)
    return graphs.parse_graph6(text)


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


# ---------------------------------------------------------------------------
# graph6 writing and relabelling, edge by edge
#
# ``to_graph6`` and ``relabel`` as they were before both moved to the
# reader's bit-matrix steps: one binary string per column, and one edge
# at a time.


def graph6_by_columns(g: Graph) -> str:
    n = g.n
    if n <= 62:
        head = chr(n + 63)
    else:
        head = "~" + "".join(chr((n >> shift & 63) + 63) for shift in (12, 6, 0))
    # column j is x_{0j} .. x_{(j-1)j}: the bits of adj[j] below j, reversed
    bits = "".join(format(g.adj[j] & ((1 << j) - 1), f"0{j}b")[::-1] for j in range(1, n))
    bits += "0" * (-len(bits) % 6)
    return head + "".join(chr(int(bits[i:i + 6], 2) + 63) for i in range(0, len(bits), 6))


def relabel_edge_by_edge(g: Graph, perm) -> Graph:
    adj = [0] * g.n
    for v in range(g.n):
        for u in graphs.iter_bits(g.adj[v]):
            adj[perm[v]] |= 1 << perm[u]
    return Graph(g.n, tuple(adj))


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
# random graphs, pair by pair
#
# ``probes.random_graph`` as it was before it drew bit-parallel: one
# ``rng.random()`` per vertex pair u < v, u-major. An order outside 0..128
# raises only after every pair is drawn.


def random_graph_before(n: int, p: float, rng) -> Graph:
    adj = [0] * n
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
    return Graph(n, tuple(adj))


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


def brute_independence_number(g: Graph) -> int:
    """The order of a largest independent set of g, by trying every vertex
    subset, largest first."""
    for k in range(g.n, 0, -1):
        for subset in combinations(range(g.n), k):
            if not any(g.has_edge(u, v) for u, v in combinations(subset, 2)):
                return k
    return 0


def brute_optimal_partitions(g: Graph):
    parts = independent_set_partitions(g)
    chi = min(len(p) for p in parts)
    return [p for p in parts if len(p) == chi]


# ---------------------------------------------------------------------------
# the fixed-order colouring kernel without forward checking
#
# ``coloring._color_search`` as it was before it cut dead branches or took
# the most saturated vertex next: the same first-use backtracking, over the
# vertices in the order given, with every branch searched to its end. It
# visits the same colorings as the search, each once, in another order.


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
# the profile search completing every coloring
#
# ``coloring._profile_search`` as it was before it counted the colorings of
# a component's low-degree tail in bulk: one pass per component that
# completes every coloring, checking the first |C| of them, on the
# fixed-order kernel without forward checking, which visits the colorings
# in the order that the kernel with forward checking did.


def profile_search_before(h: Graph, cap: int, r: int):
    """(parts, free, unchecked) as ``coloring._profile_search`` gave them
    when it completed each coloring in the fixed order: per component, the
    sorted class sizes, padded with zeros to r, of its colorings with at
    most r classes; the lowest vertex that the first |C| colorings of
    each component C leave free, or h.n; and the components with more
    colorings than vertices, each as its vertices in search order. Raises
    BudgetExhausted, with the meter's message, after more than ``cap``
    colorings of one component."""
    order = sorted(range(h.n), key=lambda v: (-h.degree(v), v))
    free = h.n
    parts, unchecked = [], []
    for comp in _component_sets(h):
        found = set()
        count = 0

        def collect(classes, comp=comp, found=found):
            nonlocal free, count
            count += 1
            if count > cap:
                raise BudgetExhausted(f"the search took more than {cap} steps; raise the limit to finish it")
            found.add(tuple(sorted([0] * (r - len(classes)) + [m.bit_count() for m in classes])))
            if count <= len(comp):
                for x in sorted(comp):
                    if x >= free:
                        break
                    if len(classes) < r or [m & h.adj[x] for m in classes].count(0) >= 2:
                        free = x
                        break
            return False

        part = [v for v in order if v in comp]
        plain_color_search(h, part, [], r, collect)
        parts.append(found)
        if count > len(comp):
            unchecked.append(part)
    return parts, free, unchecked


# ---------------------------------------------------------------------------
# class-size profiles after a separate chromatic number
#
# ``coloring.class_size_profiles`` as it was before its profile searches
# found chi themselves: ``chromatic_number`` first, then one profile
# search with chi classes, then the pinned free-vertex searches.


def class_size_profiles_before(h: Graph, cap: int = coloring.DEFAULT_ENUMERATION_CAP):
    """(chi, profiles, lowest free vertex or None) as
    ``coloring.class_size_profiles`` gave them when it called
    ``chromatic_number`` first."""
    r = coloring.chromatic_number(h)
    parts, free, unchecked = coloring._profile_search(h, cap, r)
    adj = h.adj
    for comp in unchecked:
        seen = set()
        for x in graphs.iter_bits(comp):
            if x >= free:
                break
            if adj[x] in seen:
                continue
            seen.add(adj[x])
            if coloring._color_search(h, comp ^ 1 << x, [1 << x, 1 << x], r, lambda _: True, [adj[x], adj[x]]):
                free = x
                break
    return r, reduce(coloring._labelled_sums, parts), free if free < h.n else None


# ---------------------------------------------------------------------------
# the colour extension search by rising m
#
# ``parameters.colour_extension_number`` as it was before it became one
# pass over the vertices with a falling bound, on the fixed-order kernel
# without forward checking.


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


# ---------------------------------------------------------------------------
# the packing, cover and copy searches before their per-node cost was cut
#
# The embedding search (now the closure that ``packing._embedder``
# builds), the anchor pick (now read off bit-sliced counts) and the
# ``solve`` loop of ``has_perfect_packing`` as they were while each node
# scanned H's rows with ``iter_bits``, tested ``None not in assignment``,
# scanned the uncovered vertices for the anchor and built an ``Embedding``
# for every copy tried: the same order, twin rule, failed-set memo and
# node count, so every verdict, certificate and count must match.


class OutOfNodes(Exception):
    pass


class _Nodes:
    def __init__(self, limit):
        self.nodes = 0
        self.limit = limit

    def spend(self):
        self.nodes += 1
        if self.limit is not None and self.nodes > self.limit:
            raise OutOfNodes


def _bits(mask: int) -> list[int]:
    return [v for v in range(mask.bit_length()) if mask >> v & 1]


def _twins_below(g: Graph) -> list[int]:
    """below[v]: the vertices u < v with N(u) - v == N(v) - u."""
    return [
        sum(1 << u for u in range(v) if g.adj[u] & ~(1 << v) == g.adj[v] & ~(1 << u))
        for v in range(g.n)
    ]


def _components_largest_first(h: Graph) -> list[int]:
    comps = sorted(_component_sets(h), key=lambda c: (-len(c), min(c)))
    return [v for comp in comps for v in sorted(comp)]


def _search_before(g, h, allowed, assignment, used, meter, comp_order, below):
    if None not in assignment:
        yield tuple(assignment)
        return
    best_v = None
    best_cands = 0
    best_count = -1
    for v in range(h.n):
        if assignment[v] is not None:
            continue
        cands = None
        for u in _bits(h.adj[v]):
            gu = assignment[u]
            if gu is not None:
                cands = g.adj[gu] if cands is None else cands & g.adj[gu]
                if not cands:
                    break
        if cands is None:
            continue
        cands &= allowed & ~used
        count = cands.bit_count()
        if best_count < 0 or count < best_count:
            best_v, best_cands, best_count = v, cands, count
            if count == 0:
                return
    if best_v is None:
        for v in comp_order:
            if assignment[v] is None:
                best_v = v
                break
        best_cands = allowed & ~used
    for c in _bits(best_cands):
        if below[c] & best_cands:
            continue
        meter.spend()
        assignment[best_v] = c
        yield from _search_before(g, h, allowed, assignment, used | (1 << c), meter, comp_order, below)
        assignment[best_v] = None


def _embeddings_before(g, h, meter, below, allowed, anchor):
    comp_order = _components_largest_first(h)
    if h.n == 0:
        yield ()
        return
    if h.n > allowed.bit_count():
        return
    if anchor is None:
        yield from _search_before(g, h, allowed, [None] * h.n, 0, meter, comp_order, below)
        return
    for v in range(h.n):
        meter.spend()
        assignment = [None] * h.n
        assignment[v] = anchor
        yield from _search_before(g, h, allowed, assignment, 1 << anchor, meter, comp_order, below)


def _anchor_before(g: Graph, uncovered: int) -> int:
    best = -1
    best_deg = -1
    for v in _bits(uncovered):
        d = (g.adj[v] & uncovered).bit_count()
        if best < 0 or d < best_deg:
            best, best_deg = v, d
    return best


def packing_search_before(g: Graph, h: Graph, budget=None, events=None):
    """(verdict, certificate mappings or None, nodes) of the packing search
    alone, the type-count engine left out; verdict is "yes", "no" or
    "unknown". ``events``, a Counter if given, counts the "memo hits" on
    refuted sets and the "retries": copies tried after a sibling failed."""
    if g.n % h.n:
        return "no", None, 0
    meter = _Nodes(budget)
    below = _twins_below(g)
    failed: set[int] = set()
    events = Counter() if events is None else events

    def solve(uncovered):
        if not uncovered:
            return []
        if uncovered in failed:
            events["memo hits"] += 1
            return None
        v = _anchor_before(g, uncovered)
        tried = 0
        for mapping in _embeddings_before(g, h, meter, below, uncovered, v):
            events["retries"] += tried
            tried = 1
            image = sum(1 << x for x in mapping)
            rest = solve(uncovered & ~image)
            if rest is not None:
                return [mapping] + rest
        failed.add(uncovered)
        return None

    try:
        cert = solve((1 << g.n) - 1)
    except OutOfNodes:
        return "unknown", None, meter.nodes
    return ("no", None, meter.nodes) if cert is None else ("yes", cert, meter.nodes)


def cover_search_before(g: Graph, h: Graph, w: int, budget=None):
    """(verdict, mapping or None, nodes) of the search for a copy of h
    whose image contains w."""
    meter = _Nodes(budget)
    try:
        if 0 < h.n <= g.n:
            for mapping in _embeddings_before(g, h, meter, _twins_below(g), (1 << g.n) - 1, w):
                return "yes", mapping, meter.nodes
    except OutOfNodes:
        return "unknown", None, meter.nodes
    return "no", None, meter.nodes


def copies_before(g: Graph, h: Graph, anchor=None):
    """Every labelled embedding of h into g, in the order of the plain
    search, with no twin skipped."""
    return _embeddings_before(g, h, _Nodes(None), [0] * g.n, (1 << g.n) - 1, anchor)


# ---------------------------------------------------------------------------
# certificate checking copy by copy
#
# ``packing.verify_packing`` as it was before it checked the images of all
# copies together: ``is_copy`` on each embedding, then its image against
# the union of the images before it.


def verify_packing_before(g: Graph, h: Graph, cert) -> bool:
    covered = 0
    for emb in cert:
        image = 0
        for x in emb.mapping:
            image |= 1 << x
        if not packing.is_copy(g, h, emb) or image & covered:
            return False
        covered |= image
    return covered == g.vertex_mask
