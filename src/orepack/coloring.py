"""Exact chromatic computations.

Every coloring search of the package runs on one backtracking kernel,
``_color_search``, which the colour extension search in ``parameters``
shares. The chromatic number is the largest over the components, so it is
found one component at a time: k starts at a greedy clique lower bound
and rises while the next component is not k-colorable. The kernel opens
new classes with a first-use rule, so it reaches each partition exactly
once regardless of color names. It forward-checks: a branch is cut when
every class is open and some vertex still to place is adjacent to all of
them, or when one class is left to open and two adjacent vertices still
to place are each adjacent to every open class. Neither cut drops a
completed coloring, since placing more vertices only adds neighbours to
the classes; so every caller sees the colorings it would see without the
cuts, in the same order, and every count of them stays as it was.

``class_size_profiles`` gives the set of sorted class-size profiles of
the optimal colorings (proper partitions into exactly chi classes), which
is all the parameter layer needs. It reads them from ``_profile_search``,
which searches each component on its own with up to r classes and keeps
only the class sizes, sorting each distinct size tuple of a component
once; the components are then merged by matching their classes up in
every way. The packing layer reads the same per-component sets, with r
the number of classes of a complete r-partite host, as the copies of
each component of H there. ``class_size_profiles`` also reports the
lowest free vertex, which the parameter layer reads as the witness of
colour extension number 0: the profile search checks the first |C|
colorings of each component C as they complete, and past them
``class_size_profiles`` decides each vertex still in question by one
kernel search with the vertex's class pinned twice; the packing layer
runs no pinned search. ``optimal_colorings`` enumerates the partitions
themselves, canonicalized by sorting classes on their minimum vertex;
the tests use it as the oracle for the profiles.
Both count completed colorings on a ``graphs.Meter`` capped at
``DEFAULT_ENUMERATION_CAP``, one meter per kernel search: per component
in the profile search, for all of h in ``optimal_colorings``. A search
past the cap raises BudgetExhausted rather than return a truncated
answer, since sigma and the class-size differences are only correct
when the search is complete.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import add, and_
from typing import Callable, Iterator

from .graphs import Graph, Meter, PreconditionError, components, iter_bits

DEFAULT_ENUMERATION_CAP = 10**6


def require_edge(h: Graph) -> None:
    if h.n == 0 or h.edge_count() == 0:
        raise PreconditionError("graph must contain at least one edge")


def greedy_clique(h: Graph) -> tuple[int, ...]:
    """Grow a clique greedily by most-constrained degree; lower-bounds chi."""
    cand = h.vertex_mask
    clique = []
    while cand:
        best = -1
        best_deg = -1
        for v in iter_bits(cand):
            d = (h.adj[v] & cand).bit_count()
            if d > best_deg:
                best, best_deg = v, d
        clique.append(best)
        cand &= h.adj[best]
    return tuple(clique)


def _search_order(h: Graph) -> list[int]:
    return sorted(range(h.n), key=lambda v: (-h.degree(v), v))


def _color_search(
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

    The search forward-checks (Haralick and Elliott, 1980). Beside each
    class it keeps in ``near`` the mask of the vertices adjacent to the
    class. A vertex still to place that is adjacent to every open class
    is *stuck*: only a class not yet opened can take it. A node is cut
    when
    1. all ``total`` classes are open and some vertex is stuck, or
    2. one class is left to open and two stuck vertices are adjacent,
       since both would need that one class.
    Placing vertices only grows the classes and their ``near`` masks, so a
    stuck vertex stays stuck and a cut node has no completed coloring
    below it. The search therefore visits the same colorings in the same
    order as it would without the cuts, and stops at the same one.

    A placed vertex is never adjacent to its own class, so the vertices
    of ``order`` (``scope``) adjacent to every open class are all still to
    place. Only a vertex that the last placement made adjacent to its
    class (``fresh``) can newly be stuck, so a node checks those and no
    others; an edge between two stuck vertices that are not fresh was
    already there at the parent. The last vertex is not checked: the
    classes that take it are its completions, visited without a further
    call.
    """
    adj = h.adj
    near = []
    # bits taken inline: the colour extension search pins classes on
    # thousands of short calls, and iter_bits costs half again as much
    for m in classes:
        mask = 0
        while m:
            low = m & -m
            mask |= adj[low.bit_length() - 1]
            m ^= low
        near.append(mask)
    last = total - 1
    final = len(order) - 1
    scope = 0
    for v in order:
        scope |= 1 << v

    def place(i: int, fresh: int) -> bool:
        opened = len(classes)
        v = order[i]
        bit = 1 << v
        av = adj[v]
        if i == final:
            # each class that takes the last vertex completes a coloring
            for c in range(opened):
                if classes[c] & av:
                    continue
                classes[c] |= bit
                if visit(classes):
                    return True
                classes[c] ^= bit
            if opened < total:
                classes.append(bit)
                if visit(classes):
                    return True
                classes.pop()
            return False
        stuck = opened >= last and scope & fresh
        if stuck:
            for mask in near:
                stuck &= mask
                if not stuck:
                    break
            else:
                if opened >= total:
                    return False
                every = reduce(and_, near, scope)
                if any(adj[u] & every for u in iter_bits(stuck)):
                    return False
        for c in range(opened):
            if classes[c] & av:
                continue
            classes[c] |= bit
            mask = near[c]
            near[c] = mask | av
            if place(i + 1, av & ~mask):
                return True
            near[c] = mask
            classes[c] ^= bit
        if opened < total:
            classes.append(bit)
            near.append(av)
            if place(i + 1, av):
                return True
            near.pop()
            classes.pop()
        return False

    return place(0, scope) if order else visit(classes)


def chromatic_number(h: Graph) -> int:
    if h.n == 0:
        raise PreconditionError("chromatic number of the empty graph is undefined")
    if h.edge_count() == 0:
        return 1
    k = max(2, len(greedy_clique(h)))
    order = _search_order(h)
    for comp in components(h):
        part = [v for v in order if comp >> v & 1]
        while not _color_search(h, part, [], k, lambda _: True):
            k += 1
    return k


@dataclass(frozen=True)
class ColoringPartition:
    """A partition of the vertex set into independent classes.

    ``classes`` are ordered by their minimum vertex, which identifies the
    partition uniquely without reference to color names.
    """

    classes: tuple[frozenset[int], ...]
    sizes_sorted: tuple[int, ...]

    @classmethod
    def from_classes(cls, classes: Iterator[frozenset[int]]) -> "ColoringPartition":
        ordered = tuple(sorted(classes, key=min))
        sizes = tuple(sorted(len(c) for c in ordered))
        return cls(ordered, sizes)


def optimal_colorings(h: Graph, cap: int = DEFAULT_ENUMERATION_CAP) -> list[ColoringPartition]:
    """All partitions of V(h) into exactly chi(h) independent classes.

    Color permutations are identified: the result holds each partition once.
    Raises BudgetExhausted if more than ``cap`` partitions exist.
    """
    r = chromatic_number(h)
    meter = Meter(cap)
    out: list[ColoringPartition] = []

    # no proper coloring has fewer than chi classes, so each one reached
    # uses all r of them
    def emit(classes: list[int]) -> bool:
        meter.spend()
        out.append(
            ColoringPartition.from_classes(frozenset(iter_bits(m)) for m in classes)
        )
        return False

    _color_search(h, _search_order(h), [], r, emit)
    out.sort(key=lambda p: tuple(tuple(sorted(c)) for c in p.classes))
    return out


def class_size_profiles(
    h: Graph, cap: int = DEFAULT_ENUMERATION_CAP
) -> tuple[int, set[tuple[int, ...]], int | None]:
    """chi(h), the sorted class sizes of every optimal coloring of h, and
    the lowest free vertex, or None when no vertex is free.

    A partition of V(h) into chi classes restricts to a coloring of each
    component with at most chi classes, and any such colorings of the
    components, with their classes matched up, give one. So the profiles
    are the ``_labelled_sums`` of the per-component sets of
    ``_profile_search``. Raises BudgetExhausted after more than ``cap``
    completed colorings of one component.

    A vertex x is free when some optimal coloring leaves it non-adjacent
    to two of its classes, x's own class being one: N(x) then meets at
    most chi - 2 classes. Whether it does depends only on the coloring of
    x's component C, and it is decided there, only below the lowest free
    vertex found so far. The first |C| completed colorings of C are each
    checked by ``_profile_search``; a component coloring with fewer than
    chi classes leaves all of its vertices free. When C has more
    colorings, each vertex x of C still below the bound is decided
    instead by one search of C - x with x's class pinned twice, taking x
    in increasing order and one vertex per neighbourhood. The second
    pinned class stands for a closed twin of x, which no vertex of N(x)
    can join, so the search reaches a coloring exactly when some coloring
    of C with at most chi classes has a second class that misses N(x), or
    has fewer than chi classes. A check costs O(chi) per vertex. On the
    benchmark's params inputs a pinned search past |C| colorings visited
    a median 0.9 |C| nodes, so the switch comes where the checks would
    have cost about one search. On components with at most |C| colorings
    the checks stay: there the pinned searches mostly fail, and a failing
    one visited up to 67 |C| nodes. The pinned searches are not metered,
    and run only here: the packing layer reads the profiles of
    ``_profile_search`` alone. The lowest free vertex is the witness of
    colour extension number 0 (see ``parameters``).
    """
    r = chromatic_number(h)
    parts, free, unchecked = _profile_search(h, cap, r)
    adj = h.adj
    for part in unchecked:
        seen = set()
        for x in sorted(part):
            if x >= free:
                break
            if adj[x] in seen:
                continue
            seen.add(adj[x])
            rest = [v for v in part if v != x]
            if _color_search(h, rest, [1 << x, 1 << x], r, lambda _: True):
                free = x
                break
    return r, reduce(_labelled_sums, parts), free if free < h.n else None


def _profile_search(
    h: Graph, cap: int, r: int
) -> tuple[list[set[tuple[int, ...]]], int, list[list[int]]]:
    """For each component of h, in the order of ``components``, the set of
    sorted class sizes, padded with zeros to r, of its colorings with at
    most r classes, counted on a ``Meter(cap)`` of its own; the lowest
    vertex that the first |C| completed colorings of each component C
    show free, or h.n; and, each in search order, the components with
    more colorings than vertices, whose vertices below that bound are
    not yet decided."""
    order = _search_order(h)
    adj = h.adj
    free = h.n

    def collect(classes: list[int]) -> bool:
        nonlocal free
        meter.spend()
        found.add(tuple(map(int.bit_count, classes)))
        if meter.nodes > checked:
            return False
        if len(classes) < r:
            free = min(free, low)
        else:
            below = comp & ((1 << free) - 1)
            while below:
                x = (below & -below).bit_length() - 1
                # x's own class misses N(x); one more must
                if [m & adj[x] for m in classes].count(0) >= 2:
                    free = x
                    break
                below &= below - 1
        return False

    parts = []
    unchecked = []
    for comp in components(h):
        low = (comp & -comp).bit_length() - 1
        found: set[tuple[int, ...]] = set()
        meter = Meter(cap)
        # the completed colorings up to this count are checked
        checked = comp.bit_count()
        part = [v for v in order if comp >> v & 1]
        _color_search(h, part, [], r, collect)
        if meter.nodes > checked:
            unchecked.append(part)
        parts.append({(0,) * (r - len(s)) + tuple(sorted(s)) for s in found})
    return parts, free, unchecked


def _labelled_sums(
    left: set[tuple[int, ...]], right: set[tuple[int, ...]]
) -> set[tuple[int, ...]]:
    """{sorted(a + pi(b))} over a in ``left``, b in ``right`` and the
    distinct permutations pi of b. Sorting a first loses nothing: a
    permutation of a is absorbed by the permutations of b."""
    out = set()
    for b in right:
        for p in _distinct_permutations(b):
            out.update(tuple(sorted(map(add, a, p))) for a in left)
    return out


def _distinct_permutations(b: tuple[int, ...]) -> list[tuple[int, ...]]:
    """The distinct orderings of the sorted tuple ``b``; unlike
    ``itertools.permutations``, once each, so chi equal entries cost one
    ordering rather than chi!."""
    if len(b) <= 1:
        return [b]
    out = []
    for i, x in enumerate(b):
        if i == 0 or b[i - 1] != x:
            out += [(x,) + rest for rest in _distinct_permutations(b[:i] + b[i + 1:])]
    return out
