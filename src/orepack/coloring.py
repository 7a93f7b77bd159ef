"""Exact chromatic computations.

Two backtracking searches colour vertices. Every search whose visits are
read in order or pinned by tests runs on one ordered kernel,
``_color_search``, which the colour extension search in ``parameters``
shares: the chromatic number, the window pass and the pinned searches of
the profile search, ``optimal_colorings``, and the placement of a tail
under fewer than r - 1 classes. It takes the vertices in a fixed order.
The counting pass alone, which reads only how many colorings there are
and their class sizes, colours with ``_saturation_search``, which takes
the most constrained vertex next. The chromatic number is the largest
over the components, so it is found one component at a time: k starts at
a greedy clique lower bound and rises while the next component is not
k-colorable. Both searches open new classes with a first-use rule, so
they reach each partition exactly once regardless of color names. The
kernel forward-checks: a branch is cut when every class is open and some
vertex still to place is adjacent to all of them, or when one class is
left to open and two adjacent vertices still to place are each adjacent
to every open class. Neither cut drops a completed coloring, since
placing more vertices only adds neighbours to the classes; so every
caller sees the colorings it would see without the cuts, in the same
order, and every count of them stays as it was.

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
colorings of each component C as they complete (the window pass), and
past them ``class_size_profiles`` decides each vertex still in question
by one kernel search with the vertex's class pinned twice; the packing
layer runs no pinned search.

A component with more than |C| colorings is then counted afresh (the
counting pass), unless it has no tail and every vertex has fewer than r
neighbours before it in the kernel's order: no branch of the kernel's
search dies then, a recount would have no dead branch to skip and would
pay for the window again, and the window pass runs on to the end.
Otherwise the saturation search colours the
component less its tail, an independent set of vertices with at most
r - 2 neighbours each, and each of its colorings with r or r - 1
classes stands for every placement of the tail at once. Taking the
vertex adjacent to the most open classes next (DSatur; Brélaz, CACM
1979) reaches a vertex that no class can take as soon as it has none,
where the kernel's fixed order may first branch on many vertices below
it: G(30,0.7)#2 takes its 4,102 colorings in 4,990 nodes against the
kernel's 13,424. The tail is a stricter "simplify" step of Chaitin's
register allocator (SIGPLAN 1982), which sets aside every vertex of
degree below r. A tail vertex's neighbours fill at most r - 2 classes,
so it always has two classes left; every coloring of the rest thus
stands for at least 2^|T| colorings, where a degree of r - 1 could leave
a vertex one class and the pass no cheaper than completing each
coloring. ``optimal_colorings`` enumerates the partitions themselves,
canonicalized by sorting classes on their minimum vertex; the tests use
it as the oracle for the profiles. Both count completed colorings on a
``graphs.Meter`` capped at ``DEFAULT_ENUMERATION_CAP``, one meter per
search: per component in the profile search, for all of h in
``optimal_colorings``. The counting pass spends the colorings it counts
in bulk, so the cap counts the same colorings with it as without. A
search past the cap raises BudgetExhausted rather than return a
truncated answer, since sigma and the class-size differences are only
correct when the search is complete.
"""

from __future__ import annotations

from functools import reduce
from operator import add, and_
from typing import Callable, Iterator, NamedTuple

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


def _saturation_search(
    h: Graph, order: list[int], total: int, visit: Callable[[list[int]], bool]
) -> bool:
    """Calls ``visit(classes)`` on each coloring of the vertices of ``order``
    with at most ``total`` classes, once each and in an order no caller
    reads, and returns True as soon as a call does; False after the whole
    search. ``classes`` are masks over the vertices of h, in the order
    they were opened.

    Each node places the unplaced vertex adjacent to the most open classes
    (the most saturated; Brélaz, "New methods to color the vertices of a
    graph", CACM 1979), the earliest in ``order`` on a tie, into each
    class that misses it and into the next new class while fewer than
    ``total`` are open. A vertex that every class blocks is so placed at
    once and ends its branch, where the kernel's fixed order may first
    place many others below it.

    The vertices are relabelled by their position in ``order``: ``near``
    holds the positions adjacent to each class, and the saturation counts
    are bit-sliced into ``planes``, top bit first, so that position i
    counts sum(2^k) over the k with bit i set in ``planes[-1 - k]``. A
    placement adds one to the count of each unplaced neighbour new to its
    class by a carry through the planes, and takes it back by a borrow.
    The last vertex needs no counts: the node that places the one before
    it completes it in ``finish``."""
    where = {v: 1 << i for i, v in enumerate(order)}
    rows = [sum(where.get(u, 0) for u in iter_bits(h.adj[v])) for v in order]
    classes: list[int] = []
    near: list[int] = []
    planes = [0] * total.bit_length()
    units = len(planes) - 1

    def finish(low: int) -> bool:
        # each class that takes the last vertex completes a coloring
        bit = 1 << order[low.bit_length() - 1]
        opened = len(classes)
        for c in range(opened):
            if near[c] & low:
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

    def place(left: int) -> bool:
        pick = left
        for plane in planes:
            if pick & plane:
                pick &= plane
        low = pick & -pick
        i = low.bit_length() - 1
        bit = 1 << order[i]
        rest = left ^ low
        row = rows[i] & rest
        if rest & (rest - 1):
            child, grow = place, row
        else:
            child, grow = finish, 0
        opened = len(classes)
        for c in range(opened):
            mask = near[c]
            if mask & low:
                continue
            classes[c] |= bit
            near[c] = mask | row
            bump = carry = grow & ~mask
            j = units
            while carry:
                plane = planes[j]
                planes[j] = plane ^ carry
                carry &= plane
                j -= 1
            if child(rest):
                return True
            j = units
            while bump:
                plane = planes[j]
                planes[j] = plane ^ bump
                bump &= ~plane
                j -= 1
            near[c] = mask
            classes[c] ^= bit
        if opened < total:
            classes.append(bit)
            near.append(row)
            bump = carry = grow
            j = units
            while carry:
                plane = planes[j]
                planes[j] = plane ^ carry
                carry &= plane
                j -= 1
            if child(rest):
                return True
            j = units
            while bump:
                plane = planes[j]
                planes[j] = plane ^ bump
                bump &= ~plane
                j -= 1
            near.pop()
            classes.pop()
        return False

    left = (1 << len(order)) - 1
    if left & (left - 1):
        return place(left)
    return finish(left) if left else visit(classes)


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


class ColoringPartition(NamedTuple):
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
    ``_profile_search``. Its window pass completes a component's colorings
    one by one; a component with more colorings than vertices is recounted
    by its counting pass, most constrained vertex first and with the
    placements of a tail of low-degree vertices spent in bulk, unless it
    has no tail and no branch of the window pass can die. Raises
    BudgetExhausted after more than ``cap`` colorings of one component,
    counted either way.

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
    not yet decided.

    The window pass completes the colorings of C one by one on the kernel
    and checks the first |C| of them. At the |C|-th it decides whether C
    is counted afresh: when C has a ``_tail``, or when some vertex has r
    or more neighbours before it in search order, so that a branch of the
    kernel's search can die. Then the pass stops at the next coloring,
    and ``_counted_sizes`` counts C again on a new meter, most saturated
    vertex first and with the tail's placements spent in bulk. Every
    coloring is counted once either way, so the cap is reached exactly
    when it was by completing each one. A component that the kernel
    colours without a dead branch and that has no tail, such as a cycle,
    keeps its single pass: a recount would find no dead branch to skip and
    would repeat the window. A component with at most |C| colorings reads no more of h
    than the window pass."""
    order = _search_order(h)
    adj = h.adj
    free = h.n

    def collect(classes: list[int]) -> bool:
        nonlocal free, tail, counting
        meter.spend()
        found.add(tuple(map(int.bit_count, classes)))
        if meter.nodes > checked:
            # past the window: the counting pass takes the rest
            return counting
        if meter.nodes == checked:
            tail = _tail(adj, part, r)
            counting = tail != 0 or not _dead_end_free(adj, part, r)
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
        tail, counting = 0, False
        _color_search(h, part, [], r, collect)
        if meter.nodes > checked:
            unchecked.append(part)
            if counting:
                found = _counted_sizes(h, part, tail, r, Meter(cap))
        parts.append({(0,) * (r - len(s)) + tuple(sorted(s)) for s in found})
    return parts, free, unchecked


def _tail(adj: tuple[int, ...], part: list[int], r: int) -> int:
    """The mask of an independent set of vertices of ``part`` with at most
    r - 2 neighbours each, taken greedily from the end of ``part``."""
    tail = 0
    for v in reversed(part):
        if adj[v].bit_count() <= r - 2 and not adj[v] & tail:
            tail |= 1 << v
    return tail


def _dead_end_free(adj: tuple[int, ...], part: list[int], r: int) -> bool:
    """Whether every vertex of ``part`` has fewer than r neighbours before
    it in ``part``. The kernel's search of ``part`` with r classes then
    finds a class for each vertex it reaches: every node of it leads to a
    coloring, so it has no dead branch that another order could skip."""
    seen = 0
    for v in part:
        if (adj[v] & seen).bit_count() >= r:
            return False
        seen |= 1 << v
    return True


def _counted_sizes(
    h: Graph, part: list[int], tail: int, r: int, meter: Meter
) -> set[tuple[int, ...]]:
    """The class-size tuples, in class order and some padded with zeros,
    of the colorings of ``part`` with at most r classes, with one step on
    ``meter`` for each coloring.

    ``_saturation_search`` colours the head, ``part`` without the
    independent ``tail``; with an empty tail each coloring it completes
    spends its step and gives its sizes. Each tail vertex has at most
    r - 2 neighbours, all in the head, so once all r classes are open at
    least two of them miss it, and the tail vertices choose among those
    classes independently. Such a head coloring therefore stands for the
    product of the tail vertices' free-class counts, spent at once, and
    gives its sizes plus the Minkowski sum of the tail's one-vertex
    increments, with sizes packed 8 bits per class (a class holds at most
    128 vertices). The count and the increments depend on the classes
    only through their meets with N(tail), and are kept per meet. A head
    coloring with r - 1 classes counts the same way with an empty r-th
    class: the tail vertices put there form the one class left to open,
    or none. With fewer classes the tail could open several, so the
    kernel places it with the head's classes pinned, one coloring at a
    time."""
    adj = h.adj
    tails = [v for v in part if tail >> v & 1]
    head = [v for v in part if not tail >> v & 1]
    near = 0
    for t in tails:
        near |= adj[t]
    found: set[tuple[int, ...]] = set()
    bulk: dict[tuple[int, ...], tuple[int, set[int]]] = {}
    pending = set()

    def placed(classes: list[int]) -> bool:
        meter.spend()
        found.add(tuple(map(int.bit_count, classes)))
        return False

    def counted(classes: list[int]) -> bool:
        if len(classes) < r - 1:
            return _color_search(h, tails, list(classes), r, placed)
        if len(classes) < r:
            classes = classes + [0]
        key = tuple(m & near for m in classes)
        if key not in bulk:
            steps, grown = 1, {0}
            for t in tails:
                ways = [1 << 8 * c for c, m in enumerate(key) if not m & adj[t]]
                steps *= len(ways)
                grown = {s + w for s in grown for w in ways}
            bulk[key] = steps, grown
        meter.spend(bulk[key][0])
        pending.add((tuple(map(int.bit_count, classes)), key))
        return False

    _saturation_search(h, head, r, counted if tails else placed)
    sums = set()
    for sizes, key in pending:
        base = sum(k << 8 * c for c, k in enumerate(sizes))
        sums.update(base + s for s in bulk[key][1])
    return found | {tuple(s >> 8 * c & 255 for c in range(r)) for s in sums}


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
