"""Exact chromatic computations.

One backtracking search colours vertices for every caller. Its node loop,
``_walk``, is written once and places every vertex, the last one too,
and its leaf at the empty mask takes each coloring so completed:
``_color_search`` visits them for the chromatic number, the window pass
and pinned searches of the profile search, ``optimal_colorings``, and
the colour extension search in ``parameters``, and the counting pass
takes them on a component less its tail. The counting pass's other
leaf, ``pair``, completes the last two vertices at once with no visit
and keeps only the class sizes. Each node takes the unplaced vertex
adjacent to the most classes, pinned classes included (the most
saturated vertex: DSatur; Brélaz, "New methods to color the vertices of
a graph", CACM 1979), and puts it into each class that misses it and
into the next new class. New classes are interchangeable, so only the
next one is ever opened, and the search reaches each partition exactly
once regardless of color names. A tie goes to the higher degree, the
vertex with the most neighbours still to block, and then to the lower
label, so no call relabels h. A vertex that every class blocks is taken
as soon as it is blocked and ends its branch, where a fixed order may
first branch on many vertices below it: G(30,0.7)#2 completes its 4,102
colorings in 4,990 nodes, where the fixed degree order took 13,424. A
node also ends when its vertex can only open the last class and a
neighbour of it is blocked by every open class, since that neighbour
would then have no class left. The degree counts each search starts
from come from ``_degree_planes``, the one entry for them, which the
packing search reads too.

No output depends on the order in which the colorings are visited. The
chromatic number, the pinned searches and the extension searches ask
only whether a coloring exists (the extension search keeps the least
class count over all of them); ``optimal_colorings`` sorts what it
collects; the profiles are sets; and the checks of the window pass only
bound the lowest free vertex, which the pinned searches then decide
exactly. So the search may take its vertices in whatever order each
branch makes cheapest. The chromatic number is the largest over the
components, so ``chromatic_number`` finds it one component at a time: k
starts at the order of the clique that ``_clique`` grows in h, the lower
bound that ``class_size_profiles`` starts from, and rises while the next
component is not k-colorable.

``class_size_profiles`` gives the set of sorted class-size profiles of
the optimal colorings (proper partitions into exactly chi classes), which
is all the parameter layer needs, and chi with them: it makes no
``chromatic_number`` call. It reads them from ``_profile_search``,
which searches each component on its own with up to r classes and keeps
only the class sizes, sorting each distinct size tuple of a component
once; the components are then merged by matching their classes up in
every way. The packing layer reads the same per-component sets, with r
the number of classes of a complete r-partite host, as the copies of
each component of H there; the search ends at the first component with
none, and only a search stopped at its cap leaves the packing layer to
ask ``chromatic_number`` whether h has an r-colouring at all.
``class_size_profiles`` also reports the lowest free vertex, which the
parameter layer reads as the witness of colour extension number 0: the
profile search checks the first |C| colorings of each component C as
they complete (the window pass), and past them ``class_size_profiles``
decides each vertex still in question by one search with the vertex's
class pinned twice; the packing layer runs no pinned search.

The window pass stops at a component's coloring |C| + 1, and a component
that reaches it is counted afresh on a meter of its own by the one
counting pass, ``_counted_sizes``, which runs the node loop with the
classes kept as sizes. A component without a tail ends in ``pair``,
which lists the completions of the last two vertices at once: on
G(30,0.7)#2 (4,102 colorings, no tail) that took the profile search from
about 10.1 to 7.6 ms on a 2-vCPU container, where the window pass had
run on to the end and visited each coloring. A component with a tail
runs the loop on the rest, its head, down to the empty mask, and each
head coloring with r or r - 1 classes stands for every placement of the
tail at once. The tail is an independent set of vertices with at most
r - 2 neighbours each, a stricter "simplify" step of Chaitin's register
allocator (SIGPLAN 1982), which sets aside every vertex of degree below
r. A tail vertex's neighbours fill at most r - 2 classes, so it always
has two classes left; every such head coloring thus stands for at least
2^|T| colorings, where a degree of r - 1 could leave a vertex one class
and the pass no cheaper than completing each coloring. A head coloring
with fewer classes hands the tail to the loop again, ending in ``pair``.

``optimal_colorings`` enumerates the partitions themselves,
canonicalized by sorting classes on their minimum vertex; the tests use
it as the oracle for the profiles. Both it and the profile search count
completed colorings on a ``graphs.Meter`` capped at
``DEFAULT_ENUMERATION_CAP``, one meter per search: per component and
pass in the profile search, for all of h in ``optimal_colorings``. The
counting pass spends the colorings it counts in bulk, so the cap counts
the same colorings with it as without. A search past the cap raises
BudgetExhausted rather than return a truncated answer, since sigma and
the class-size differences are only correct when the search is complete.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from functools import reduce
from operator import add, and_

from .graphs import FrozenRecord, Graph, Meter, PreconditionError, components, iter_bits

DEFAULT_ENUMERATION_CAP = 10**6


def require_edge(h: Graph) -> None:
    if not any(h.adj):
        raise PreconditionError("graph must contain at least one edge")


def _require_vertex(h: Graph) -> None:
    if h.n == 0:
        raise PreconditionError("chromatic number of the empty graph is undefined")


# _BIT_DIGITS[k] translates a byte to the digit of its bit k
_BIT_DIGITS = tuple([(b"0" * (1 << k) + b"1" * (1 << k)) * (128 >> k) for k in range(8)])


# the rows last asked for and their planes
_last_planes: list[tuple[int, ...]] = [(), ()]


def _degree_planes(adj: tuple[int, ...]) -> tuple[int, ...]:
    """The degrees of the graph with rows ``adj``, bit-sliced over vertex
    masks, top bit first: the degrees go into one byte each, the last
    vertex first, and one ``translate`` per bit writes that bit of every
    degree as the binary numeral of its plane. The colouring search, the
    clique pick and the packing search all read them here. The planes of
    the last rows asked for are kept, found again by identity: the colour
    extension search runs thousands of short searches on one graph, and
    building the planes took about as long as each of them, while a lookup
    by value would hash all n rows on every call. The entry holds the
    rows, so their id cannot be reused while it stands."""
    last = _last_planes
    if last[0] is not adj:
        degrees = bytes(map(int.bit_count, adj[::-1]))
        last[:] = adj, tuple([int(degrees.translate(_BIT_DIGITS[k]), 2)
                              for k in reversed(range(len(adj).bit_length()))])
    return last[1]


def _clique(h: Graph, vertices: int) -> int:
    """The mask of a clique in the vertex mask ``vertices``, grown by
    taking the vertex of highest degree in h, then the lowest label, among
    the vertices adjacent to all taken so far; the pick reads the degree
    planes as the colouring search does. Its order lower-bounds the
    chromatic number of h[vertices] at a few plane steps per vertex taken:
    the start of ``chromatic_number`` and ``class_size_profiles``, and the
    bounds of the colour extension search."""
    planes = _degree_planes(h.adj)
    clique = 0
    while vertices:
        pick = vertices
        if pick & (pick - 1):
            for plane in planes:
                if pick & plane:
                    pick &= plane
        low = pick & -pick
        clique |= low
        vertices &= h.adj[low.bit_length() - 1]
    return clique


def _color_search(
    h: Graph,
    vertices: int,
    classes: list[int],
    total: int,
    visit: Callable[[list[int]], bool],
    near: list[int],
) -> bool:
    """Calls ``visit(classes)`` on each coloring of the vertex mask
    ``vertices`` with at most ``total`` classes, once each and in an
    order no caller reads, and returns True as soon as a call does; False
    after the whole search. ``classes`` are masks over the vertices of h:
    the ones given stay pinned, and the search appends the classes it
    opens. ``near`` holds the mask of the vertices adjacent to each class
    given, in their order, and is empty when none is; every caller has
    them at hand. The search keeps them current, with one more for each
    class it opens, so a visit may read the masks of the classes it is
    shown.

    The node loop ``_walk`` places every vertex, and its leaf, at the
    empty mask, visits each coloring so completed; a mask of no vertices
    is one visit of the classes as given."""
    return _walk(h.adj, vertices, classes, total, near, lambda _: visit(classes), 0, 0)


def _walk(
    adj: tuple[int, ...], vertices: int, classes: list[int], total: int, near: list[int],
    leaf: Callable[[int], bool | None], size: int, unit: int,
) -> bool:
    """The node loop of the colouring search, which ``_color_search`` and
    the counting pass ``_counted_sizes`` run on the graph with rows
    ``adj``. It places the vertices of the mask ``vertices`` one per node,
    with at most ``total`` classes, until ``size`` or fewer are left, and
    hands those to ``leaf``, which completes them with the classes as they
    stand; it returns True as soon as a leaf does. A mask of ``size`` or
    fewer vertices goes to the leaf whole. ``classes`` and ``near`` are as
    in ``_color_search``, but a class adds ``unit`` for each vertex it
    takes, or the vertex's bit when ``unit`` is 0: the visit search keeps
    class masks, the counting pass class sizes. ``size`` is 0 in the
    visit search and on a tailed component's head, so the loop places
    every vertex and the leaf takes each coloring at the empty mask, and
    2 for the counting pass's ``pair`` elsewhere.

    Each node takes the unplaced vertex adjacent to the most classes, the
    higher degree and then the lower label on a tie, and puts it into each
    class that misses it and into the next new class while fewer than
    ``total`` are open, unless that class is the last one and a neighbour
    of the vertex is adjacent to every open class: the neighbour would
    have no class left. Both counts are bit-sliced over vertex masks into
    ``planes``, top bit first: vertex v's key, its class count above its
    degree, is sum(2^k) over the k with bit v set in ``planes[-1 - k]``,
    and the pick narrows the unplaced vertices to the highest key plane by
    plane. ``near`` holds the vertices adjacent to each class; a placement
    adds one to the class count of each unplaced neighbour new to its
    class by a carry up from the plane ``units``, and takes it back by a
    borrow. A leaf needs no counts, so a node that hands it the rest
    carries none, and a node with one vertex left reads no plane."""
    units = max(total, len(classes)).bit_length() - 1
    planes = [0] * (units + 1)
    planes += _degree_planes(adj)

    def place(left: int) -> bool:
        pick = left
        if pick & (pick - 1):
            for plane in planes:
                if pick & plane:
                    pick &= plane
        low = pick & -pick
        add = unit or low
        row = adj[low.bit_length() - 1]
        rest = left ^ low
        if rest.bit_count() > size:
            child, grow = place, row & rest
        else:
            child, grow = leaf, 0
        opened = len(classes)
        for c in range(opened + (opened < total)):
            if c == opened:
                if c == total - 1 and rest and row & reduce(and_, near, rest):
                    return False
                classes.append(0)
                near.append(0)
            mask = near[c]
            if mask & low:
                continue
            was = classes[c]
            classes[c] = was + add
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
            classes[c] = was
        if opened < total:
            near.pop()
            classes.pop()
        return False

    for mask in near:
        carry = mask & vertices
        j = units
        while carry:
            plane = planes[j]
            planes[j] = plane ^ carry
            carry &= plane
            j -= 1
    if vertices.bit_count() > size:
        return place(vertices)
    return bool(leaf(vertices))


def chromatic_number(h: Graph) -> int:
    _require_vertex(h)
    k = _clique(h, h.vertex_mask).bit_count()
    for comp in components(h):
        while not _color_search(h, comp, [], k, lambda _: True, []):
            k += 1
    return k


class ColoringPartition(FrozenRecord):
    """A partition of the vertex set into independent classes.

    ``classes`` are ordered by their minimum vertex, which identifies the
    partition uniquely without reference to color names.
    """

    __slots__ = ("classes", "sizes_sorted")

    def __init__(self, classes: tuple[frozenset[int], ...], sizes_sorted: tuple[int, ...]) -> None:
        self._set(classes, sizes_sorted)

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

    _color_search(h, h.vertex_mask, [], r, emit, [])
    out.sort(key=lambda p: tuple(tuple(sorted(c)) for c in p.classes))
    return out


def class_size_profiles(
    h: Graph, cap: int = DEFAULT_ENUMERATION_CAP
) -> tuple[int, set[tuple[int, ...]], int | None]:
    """chi(h), the sorted class sizes of every optimal coloring of h, and
    the lowest free vertex, or None when no vertex is free.

    chi is found by the profile search itself. Its first round runs with
    r classes, r the order of the clique that ``_clique`` grows in all of
    h, and while some component has no coloring with r classes, r rises
    by one and the round runs again; the first round in which every
    component has one is the round at chi. A round below chi refutes as
    the failing rounds of ``chromatic_number`` do, by a complete search,
    and is otherwise spent. A component has at most as many colorings
    with r classes as with chi, so one past the cap in such a round would
    be past it at chi too: the cap raises where it would with chi known.

    A partition of V(h) into chi classes restricts to a coloring of each
    component with at most chi classes, and any such colorings of the
    components, with their classes matched up, give one. So the profiles
    are the ``_labelled_sums`` of the per-component sets of
    ``_profile_search``. Its window pass completes a component's first
    |C| + 1 colorings one by one, and a component with more colorings
    than vertices is then recounted by the counting pass,
    ``_counted_sizes``, which spends its colorings in bulk: two vertices
    at a time, and a tail of low-degree vertices all at once. Raises
    BudgetExhausted after more than ``cap`` colorings of one component,
    counted by the window pass or by the counting pass.

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
    has fewer than chi classes. A check takes O(chi) operations on vertex
    masks: a vertex is free when the neighbour masks of two classes, which
    the search keeps, both miss it. On the benchmark's params inputs a
    pinned search past |C| colorings visits a median 0.94 |C| nodes. On
    components with at most |C| colorings the checks stay: there the
    pinned searches mostly fail, a failing one visits up to 8.7 |C|
    nodes, and deciding G(24,0.7)#0 by them alone takes ``full_report``
    from about 0.7 to 3.3 ms. The pinned searches
    are not metered, and run only here: the packing layer reads the
    profiles of ``_profile_search`` alone. The lowest free vertex is the
    witness of colour extension number 0 (see ``parameters``).
    """
    _require_vertex(h)
    # below chi, some component's set of profiles is empty
    r = _clique(h, h.vertex_mask).bit_count()
    parts, free, unchecked = _profile_search(h, cap, r)
    while not all(parts):
        r += 1
        parts, free, unchecked = _profile_search(h, cap, r)
    adj = h.adj
    for comp in unchecked:
        seen = set()
        for x in iter_bits(comp):
            if x >= free:
                break
            if adj[x] in seen:
                continue
            seen.add(adj[x])
            if _color_search(h, comp ^ 1 << x, [1 << x, 1 << x], r, lambda _: True, [adj[x], adj[x]]):
                free = x
                break
    return r, reduce(_labelled_sums, parts), free if free < h.n else None


def _profile_search(
    h: Graph, cap: int, r: int
) -> tuple[list[set[tuple[int, ...]]], int, list[int]]:
    """For each component of h, in the order of ``components``, the set of
    sorted class sizes, padded with zeros to r, of its colorings with at
    most r classes, counted on a ``Meter(cap)`` of its own; the lowest
    vertex that the first |C| colorings visited of each component C show
    free, or h.n; and the masks of the components with more colorings than
    vertices, whose vertices below that bound are not yet decided. The
    search stops after the first component with no such coloring: its
    set, empty, is the last, since h then has no coloring with r classes
    whatever the later components hold.

    The window pass visits the colorings of C one by one, checks the
    first |C| of them and stops at the next. A component that reaches it
    is counted again on a new meter by ``_counted_sizes``, whatever its
    ``_tail``. The recount spends one step per coloring, so the cap is
    reached exactly when it was by completing each one. A component with
    at most |C| colorings reads no more of h than the window pass."""
    free = h.n

    def collect(classes: list[int]) -> bool:
        nonlocal free
        meter.spend()
        found.add(tuple(map(int.bit_count, classes)))
        if meter.nodes > checked:
            # past the window: a counting pass takes the component
            return True
        if len(classes) < r:
            free = min(free, low)
        else:
            # x's own class misses N(x), so x is free when it is outside
            # the neighbour masks of two classes
            below = comp & ((1 << free) - 1)
            once = twice = 0
            for mask in near:
                missed = below & ~mask
                twice |= once & missed
                once |= missed
            if twice:
                free = (twice & -twice).bit_length() - 1
        return False

    parts = []
    unchecked = []
    for comp in components(h):
        low = (comp & -comp).bit_length() - 1
        found: set[tuple[int, ...]] = set()
        meter = Meter(cap)
        # the completed colorings up to this count are checked
        checked = comp.bit_count()
        near: list[int] = []
        _color_search(h, comp, [], r, collect, near)
        if meter.nodes > checked:
            unchecked.append(comp)
            found = _counted_sizes(h, comp, r, Meter(cap))
        parts.append({(0,) * (r - len(s)) + tuple(sorted(s)) for s in found})
        if not found:
            break
    return parts, free, unchecked


def _tail(adj: tuple[int, ...], comp: int, r: int) -> int:
    """The mask of an independent set of vertices of ``comp`` with at most
    r - 2 neighbours each, taken greedily by rising degree and then falling
    label."""
    tail = 0
    for v in sorted(iter_bits(comp), key=lambda v: (adj[v].bit_count(), -v)):
        if adj[v].bit_count() <= r - 2 and not adj[v] & tail:
            tail |= 1 << v
    return tail


def _counted_sizes(h: Graph, comp: int, r: int, meter: Meter) -> set[tuple[int, ...]]:
    """The class-size tuples, in class order and padded with zeros to r,
    of the colorings of ``comp`` with at most r classes, with one step on
    ``meter`` for each coloring: the one counting pass of the profile
    search. It runs ``_walk`` with the classes kept as sizes, packs them
    8 bits a class into one int key (a class holds at most 128 vertices)
    and decodes each distinct key once at the end.

    A component without a ``_tail`` is walked down to its last two
    vertices in each branch and handed to the leaf ``pair``, which calls
    no visit: the first vertex goes into each class that misses it or
    into the next new class, and the second into each class that then
    misses it or into the next new class. Each completion's key goes into
    a set, and the leaf spends their number on ``meter`` in one step; a
    component of one or two vertices goes to the leaf whole.

    A component with a tail is walked without it down to the empty mask,
    where the leaf ``counted`` takes each coloring of the head. Each tail
    vertex has at most r - 2 neighbours, all in the head, so once all r
    classes are open at least two of them miss it, and the tail vertices
    choose among those classes independently. Such a head coloring
    therefore stands for the product of the tail vertices' free-class
    counts, spent at once, and gives its sizes plus the Minkowski sum of
    the tail's one-vertex increments. The count and the increments depend
    on the classes only through the tail vertices each one blocks, its
    neighbour mask meeting the tail, and are kept per such key. A head
    coloring with r - 1 classes counts the same way with an empty r-th
    class: the tail vertices put there form the one class left to open,
    or none. With fewer classes the tail could open several, so the head
    coloring hands the tail to ``_walk`` on the same lists, ending in
    ``pair``."""
    adj = h.adj
    tail = _tail(adj, comp, r)
    unit = [1 << 8 * c for c in range(r)]
    sizes: list[int] = []
    near: list[int] = []
    keys: set[int] = set()
    bulk: dict[tuple[int, ...], tuple[int, set[int]]] = {}
    pending = set()

    def pair(left: int) -> None:
        key = int.from_bytes(sizes, "little")
        a = left & -left
        b = left ^ a
        opened = len(near)
        firsts = [u for mask, u in zip(near, unit) if not mask & a]
        if not b:
            ways = [key + u for u in firsts]
            if opened < r:
                ways.append(key + unit[opened])
        else:
            seconds = [u for mask, u in zip(near, unit) if not mask & b]
            # b may join a's class when the two are not adjacent
            apart = not adj[a.bit_length() - 1] & b
            ways = [key + u + w for u in firsts for w in seconds if apart or u != w]
            if opened < r:
                # one of them opens the next class, or a does and b joins
                # it or opens the one after
                base = key + unit[opened]
                ways += [base + u for u in firsts]
                ways += [base + w for w in seconds]
                if apart:
                    ways.append(base + unit[opened])
                if opened + 1 < r:
                    ways.append(base + unit[opened + 1])
        keys.update(ways)
        meter.spend(len(ways))

    def counted(_: int) -> bool:
        opened = len(sizes)
        if opened < r - 1:
            _walk(adj, tail, sizes, r, near, pair, 2, 1)
            return False
        # the tail vertices that each class blocks, an empty r-th class
        # blocking none
        key = tuple([mask & tail for mask in near]) + (0,) * (r - opened)
        if key not in bulk:
            steps, grown = 1, {0}
            for t in iter_bits(tail):
                ways = [u for mask, u in zip(key, unit) if not mask >> t & 1]
                steps *= len(ways)
                grown = {s + w for s in grown for w in ways}
            bulk[key] = steps, grown
        meter.spend(bulk[key][0])
        pending.add((int.from_bytes(sizes, "little"), key))
        return False

    leaf, size = (counted, 0) if tail else (pair, 2)
    _walk(adj, comp ^ tail, sizes, r, near, leaf, size, 1)
    for base, key in pending:
        keys.update(base + s for s in bulk[key][1])
    return {tuple(k.to_bytes(r, "little")) for k in keys}


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
    if b[:1] == b[-1:]:
        # all entries equal
        return [b]
    out = []
    for i, x in enumerate(b):
        if i == 0 or b[i - 1] != x:
            out += [(x,) + rest for rest in _distinct_permutations(b[:i] + b[i + 1:])]
    return out
