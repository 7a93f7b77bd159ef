"""Exact search for copies of H in G and perfect H-packings.

Copies are subgraph embeddings (not necessarily induced). The embedding
search backtracks over H-vertices, always extending the vertex whose
candidate set (a bitset intersection of the images of its already-placed
neighbors) is smallest; vertices of an untouched component start from all
unused vertices, components largest-first. The packing search repeatedly
anchors on a hardest-to-cover uncovered vertex, the one with the fewest
uncovered neighbours and the lowest label on a tie, and branches over the
copies covering it. It holds those counts bit-sliced over vertex masks,
as the colouring kernel holds its counts, and reads them at the root
from ``coloring._degree_planes``, the kernel's one entry for them. It
takes off each copy it descends into by one borrow per covered vertex,
and narrows the uncovered set to the least count plane by plane, so no
node scans the uncovered vertices. A child gets its own planes, so a
backtrack finds its parent's unchanged, and a child whose set is already
refuted (below) costs no update. Whether the uncovered set can be packed
depends on that set alone, so a set is recorded as failed once its whole
branch has been refuted, and is never searched again: not as the rest of
a repeated image, nor when another order of placements reaches it
(nogood recording). Only complete refutations are recorded.

Twin vertices (equal neighbourhoods apart from each other, adjacent or
not) are interchangeable: swapping two unplaced candidates is an
automorphism of G that fixes every placed vertex and the allowed set, so
the subtree under a candidate is the image of the subtree under a lower
twin that is also a candidate, which was searched first. The packing and
cover searches skip such a candidate and try one vertex per twin class.
Whether a copy is accepted does not change under the swap, so the first
accepted copy of the plain search is never skipped: every verdict,
certificate and cover embedding is that of the plain search; only the
node count falls. `enumerate_copies` streams every labelled embedding and
prunes nothing.

Open twins are never adjacent, so G is a spanning subgraph of the
complete multipartite graph K(P) on its open-twin classes P, and equal to
it when each class is joined to all the others. A perfect H-packing of G
is one of K(P). There a copy of H is a proper colouring of H with
labelled colours, and the packing question is one about class sizes
alone, which ``_types_refute`` answers by counting before the search
runs; its NO for K(P) is a NO for G. It runs when G is complete
multipartite or P has at least |H| classes, one of them above n/|H|: with
fewer classes it would pay a profile search to find that K(P) packs, and
at least |H| classes of at most n/|H| vertices each always pack. Before
it colours H it reads two bounds off a greedy clique cover of H
(``_cover_bounds``): a class of more than n/|H| times the number of
cliques, which bounds alpha(H), is more than the copies can take, and a
first clique on more than |P| vertices leaves H no colouring with |P|
classes; either refutes at the root, as the count bound there would. Else
it reads the class sizes of each component's colourings from one profile
search on H (``coloring._profile_search``), whose cap of
``TYPE_ENUMERATION_CAP`` bounds each component's search on its own. A
component of H with no colouring with |P| classes refutes at the root in
whatever place among the components: the profile search ends there, and
only one stopped at its cap asks ``chromatic_number`` whether H has such
a colouring at all. It only ever refutes: a
packing it finds is left to the search, so every YES, certificate and
YES node count is the search's.

Search effort is metered in node expansions (candidate assignments tried)
on a ``graphs.Meter``, so identical inputs and budgets always reproduce
the same verdict; an exhausted meter turns into UNKNOWN.

The node count fixes the wall time, so a node does as little as it can.
The embedding search is a closure built once per search: it captures the
constants of the search (g's rows, H's neighbour lists, the component
order, the twin classes and the meter), so a call passes only what
changes. A node carries the unused allowed host vertices as one mask and
the number of H-vertices still unplaced, and walks its candidates inline
one twin class at a time: trying a candidate clears its whole class from
the walk, so a skipped twin costs no step. Each copy is handed back with
that mask at its leaf, the allowed vertices the copy leaves uncovered,
so the packing search recurses on it as it is and builds an
``Embedding`` only for the copies it keeps.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from enum import Enum
from functools import lru_cache
from itertools import accumulate, chain
from operator import mul, or_

from .coloring import _clique, _degree_planes, _profile_search, chromatic_number
from .graphs import (
    MAX_VERTICES,
    BudgetExhausted,
    FrozenRecord,
    Graph,
    Meter,
    PreconditionError,
    components,
    iter_bits,
)

DEFAULT_BUDGET = 10**8
# the most colourings of one component of H that the type-count engine
# enumerates before it leaves a complete multipartite host to the search
TYPE_ENUMERATION_CAP = 1_000
# the JSON keys of the vertices of h, which has at most MAX_VERTICES
_VERTEX_KEYS = tuple(map(str, range(MAX_VERTICES)))


class Verdict(str, Enum):
    YES = "yes"
    NO = "no"
    UNKNOWN = "unknown"


class Embedding(FrozenRecord):
    """Injective map from V(H) into V(G); mapping[h_vertex] = g_vertex."""

    __slots__ = ("mapping",)

    def __init__(self, mapping: tuple[int, ...]) -> None:
        self._set(mapping)

    def to_json(self) -> dict:
        return dict(zip(_VERTEX_KEYS, self.mapping))


class PackingResult(FrozenRecord):
    __slots__ = ("verdict", "certificate", "nodes", "budget")

    def __init__(
        self, verdict: Verdict, certificate: tuple[Embedding, ...] | None, nodes: int,
        budget: int | None,
    ) -> None:
        self._set(verdict, certificate, nodes, budget)

    def to_json_dict(self) -> dict:
        return {
            "verdict": self.verdict.value,
            "certificate": None
            if self.certificate is None
            else [e.to_json() for e in self.certificate],
            "stats": {"nodes": self.nodes, "budget": self.budget},
        }


class CoverSearchResult(FrozenRecord):
    __slots__ = ("verdict", "embedding", "nodes")

    def __init__(self, verdict: Verdict, embedding: Embedding | None, nodes: int) -> None:
        self._set(verdict, embedding, nodes)


# 1 << v for each vertex v
_SINGLETONS = tuple([1 << v for v in range(MAX_VERTICES)])


def _twin_classes(g: Graph) -> tuple[Sequence[int], dict[int, int]]:
    """twins[v]: the mask of v's twin class, v included: the vertices u
    with N(u) - v == N(v) - u. A vertex has open twins (equal
    neighbourhoods, never adjacent) or closed twins (adjacent, equal
    closed neighbourhoods) but not both: an open twin of v would be
    adjacent to each closed twin of v, and so to v. Each kind is an
    equivalence. Also the open-twin classes, as a map from a
    neighbourhood to the mask of the vertices that have it. When no two
    closed rows and no two rows are equal, two sets tell, and every class
    is a singleton; the closed rows go first, as small dense hosts repeat
    them most."""
    adj = g.adj
    singletons = _SINGLETONS[:g.n]
    closed = tuple(map(or_, adj, singletons))
    if len(set(closed)) == g.n and len(set(adj)) == g.n:
        return singletons, dict(zip(adj, singletons))
    open_twins: dict[int, int] = {}
    closed_twins: dict[int, int] = {}
    for nbrs, row, bit in zip(adj, closed, singletons):
        open_twins[nbrs] = open_twins.get(nbrs, 0) | bit
        closed_twins[row] = closed_twins.get(row, 0) | bit
    twins = list(map(or_, map(open_twins.__getitem__, adj), map(closed_twins.__getitem__, closed)))
    return twins, open_twins


@lru_cache(maxsize=1)
def _pattern_plan(h: Graph) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """h's part of the embedding search: the order that opens h's
    components largest first, and h's neighbour lists. It keeps the last
    h's, as ``coloring._degree_planes`` keeps the last graph's planes: the
    probes and the cover searches build a search per host, all for one
    h."""
    comp_order = []
    for comp in sorted(components(h), key=lambda c: (-c.bit_count(), c & -c)):
        comp_order.extend(iter_bits(comp))
    return tuple(comp_order), tuple(tuple(iter_bits(m)) for m in h.adj)


@lru_cache(maxsize=1)
def _cover_bounds(h: Graph) -> tuple[int, int]:
    """The number of cliques in a greedy clique cover of h, each the
    ``coloring._clique`` of the vertices left, and the order of the first
    one: an independent set meets each clique at most once, so the count
    bounds alpha(h) from above, and the order bounds omega(h) from below.
    It keeps the last h's, as ``_pattern_plan`` does."""
    left = h.vertex_mask
    cliques = [_clique(h, left)]
    while left := left ^ cliques[-1]:
        cliques.append(_clique(h, left))
    return len(cliques), cliques[0].bit_count()


def _embedder(g: Graph, h: Graph, meter: Meter, twins: Sequence[int]):
    """``embeddings(allowed, anchor)``: the embeddings of h into the
    vertices ``allowed`` of g, only those whose image contains ``anchor``
    unless it is None, each with the mask of the allowed vertices it
    leaves unused. The search is built once and serves every call: it
    captures g's rows, h's ``_pattern_plan``, the twin classes ``twins``
    and the meter."""
    comp_order, nbrs = _pattern_plan(h)
    g_adj = g.adj

    def search(free: int, assignment: list, left: int) -> Iterator[tuple[tuple[int, ...], int]]:
        """The embeddings that extend ``assignment``, ``left`` h-vertices
        of it unplaced, into the allowed g-vertices ``free`` that it does
        not use."""
        if not left:
            yield tuple(assignment), free
            return

        # most-constrained unplaced vertex adjacent to the placed part; -1
        # (all bits) stands for "no placed neighbour yet"
        best_v = None
        best_cands = 0
        best_count = MAX_VERTICES + 1
        for v, vn in enumerate(nbrs):
            if assignment[v] is not None:
                continue
            cands = -1
            for u in vn:
                gu = assignment[u]
                if gu is not None:
                    cands &= g_adj[gu]
            if cands < 0:
                continue
            cands &= free
            if not cands:
                return
            count = cands.bit_count()
            if count < best_count:
                best_v, best_cands, best_count = v, cands, count
        if best_v is None:
            # no partially-placed component remains; open the next one
            for v in comp_order:
                if assignment[v] is None:
                    best_v = v
                    break
            best_cands = free

        # the lowest candidate of each twin class stands for the class
        rest = best_cands
        while rest:
            low = rest & -rest
            c = low.bit_length() - 1
            rest &= ~twins[c]
            meter.spend()
            assignment[best_v] = c
            yield from search(free ^ low, assignment, left - 1)
        assignment[best_v] = None

    def embeddings(allowed: int, anchor: int | None) -> Iterator[tuple[tuple[int, ...], int]]:
        if h.n == 0:
            # the empty map's image holds no anchor
            if anchor is None:
                yield (), allowed
            return
        if h.n > allowed.bit_count():
            return
        if anchor is None:
            yield from search(allowed, [None] * h.n, h.n)
            return
        # each embedding whose image contains the anchor maps exactly one
        # h-vertex there, so iterating that choice emits it exactly once
        free = allowed & ~(1 << anchor)
        for v in range(h.n):
            meter.spend()
            assignment: list[int | None] = [None] * h.n
            assignment[v] = anchor
            yield from search(free, assignment, h.n - 1)

    return embeddings


def enumerate_copies(
    g: Graph, h: Graph, anchor: int | None = None
) -> Iterator[Embedding]:
    """Stream every labeled embedding of h into g, optionally restricted to
    those whose image contains ``anchor``. The stream is exhaustive; stop
    consuming it to bound work."""
    if anchor is not None and not 0 <= anchor < g.n:
        raise PreconditionError(f"anchor {anchor} out of range")
    for mapping, _ in _embedder(g, h, Meter(), _SINGLETONS[:g.n])(g.vertex_mask, anchor):
        yield Embedding(mapping)


def copy_covering_vertex(
    g: Graph, h: Graph, w: int, budget: int = DEFAULT_BUDGET
) -> CoverSearchResult:
    """First copy of h whose image contains w, or a definite NO after
    complete search, or UNKNOWN on budget exhaustion."""
    if not 0 <= w < g.n:
        raise PreconditionError(f"vertex {w} out of range for order {g.n}")
    meter = Meter(budget)
    try:
        for mapping, _ in _embedder(g, h, meter, _twin_classes(g)[0])(g.vertex_mask, w):
            return CoverSearchResult(Verdict.YES, Embedding(mapping), meter.nodes)
    except BudgetExhausted:
        return CoverSearchResult(Verdict.UNKNOWN, None, meter.nodes)
    return CoverSearchResult(Verdict.NO, None, meter.nodes)


def _types_refute(sizes: Sequence[int], h: Graph, meter: Meter) -> bool:
    """True iff the complete multipartite graph with class sizes ``sizes``
    has no perfect h-packing. Raises BudgetExhausted when ``meter`` runs
    out, or when a component of h has more than ``TYPE_ENUMERATION_CAP``
    colourings, h has one with len(sizes) classes, and neither bound of
    ``_cover_bounds`` refutes.

    A copy of h there is a copy of each component of h, placed apart. A
    copy of a component is a proper colouring of it with at most
    r = len(sizes) labelled colours; its type is the vector of its class
    sizes. So a packing exists exactly when ``sizes`` is a sum of types,
    n/|h| of them for each component. A type's largest entry is at most
    alpha of its component, so no copy puts more than alpha(h) vertices
    into a class. A class of more than n/|h| times the bound on alpha(h)
    of ``_cover_bounds``, or a clique of h on more than r vertices, is
    refuted in one node before h is coloured, whatever the cap; the bound
    below would refute it at the root. Otherwise the types come from one
    ``_profile_search`` of h with r classes, with the zeros of the padding
    dropped; components with the same types form one kind. A component
    with no coloring has no types, and the bound below then refutes at the
    root. The search ends at such a component, and one stopped at its cap
    takes h to have one when ``chromatic_number(h)`` exceeds r, so it
    refutes whichever order the components come in.

    The search takes types off the class counts, and branches only over
    types that cover a vertex of a fullest class. Classes with equal
    counts are interchangeable, so ``_dealt`` tries each sorted type once
    per way of dealing it out to them. A state is the sorted counts with
    the copies left of each kind, and each refuted state is recorded. One
    copy of kind k puts at most ``most[k][j - 1]`` vertices into any j
    classes, which bounds the sum of the j fullest counts. Each state
    expanded spends a node on ``meter``."""
    copies = sum(sizes) // h.n
    r = len(sizes)
    alpha, omega = _cover_bounds(h)
    if copies and (max(sizes) > copies * alpha or omega > r):
        # the bound at the root refutes: no copy puts more than alpha(h)
        # vertices into one class, and a component with more than r
        # vertices in a clique has no colouring with r classes
        meter.spend()
        return True
    kinds: dict[tuple[tuple[int, ...], ...], int] = {}
    try:
        parts = _profile_search(h, TYPE_ENUMERATION_CAP, r)[0]
    except BudgetExhausted:
        if chromatic_number(h) <= r:
            raise
        parts = [set()]
    for profiles in parts:
        positive = {tuple(sorted(filter(None, p), reverse=True)) for p in profiles}
        types = tuple(sorted(positive, reverse=True))
        kinds[types] = kinds.get(types, 0) + copies
    most = [[max((sum(t[:j]) for t in types), default=0) for j in range(1, h.n)] for types in kinds]
    failed: set[tuple[tuple[int, ...], tuple[int, ...]]] = set()

    def solve(counts: tuple[int, ...], todo: tuple[int, ...]) -> bool:
        if not counts:
            return True
        if (counts, todo) in failed:
            return False
        meter.spend()
        bounds = (sum(map(mul, todo, col)) for col in zip(*most))
        if all(top <= bound for top, bound in zip(accumulate(counts), bounds)):
            for k, types in enumerate(kinds):
                if todo[k]:
                    rest = todo[:k] + (todo[k] - 1,) + todo[k + 1:]
                    for t in types:
                        for child in _dealt(counts, t):
                            if solve(child, rest):
                                return True
        failed.add((counts, todo))
        return False

    return not solve(tuple(sorted(sizes, reverse=True)), tuple(kinds.values()))


def _dealt(counts: tuple[int, ...], t: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    """The counts left, sorted and positive, by each way of dealing the
    entries of the type ``t`` out to distinct classes, one of them a
    fullest class. Both tuples are descending. Classes of equal count form
    a group that deals to its first free class, and equal entries go to
    groups in ascending order, so each way of dealing up to the order of
    the classes inside a group comes once. Groups stand in for classes,
    and the first group too small for an entry ends its loop, so many
    classes of one count cost no more than one: K_{1,1,1,3} into
    K_{9,1^39} gives each type at most one child, where the distinct
    orderings of a type padded to the 40 classes number up to 3.8
    million. The children are made one at a time as the caller takes
    them, so a state whose first child leads to a packing builds no
    other."""
    starts = [i for i, c in enumerate(counts) if i == 0 or counts[i - 1] != c]
    ends = starts[1:] + [len(counts)]
    free = starts[:]
    left = list(counts)

    def deal(j: int, first: int) -> Iterator[tuple[int, ...]]:
        if j == len(t):
            if free[0]:
                yield tuple(sorted(filter(None, left), reverse=True))
            return
        e = t[j]
        for i in range(first if j and t[j - 1] == e else 0, len(starts)):
            if counts[starts[i]] < e:
                break
            p = free[i]
            if p < ends[i]:
                left[p] -= e
                free[i] = p + 1
                yield from deal(j + 1, i)
                free[i] = p
                left[p] += e

    return deal(0, 0)


def has_perfect_packing(
    g: Graph, h: Graph, budget: int = DEFAULT_BUDGET
) -> PackingResult:
    """Decide whether vertex-disjoint copies of h cover all of g.

    When g is complete multipartite, or has at least |h| open-twin classes
    and one of them holds more than n/|h| vertices, ``_types_refute`` runs
    first on its own meter, on the complete multipartite graph on those
    classes, of which g is a spanning subgraph; a refutation is the NO.
    At least |h| classes of at most n/|h| vertices each always pack, so
    the engine is not called on them. A packing it finds, or a search it
    cannot finish, leaves the verdict and the certificate to the search
    below, with the whole budget."""
    if h.n == 0:
        raise PreconditionError("packing graph must have at least one vertex")
    if g.n % h.n != 0:
        return PackingResult(Verdict.NO, None, 0, budget)
    twins, open_twins = _twin_classes(g)
    # open twins are never adjacent, so g is a spanning subgraph of the
    # complete multipartite graph on their classes, and equal to it when
    # every class is joined to all the rest
    full = g.vertex_mask
    if len(open_twins) >= h.n:
        # copies on one vertex of each of the h.n fullest classes leave
        # every class at most as full as the copies still to place, so
        # with no class above n/|h| the multipartite graph packs
        engine = max(map(int.bit_count, open_twins.values())) > g.n // h.n
    else:
        engine = all(nbrs | same == full for nbrs, same in open_twins.items())
    if engine:
        meter = Meter(budget)
        try:
            if _types_refute([m.bit_count() for m in open_twins.values()], h, meter):
                return PackingResult(Verdict.NO, None, meter.nodes, budget)
        except BudgetExhausted:
            pass
    meter = Meter(budget)
    embeddings = _embedder(g, h, meter, twins)
    adj = g.adj
    bottom = g.n.bit_length() - 1
    # uncovered masks refuted by a complete search; BudgetExhausted skips
    # the add, so a cut-off search records nothing
    failed: set[int] = set()

    def solve(uncovered: int, planes: Sequence[int]) -> list[Embedding] | None:
        # the anchor: the uncovered vertex with the fewest uncovered
        # neighbours, the lowest on a tie; the counts are bit-sliced over
        # vertex masks in ``planes``, top bit first
        pick = uncovered
        for plane in planes:
            fewer = pick & ~plane
            if fewer:
                pick = fewer
        for mapping, left in embeddings(uncovered, (pick & -pick).bit_length() - 1):
            if not left:
                return [Embedding(mapping)]
            if left in failed:
                continue
            # each vertex the copy covers takes one off the count of each
            # neighbour it leaves uncovered, by a borrow up from the lowest
            # plane; a covered vertex's count is never read again
            child = list(planes)
            for x in mapping:
                borrow = adj[x] & left
                j = bottom
                while borrow:
                    plane = child[j]
                    child[j] = plane ^ borrow
                    borrow &= ~plane
                    j -= 1
            rest = solve(left, child)
            if rest is not None:
                return [Embedding(mapping)] + rest
        failed.add(uncovered)
        return None

    try:
        # no copy at all covers the empty host
        cert = solve(g.vertex_mask, _degree_planes(adj)) if g.n else []
    except BudgetExhausted:
        return PackingResult(Verdict.UNKNOWN, None, meter.nodes, budget)
    if cert is None:
        return PackingResult(Verdict.NO, None, meter.nodes, budget)
    return PackingResult(Verdict.YES, tuple(cert), meter.nodes, budget)


def _edges_kept(g: Graph, h: Graph, maps: Sequence[Sequence[int]]) -> bool:
    """True iff every map sends every edge of h onto an edge of g. Each
    edge of h is read once, from the row of its lower end, and checked in
    every map."""
    adj = g.adj
    for u, row in enumerate(h.adj):
        row &= -2 << u  # the neighbours above u
        while row:
            low = row & -row
            row ^= low
            v = low.bit_length() - 1
            if not all(adj[m[u]] >> m[v] & 1 for m in maps):
                return False
    return True


def is_copy(g: Graph, h: Graph, emb: Embedding) -> bool:
    """True iff emb maps V(h) injectively into V(g) and every edge of h
    onto an edge of g."""
    m = emb.mapping
    if len(m) != h.n or len(set(m)) != h.n or m and not (0 <= min(m) and max(m) < g.n):
        return False
    return _edges_kept(g, h, [m])


def verify_packing(g: Graph, h: Graph, cert: Sequence[Embedding]) -> bool:
    """True iff every embedding is a valid copy of h, images are pairwise
    disjoint, and their union is all of V(g).

    The images are checked together: each mapping has |h| entries and
    there are |g| in all, so they are distinct (each mapping injective,
    the images disjoint) and cover V(g) exactly when they make |g|
    distinct values from 0 to |g| - 1. Then ``_edges_kept`` checks each
    edge of h in every copy."""
    maps = [emb.mapping for emb in cert]
    if any(len(m) != h.n for m in maps) or len(maps) * h.n != g.n:
        return False
    image = set(chain.from_iterable(maps))
    if len(image) != g.n or image and (min(image) != 0 or max(image) != g.n - 1):
        return False
    return _edges_kept(g, h, maps)
