"""Exact search for copies of H in G and perfect H-packings.

Copies are subgraph embeddings (not necessarily induced). The embedding
search backtracks over H-vertices, always extending the vertex whose
candidate set (a bitset intersection of the images of its already-placed
neighbors) is smallest; vertices of an untouched component start from all
unused vertices, components largest-first. The packing search repeatedly
anchors on a hardest-to-cover uncovered vertex and branches over the
copies covering it. Whether the uncovered set can be packed depends on
that set alone, so a set is recorded as failed once its whole branch has
been refuted, and is never searched again: not as the rest of a repeated
image, nor when another order of placements reaches it (nogood
recording). Only complete refutations are recorded.

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

The open-twin classes also show when G is complete multipartite: each
class is then joined to all the others. There a copy of H is a proper
colouring of H with labelled colours, and the packing question is one
about class sizes alone, which ``_types_refute`` answers by counting
before the search runs. It reads the class sizes of each component's
colourings from one profile search on H (``coloring._profile_search``),
whose cap of ``TYPE_ENUMERATION_CAP`` bounds each component's search on
its own. It only ever refutes: a packing it finds is left to the search,
so every YES, certificate and node count is the search's.

Search effort is metered in node expansions (candidate assignments tried)
on a ``graphs.Meter``, so identical inputs and budgets always reproduce
the same verdict; an exhausted meter turns into UNKNOWN.

The node count fixes the wall time, so a node does as little as it can:
H's neighbour lists are built once per search, a node carries the unused
allowed host vertices as one mask and the number of H-vertices still
unplaced, and candidate bits are walked inline. The packing search takes
each copy's image straight from its mapping and builds an ``Embedding``
only for the copies it keeps.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import accumulate
from operator import mul
from typing import Iterator, Optional, Sequence

from .coloring import _profile_search
from .graphs import (
    MAX_VERTICES,
    BudgetExhausted,
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


class Verdict(str, Enum):
    YES = "yes"
    NO = "no"
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class Embedding:
    """Injective map from V(H) into V(G); mapping[h_vertex] = g_vertex."""

    mapping: tuple[int, ...]

    @property
    def image_mask(self) -> int:
        m = 0
        for g in self.mapping:
            m |= 1 << g
        return m

    def image(self) -> frozenset[int]:
        return frozenset(self.mapping)

    def to_json(self) -> dict:
        return {str(i): g for i, g in enumerate(self.mapping)}


@dataclass(frozen=True)
class PackingResult:
    verdict: Verdict
    certificate: Optional[tuple[Embedding, ...]]
    nodes: int
    budget: Optional[int]

    def to_json_dict(self) -> dict:
        return {
            "verdict": self.verdict.value,
            "certificate": None
            if self.certificate is None
            else [e.to_json() for e in self.certificate],
            "stats": {"nodes": self.nodes, "budget": self.budget},
        }


@dataclass(frozen=True)
class CoverSearchResult:
    verdict: Verdict
    embedding: Optional[Embedding]
    nodes: int


def _component_major_order(h: Graph) -> list[int]:
    """Vertices grouped by component, largest components first."""
    order = []
    for comp in sorted(components(h), key=lambda c: (-c.bit_count(), c & -c)):
        order.extend(iter_bits(comp))
    return order


def _search(
    g_adj: Sequence[int],
    nbrs: Sequence[Sequence[int]],
    free: int,
    assignment: list[Optional[int]],
    left: int,
    meter: Meter,
    comp_order: list[int],
    below: Sequence[int],
) -> Iterator[tuple[int, ...]]:
    """The embeddings that extend ``assignment``, ``left`` h-vertices of it
    unplaced, into the allowed g-vertices ``free`` that it does not use.
    ``nbrs[v]`` lists the neighbours of h-vertex v."""
    if not left:
        yield tuple(assignment)  # type: ignore[arg-type]
        return

    # most-constrained unplaced vertex adjacent to the placed part; -1 (all
    # bits) stands for "no placed neighbour yet"
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

    rest = best_cands
    while rest:
        low = rest & -rest
        rest ^= low
        c = low.bit_length() - 1
        if below[c] & best_cands:
            continue  # a lower twin of c is a candidate here
        meter.spend()
        assignment[best_v] = c
        yield from _search(g_adj, nbrs, free ^ low, assignment, left - 1, meter, comp_order, below)
    assignment[best_v] = None


def _lower_twins(g: Graph) -> tuple[list[int], dict[int, int]]:
    """below[v]: mask of the vertices u < v with N(u) - v == N(v) - u; and
    the open-twin classes, as a map from a neighbourhood to the mask of
    the vertices that have it."""
    open_twins: dict[int, int] = {}
    closed_twins: dict[int, int] = {}
    below = []
    for v, nbrs in enumerate(g.adj):
        bit = 1 << v
        closed = nbrs | bit
        same_open = open_twins.get(nbrs, 0)
        same_closed = closed_twins.get(closed, 0)
        below.append(same_open | same_closed)
        open_twins[nbrs] = same_open | bit
        closed_twins[closed] = same_closed | bit
    return below, open_twins


def _embedder(g: Graph, h: Graph, meter: Meter, below: Sequence[int]):
    """``embeddings(allowed, anchor)``: the embeddings of h into the
    vertices ``allowed`` of g, only those whose image contains ``anchor``
    unless it is None. One search makes many calls, which share the
    component order and the neighbour lists of h."""
    comp_order = _component_major_order(h)
    nbrs = tuple(tuple(iter_bits(m)) for m in h.adj)
    g_adj = g.adj

    def embeddings(allowed: int, anchor: Optional[int]) -> Iterator[tuple[int, ...]]:
        if h.n == 0:
            yield ()
            return
        if h.n > allowed.bit_count():
            return
        if anchor is None:
            assignment: list[Optional[int]] = [None] * h.n
            yield from _search(g_adj, nbrs, allowed, assignment, h.n, meter, comp_order, below)
            return
        # each embedding whose image contains the anchor maps exactly one
        # h-vertex there, so iterating that choice emits it exactly once
        free = allowed & ~(1 << anchor)
        for v in range(h.n):
            meter.spend()
            assignment = [None] * h.n
            assignment[v] = anchor
            yield from _search(g_adj, nbrs, free, assignment, h.n - 1, meter, comp_order, below)

    return embeddings


def enumerate_copies(
    g: Graph, h: Graph, anchor: Optional[int] = None
) -> Iterator[Embedding]:
    """Stream every labeled embedding of h into g, optionally restricted to
    those whose image contains ``anchor``. The stream is exhaustive; stop
    consuming it to bound work."""
    if anchor is not None and not 0 <= anchor < g.n:
        raise PreconditionError(f"anchor {anchor} out of range")
    for mapping in _embedder(g, h, Meter(), [0] * g.n)(g.vertex_mask, anchor):
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
        if 0 < h.n <= g.n:
            embeddings = _embedder(g, h, meter, _lower_twins(g)[0])
            for mapping in embeddings(g.vertex_mask, w):
                return CoverSearchResult(Verdict.YES, Embedding(mapping), meter.nodes)
    except BudgetExhausted:
        return CoverSearchResult(Verdict.UNKNOWN, None, meter.nodes)
    return CoverSearchResult(Verdict.NO, None, meter.nodes)


def _pick_packing_anchor(g: Graph, uncovered: int) -> int:
    """Fail-first: the uncovered vertex with fewest uncovered neighbors,
    the lowest one on a tie."""
    adj = g.adj
    best = -1
    best_deg = MAX_VERTICES
    rest = uncovered
    while rest:
        low = rest & -rest
        rest ^= low
        v = low.bit_length() - 1
        d = (adj[v] & uncovered).bit_count()
        if d < best_deg:
            if not d:
                return v
            best, best_deg = v, d
    return best


def _types_refute(sizes: Sequence[int], h: Graph, meter: Meter) -> bool:
    """True iff the complete multipartite graph with class sizes ``sizes``
    has no perfect h-packing. Raises BudgetExhausted when ``meter`` runs
    out or a component of h has more than ``TYPE_ENUMERATION_CAP``
    colourings.

    A copy of h there is a copy of each component of h, placed apart. A
    copy of a component is a proper colouring of it with at most
    r = len(sizes) labelled colours; its type is the vector of its class
    sizes. So a packing exists exactly when ``sizes`` is a sum of types,
    n/|h| of them for each component. The types of every component come
    from one ``_profile_search`` of h with r classes; the kernel opens no
    more classes than a component has vertices, and the zeros of the
    padding are dropped. Components with the same types form one kind.

    The search takes types off the class counts, and branches only over
    types that cover a vertex of a fullest class. Classes with equal
    counts are interchangeable, so ``_dealt`` tries each sorted type once
    per way of dealing it out to them. A state is the sorted counts with
    the copies left of each kind, and each refuted state is recorded. One
    copy of kind k puts at most ``most[k][j - 1]`` vertices into any j
    classes, which bounds the sum of the j fullest counts. Each state
    expanded spends a node on ``meter``."""
    copies = sum(sizes) // h.n
    if len(sizes) >= h.n and max(sizes) <= copies:
        # copies on one vertex of each of the h.n fullest classes leave
        # every class at most as full as the copies still to place
        return False
    kinds: dict[tuple[tuple[int, ...], ...], int] = {}
    for profiles in _profile_search(h, TYPE_ENUMERATION_CAP, len(sizes))[0]:
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


def _dealt(counts: tuple[int, ...], t: tuple[int, ...]) -> list[tuple[int, ...]]:
    """The counts left, sorted and positive, by each way of dealing the
    entries of the type ``t`` out to distinct classes, one of them a
    fullest class. Both tuples are descending. Classes of equal count form
    a group that deals to its first free class, and equal entries go to
    groups in ascending order, so each way of dealing up to the order of
    the classes inside a group comes once."""
    starts = [i for i, c in enumerate(counts) if i == 0 or counts[i - 1] != c]
    ends = starts[1:] + [len(counts)]
    free = starts[:]
    left = list(counts)
    out = []

    def deal(j: int, first: int) -> None:
        if j == len(t):
            if free[0]:
                out.append(tuple(sorted(filter(None, left), reverse=True)))
            return
        e = t[j]
        for i in range(first if j and t[j - 1] == e else 0, len(starts)):
            if counts[starts[i]] < e:
                break
            p = free[i]
            if p < ends[i]:
                left[p] -= e
                free[i] = p + 1
                deal(j + 1, i)
                free[i] = p
                left[p] += e

    deal(0, 0)
    return out


def has_perfect_packing(
    g: Graph, h: Graph, budget: int = DEFAULT_BUDGET
) -> PackingResult:
    """Decide whether vertex-disjoint copies of h cover all of g.

    When g is complete multipartite, ``_types_refute`` runs first on its
    own meter; a refutation is the NO. A packing it finds, or a search it
    cannot finish, leaves the verdict and the certificate to the search
    below, with the whole budget."""
    if h.n == 0:
        raise PreconditionError("packing graph must have at least one vertex")
    if g.n % h.n != 0:
        return PackingResult(Verdict.NO, None, 0, budget)
    below, open_twins = _lower_twins(g)
    # open twins are never adjacent; g is complete multipartite when every
    # class of them is joined to all the rest
    full = g.vertex_mask
    if all(nbrs | twins == full for nbrs, twins in open_twins.items()):
        meter = Meter(budget)
        try:
            if _types_refute([m.bit_count() for m in open_twins.values()], h, meter):
                return PackingResult(Verdict.NO, None, meter.nodes, budget)
        except BudgetExhausted:
            pass
    meter = Meter(budget)
    embeddings = _embedder(g, h, meter, below)
    # uncovered masks refuted by a complete search; BudgetExhausted skips
    # the add, so a cut-off search records nothing
    failed: set[int] = set()

    def solve(uncovered: int) -> Optional[list[Embedding]]:
        if not uncovered:
            return []
        if uncovered in failed:
            return None
        v = _pick_packing_anchor(g, uncovered)
        for mapping in embeddings(uncovered, v):
            image = 0
            for x in mapping:
                image |= 1 << x
            rest = solve(uncovered ^ image)
            if rest is not None:
                return [Embedding(mapping)] + rest
        failed.add(uncovered)
        return None

    try:
        cert = solve(g.vertex_mask)
    except BudgetExhausted:
        return PackingResult(Verdict.UNKNOWN, None, meter.nodes, budget)
    if cert is None:
        return PackingResult(Verdict.NO, None, meter.nodes, budget)
    return PackingResult(Verdict.YES, tuple(cert), meter.nodes, budget)


def is_copy(g: Graph, h: Graph, emb: Embedding) -> bool:
    """True iff emb maps V(h) injectively into V(g) and every edge of h
    onto an edge of g. Each edge is read once, from the row of its lower
    end."""
    m = emb.mapping
    if len(m) != h.n or len(set(m)) != h.n or m and not (0 <= min(m) and max(m) < g.n):
        return False
    for u, row in enumerate(h.adj):
        target = g.adj[m[u]]
        row &= -2 << u  # the neighbours above u
        while row:
            low = row & -row
            row ^= low
            if not target >> m[low.bit_length() - 1] & 1:
                return False
    return True


def verify_packing(g: Graph, h: Graph, cert: Sequence[Embedding]) -> bool:
    """True iff every embedding is a valid copy of h, images are pairwise
    disjoint, and their union is all of V(g)."""
    covered = 0
    for emb in cert:
        image = emb.image_mask
        if not is_copy(g, h, emb) or image & covered:
            return False
        covered |= image
    return covered == g.vertex_mask
