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

Search effort is metered in node expansions (candidate assignments tried)
on a ``graphs.Meter``, so identical inputs and budgets always reproduce
the same verdict; an exhausted meter turns into UNKNOWN.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterator, Optional, Sequence

from .graphs import BudgetExhausted, Graph, Meter, PreconditionError, components, iter_bits

DEFAULT_BUDGET = 10**8


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
    g: Graph,
    h: Graph,
    allowed: int,
    assignment: list[Optional[int]],
    used: int,
    meter: Meter,
    comp_order: list[int],
    below: Sequence[int],
) -> Iterator[tuple[int, ...]]:
    if None not in assignment:
        yield tuple(assignment)  # type: ignore[arg-type]
        return

    # most-constrained unplaced vertex adjacent to the placed part
    best_v = None
    best_cands = 0
    best_count = -1
    for v in range(h.n):
        if assignment[v] is not None:
            continue
        cands = None
        for u in iter_bits(h.adj[v]):
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
        # no partially-placed component remains; open the next one
        for v in comp_order:
            if assignment[v] is None:
                best_v = v
                break
        best_cands = allowed & ~used

    for c in iter_bits(best_cands):
        if below[c] & best_cands:
            continue  # a lower twin of c is a candidate here
        meter.spend()
        assignment[best_v] = c
        yield from _search(g, h, allowed, assignment, used | (1 << c), meter, comp_order, below)
        assignment[best_v] = None


def _lower_twins(g: Graph) -> list[int]:
    """below[v]: mask of the vertices u < v with N(u) - v == N(v) - u."""
    open_twins: dict[int, int] = {}
    closed_twins: dict[int, int] = {}
    below = []
    for v, nbrs in enumerate(g.adj):
        closed = nbrs | 1 << v
        below.append(open_twins.get(nbrs, 0) | closed_twins.get(closed, 0))
        open_twins[nbrs] = open_twins.get(nbrs, 0) | 1 << v
        closed_twins[closed] = closed_twins.get(closed, 0) | 1 << v
    return below


def _embeddings(
    g: Graph,
    h: Graph,
    allowed: int,
    anchor: Optional[int],
    meter: Meter,
    below: Sequence[int],
) -> Iterator[tuple[int, ...]]:
    if h.n == 0:
        yield ()
        return
    if h.n > allowed.bit_count():
        return
    comp_order = _component_major_order(h)
    if anchor is None:
        assignment: list[Optional[int]] = [None] * h.n
        yield from _search(g, h, allowed, assignment, 0, meter, comp_order, below)
        return
    # each embedding whose image contains the anchor maps exactly one
    # h-vertex there, so iterating that choice emits it exactly once
    for v in range(h.n):
        meter.spend()
        assignment = [None] * h.n
        assignment[v] = anchor
        yield from _search(g, h, allowed, assignment, 1 << anchor, meter, comp_order, below)


def enumerate_copies(
    g: Graph, h: Graph, anchor: Optional[int] = None
) -> Iterator[Embedding]:
    """Stream every labeled embedding of h into g, optionally restricted to
    those whose image contains ``anchor``. The stream is exhaustive; stop
    consuming it to bound work."""
    if anchor is not None and not 0 <= anchor < g.n:
        raise PreconditionError(f"anchor {anchor} out of range")
    for mapping in _embeddings(g, h, g.vertex_mask, anchor, Meter(), [0] * g.n):
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
            for mapping in _embeddings(g, h, g.vertex_mask, w, meter, _lower_twins(g)):
                return CoverSearchResult(Verdict.YES, Embedding(mapping), meter.nodes)
    except BudgetExhausted:
        return CoverSearchResult(Verdict.UNKNOWN, None, meter.nodes)
    return CoverSearchResult(Verdict.NO, None, meter.nodes)


def _pick_packing_anchor(g: Graph, uncovered: int) -> int:
    """Fail-first: the uncovered vertex with fewest uncovered neighbors."""
    best = -1
    best_deg = -1
    for v in iter_bits(uncovered):
        d = (g.adj[v] & uncovered).bit_count()
        if best < 0 or d < best_deg:
            best, best_deg = v, d
    return best


def has_perfect_packing(
    g: Graph, h: Graph, budget: int = DEFAULT_BUDGET
) -> PackingResult:
    """Decide whether vertex-disjoint copies of h cover all of g."""
    if h.n == 0:
        raise PreconditionError("packing graph must have at least one vertex")
    if g.n % h.n != 0:
        return PackingResult(Verdict.NO, None, 0, budget)
    meter = Meter(budget)
    # uncovered masks refuted by a complete search; BudgetExhausted skips
    # the add, so a cut-off search records nothing
    failed: set[int] = set()
    below = _lower_twins(g)

    def solve(uncovered: int) -> Optional[list[Embedding]]:
        if not uncovered:
            return []
        if uncovered in failed:
            return None
        v = _pick_packing_anchor(g, uncovered)
        for mapping in _embeddings(g, h, uncovered, v, meter, below):
            emb = Embedding(mapping)
            rest = solve(uncovered & ~emb.image_mask)
            if rest is not None:
                return [emb] + rest
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
    onto an edge of g."""
    m = emb.mapping
    return (
        len(m) == h.n
        and all(0 <= gv < g.n for gv in m)
        and len(set(m)) == h.n
        and all(g.has_edge(m[u], m[v]) for u, v in h.edges())
    )


def verify_packing(g: Graph, h: Graph, cert: Sequence[Embedding]) -> bool:
    """True iff every embedding is a valid copy of h, images are pairwise
    disjoint, and their union is all of V(g)."""
    covered = 0
    for emb in cert:
        if not is_copy(g, h, emb) or emb.image_mask & covered:
            return False
        covered |= emb.image_mask
    return covered == g.vertex_mask
