"""Exact chromatic computations.

Every coloring search of the package runs on one backtracking kernel,
``_color_search``, which the colour extension search in ``parameters``
shares. The chromatic number is found by iterative deepening on
k-colorability, starting from a greedy clique lower bound. Optimal
colorings (proper partitions into exactly chi classes) are enumerated
exhaustively with a first-use color rule, so each partition appears
exactly once regardless of color names; partitions are then canonicalized
by sorting classes on their minimum vertex.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator

from .graphs import Graph, PreconditionError, iter_bits

DEFAULT_ENUMERATION_CAP = 10**6


class EnumerationCapError(RuntimeError):
    """Raised when optimal-coloring enumeration exceeds its cap.

    Hitting the cap is a hard error rather than a truncated answer: the
    downstream statistics (sigma, class-size differences) are only correct
    when the enumeration is complete.
    """


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


def chromatic_number(h: Graph) -> int:
    if h.n == 0:
        raise PreconditionError("chromatic number of the empty graph is undefined")
    if h.edge_count() == 0:
        return 1
    lower = max(2, len(greedy_clique(h)))
    order = _search_order(h)
    for k in range(lower, h.n + 1):
        if _color_search(h, order, [], k, lambda _: True):
            return k
    return h.n


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

    def to_json(self) -> list[list[int]]:
        return [sorted(c) for c in self.classes]


def optimal_colorings(h: Graph, cap: int = DEFAULT_ENUMERATION_CAP) -> list[ColoringPartition]:
    """All partitions of V(h) into exactly chi(h) independent classes.

    Color permutations are identified: the result holds each partition once.
    Raises EnumerationCapError if more than ``cap`` partitions exist.
    """
    if h.n == 0:
        raise PreconditionError("cannot color the empty graph")
    r = chromatic_number(h)
    out: list[ColoringPartition] = []

    # no proper coloring has fewer than chi classes, so each one reached
    # uses all r of them
    def emit(classes: list[int]) -> bool:
        if len(out) >= cap:
            raise EnumerationCapError(
                f"more than {cap} optimal colorings; raise the cap to enumerate"
            )
        out.append(
            ColoringPartition.from_classes(frozenset(iter_bits(m)) for m in classes)
        )
        return False

    _color_search(h, _search_order(h), [], r, emit)
    out.sort(key=lambda p: tuple(tuple(sorted(c)) for c in p.classes))
    return out

