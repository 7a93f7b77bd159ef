"""Generators for the tight lower-bound constructions and their verifier.

Each bounded construction packages a graph, a distinguished vertex w that
no copy of the target graph H can cover, and the exact degree-sum bound
the construction is claimed to satisfy, as an ``ExtremalInstance`` that
writes and reads itself as one JSON object. Bounds are kept as exact rationals
and compared against the integer minimum degree sum, so no floor/ceiling
ambiguity can creep in. The verifier re-checks all three claims: the
degree-sum bound, the impossibility of covering w (by complete anchored
search), and the divisibility that turns "w uncovered" into "no perfect
packing".
"""

from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction
from itertools import accumulate

from .coloring import chromatic_number
from .graphs import (
    FrozenRecord,
    Graph,
    GraphFormatError,
    PreconditionError,
    _multipartite_adj,
    blow_up,
    complete_multipartite,
    iter_bits,
    min_ore_degree_sum,
    parse_graph6,
    require_order,
    to_graph6,
)
from .packing import DEFAULT_BUDGET, Verdict, copy_covering_vertex
from .parameters import colour_extension_number, fraction_json


class ReadOnlyParams(dict):
    """The params of an ``ExtremalInstance``: a dict that refuses every edit
    and hashes its items, so a built instance keeps its hash and equality.
    It reads, compares and prints as the plain dict it was made from."""

    __slots__ = ()

    def __hash__(self) -> int:
        return hash(frozenset(self.items()))

    def _read_only(self, *args, **kwargs):
        raise TypeError("the params of an extremal instance are read-only")

    __setitem__ = __delitem__ = __ior__ = _read_only
    update = pop = popitem = clear = setdefault = _read_only

    def __reduce__(self):
        # dict's own pickling would refill the copy through __setitem__
        return type(self), (dict(self),)


class ExtremalInstance(FrozenRecord):
    __slots__ = ("graph", "w", "claimed_ore_bound", "family", "params")

    def __init__(
        self,
        graph: Graph,
        w: int,
        claimed_ore_bound: Fraction,
        family: str,
        params: Mapping[str, int],
    ) -> None:
        if not 0 <= w < graph.n:
            raise ValueError("distinguished vertex out of range")
        if family in BOUNDED_FAMILIES:
            missing = [p for p in BOUNDED_FAMILIES[family][1] if p not in params]
            if missing:
                raise ValueError(f"{family} params lack {', '.join(missing)}")
        # copied, so editing the caller's dict afterwards cannot change the instance
        self._set(graph, w, claimed_ore_bound, family, ReadOnlyParams(params))

    def to_json_dict(self) -> dict:
        return {
            "graph6": to_graph6(self.graph),
            "w": self.w,
            "family": self.family,
            "params": dict(self.params),
            "claimed_bound": fraction_json(self.claimed_ore_bound),
        }

    @classmethod
    def from_json_dict(cls, payload) -> "ExtremalInstance":
        """The inverse of ``to_json_dict``. It takes exactly what that
        writes: strings for graph6 and family, an object for params, and
        JSON integers for w, the bound and every parameter. Anything else
        raises GraphFormatError."""
        try:
            bound = payload["claimed_bound"]
            num, den = _exactly(int, bound["num"]), _exactly(int, bound["den"])
            return cls(
                graph=parse_graph6(_exactly(str, payload["graph6"])),
                w=_exactly(int, payload["w"]),
                claimed_ore_bound=Fraction(num, den),
                family=_exactly(str, payload["family"]),
                params={k: _exactly(int, v) for k, v in _exactly(dict, payload["params"]).items()},
            )
        except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
            raise GraphFormatError(f"bad instance JSON: {exc}") from None


def _exactly(kind: type, value):
    """``value`` when its type is exactly ``kind``: a bool or a float is no int."""
    if type(value) is not kind:
        raise TypeError(f"expected {kind.__name__}, got {value!r}")
    return value


def _cut(adj: list[int], a: int, b: int) -> None:
    """Delete every edge between the vertex masks ``a`` and ``b``."""
    for v in iter_bits(a):
        adj[v] &= ~b
    for v in iter_bits(b):
        adj[v] &= ~a


def construct_prop1(r: int, n: int) -> ExtremalInstance:
    """Near-multipartite graph whose distinguished vertex w has an
    (r-2)-partite neighborhood.

    Start from the complete r-partite graph of order n with classes as
    equal as possible (ascending); move all but one vertex, w, of the
    smallest class into the second class, turn that enlarged class into a
    clique, and delete the edges between w and it. Every non-adjacent pair
    has degree sum at least 2(1 - 1/r)n - 2, yet w cannot be covered by
    any H with chi(H) = r whose vertex neighborhoods are all
    (r-1)-chromatic.
    """
    if r < 2:
        raise PreconditionError("need r >= 2")
    if n < r:
        raise PreconditionError(f"need n >= r, got n={n}, r={r}")
    require_order(n)  # before the r class sizes are listed
    q, rem = divmod(n, r)
    sizes = [q] * (r - rem) + [q + 1] * rem
    # w = 0 shares the first class with the clique 1..sizes[0]+sizes[1]-1
    adj = _multipartite_adj([sizes[0] + sizes[1]] + sizes[2:])
    clique = (1 << (sizes[0] + sizes[1])) - 2
    for v in iter_bits(clique):
        adj[v] |= clique ^ (1 << v)
    bound = Fraction(2 * (r - 1) * n, r) - 2
    return ExtremalInstance(Graph(n, tuple(adj)), 0, bound, "prop1", {"r": r, "n": n})


def construct_prop2(r: int, m: int, h_order: int, t: int) -> ExtremalInstance:
    """Complete (r+m-1)-partite graph plus a vertex w seeing only the last
    r-2 classes.

    With s := 2*h_order/((m+2)r - 2), the classes have sizes st-1, then m
    classes of st, then r-2 classes of (m+2)st/2; w (index 0) is adjacent
    exactly to the last r-2 classes. The order is h_order * t and every
    non-adjacent pair has degree sum at least
    2(1 - (m+2)/((m+2)r-2)) * h_order * t - 1, attained by w against the
    st-classes. Any H with chi(H) = r and finite extension number m cannot
    cover w: its (r-2)-colorable-neighborhood vertices are exactly the ones
    that would need chi + m colors.
    """
    return _prop2(r, m, h_order, t=t)


def construct_prop2_padded(r: int, m: int, h_order: int, n: int) -> ExtremalInstance:
    """The previous construction at the largest admissible order n' <= n,
    padded up to order n with clones inside the first class.

    The padding vertices copy the neighborhood of the smallest class, so w
    still cannot be covered; the degree-sum bound relaxes to
    2(1 - (m+2)/((m+2)r-2)) * n - 2 * h_order**4.
    """
    return _prop2(r, m, h_order, n=n)


def _prop2(
    r: int, m: int, h_order: int, t: int | None = None, n: int | None = None
) -> ExtremalInstance:
    """``construct_prop2`` when given ``t``, ``construct_prop2_padded`` when
    given ``n``: w = 0 is a class of its own, the st-1 class takes the
    padding, and w is cut from the m+1 classes after its own."""
    if r < 3:
        raise PreconditionError("need r >= 3")
    if m < 0:
        raise PreconditionError("need m >= 0")
    if h_order < 1:
        raise PreconditionError("need h_order >= 1")
    block = (m + 2) * r - 2
    if 2 * h_order % block != 0:
        raise PreconditionError(
            f"divisibility: 2*{h_order} is not a multiple of (m+2)r-2 = {block}"
        )
    step = block * (r - 2)
    if n is None:
        n, slack = h_order * t, 1
        family, params = "prop2", {"r": r, "m": m, "h_order": h_order, "t": t}
    else:
        if n % h_order != 0:
            raise PreconditionError(f"divisibility: {h_order} does not divide n={n}")
        if n < step * h_order:
            raise PreconditionError(
                f"need n >= ((m+2)r-2)(r-2)*h_order = {step * h_order}"
            )
        t, slack = n // h_order // step * step, 2 * h_order**4
        family, params = "prop2-padded", {"r": r, "m": m, "h_order": h_order, "n": n}
    if t <= 0 or t % step != 0:
        raise PreconditionError(
            f"divisibility: t={t} is not a positive multiple of "
            f"((m+2)r-2)(r-2) = {step}"
        )
    require_order(n)  # before the m + r class sizes are listed
    st = 2 * h_order // block * t
    pad = n - h_order * t
    big = (h_order * t - (m + 1) * st) // (r - 2)
    adj = _multipartite_adj([1, st - 1 + pad] + [st] * m + [big] * (r - 2))
    _cut(adj, 1, (1 << ((m + 1) * st + pad)) - 2)
    bound = 2 * (1 - Fraction(m + 2, block)) * n - slack
    return ExtremalInstance(Graph(n, tuple(adj)), 0, bound, family, params)


def construct_fdiamond() -> Graph:
    """Octahedron minus an edge xy, plus a new vertex z adjacent to x and y
    only: 7 vertices, 13 edges, the smallest graph with extension number 1.
    The vertices are x=0, x'=1, y=2, y'=3, c1=4, c2=5 and z=6."""
    return construct_hdiamond(1, 3, [2, 2, 2])


def construct_hdiamond(k: int, r: int, sizes: list[int]) -> Graph:
    """Apex construction with extension number exactly k at chromatic
    number r.

    Take the complete r-partite graph with the given class sizes (each
    > k), delete k vertex-disjoint transversal (k+1)-cliques inside the
    first k+1 classes, and add an apex adjacent to those k(k+1) vertices
    and to every class strictly between the (k+1)-st and the last.
    """
    if k < 1:
        raise PreconditionError("need k >= 1")
    if r < k + 2:
        raise PreconditionError(f"need r >= k+2, got r={r}, k={k}")
    if len(sizes) != r:
        raise PreconditionError(f"need exactly r={r} class sizes")
    if any(s <= k for s in sizes):
        raise PreconditionError(f"every class size must exceed k={k}")
    # the apex is the last vertex, a class of its own
    adj = _multipartite_adj(list(sizes) + [1])
    apex = len(adj) - 1
    starts = list(accumulate(sizes, initial=0))
    # transversal i takes vertex i of each of the first k+1 classes
    transversals = [sum(1 << (starts[j] + i) for j in range(k + 1)) for i in range(k)]
    for clique in transversals:
        _cut(adj, clique, clique)
    keep = sum(transversals) | ((1 << starts[r - 1]) - (1 << starts[k + 1]))
    _cut(adj, 1 << apex, ((1 << apex) - 1) ^ keep)
    return Graph(apex + 1, tuple(adj))


# bounded family -> (its builder, the parameters the builder takes in
# order); instances and the verifier read their families from here
BOUNDED_FAMILIES = {
    "prop1": (construct_prop1, ("r", "n")),
    "prop2": (construct_prop2, ("r", "m", "h_order", "t")),
    "prop2-padded": (construct_prop2_padded, ("r", "m", "h_order", "n")),
}

# every family `orepack construct` builds -> (its builder, the flags the
# builder takes in order): the bounded families, then bare graphs without
# a claimed bound. The flags, in order of first use, are also `construct`'s
# options. A `sizes` flag is a comma-separated list, a `graph` flag names a
# graph file, any other an int; a builder that returns (graph, classes)
# lists them.
FAMILIES = {
    **BOUNDED_FAMILIES,
    "fdiamond": (construct_fdiamond, ()),
    "hdiamond": (construct_hdiamond, ("k", "r", "sizes")),
    "multipartite": (complete_multipartite, ("sizes",)),
    "blowup": (blow_up, ("graph", "t")),
}


class VerificationReport(FrozenRecord):
    __slots__ = ("ore_ok", "no_cover", "divisibility_ok", "nodes")

    def __init__(self, ore_ok: bool, no_cover: Verdict, divisibility_ok: bool, nodes: int) -> None:
        self._set(ore_ok, no_cover, divisibility_ok, nodes)

    @property
    def all_ok(self) -> bool:
        return self.ore_ok and self.no_cover is Verdict.YES and self.divisibility_ok

    def to_json_dict(self) -> dict:
        return {
            "ore_ok": self.ore_ok,
            "no_cover": self.no_cover.value,
            "divisibility_ok": self.divisibility_ok,
            "nodes": self.nodes,
        }


def verify_lower_bound(
    inst: ExtremalInstance, h: Graph, budget: int = DEFAULT_BUDGET
) -> VerificationReport:
    """Machine-check an instance against a concrete H.

    ``no_cover`` is YES when the complete anchored search proves no copy of
    h covers w, NO when one is found, UNKNOWN when the budget ran out.
    """
    if inst.family not in BOUNDED_FAMILIES:
        raise PreconditionError(f"family {inst.family!r} carries no verifiable bound")
    chi = chromatic_number(h)
    if chi != inst.params["r"]:
        raise PreconditionError(
            f"chromatic number mismatch: chi(h)={chi}, instance r={inst.params['r']}"
        )
    ce, _ = colour_extension_number(h, chi)
    if inst.family == "prop1":
        if ce.is_finite:
            raise PreconditionError(
                "prop1 requires an H with infinite colour extension number"
            )
    else:
        if not ce.is_finite or ce.value != inst.params["m"]:
            raise PreconditionError(
                f"extension number mismatch: CE(h)={ce}, instance m={inst.params['m']}"
            )
        if h.n != inst.params["h_order"]:
            raise PreconditionError(
                f"order mismatch: |h|={h.n}, instance h_order={inst.params['h_order']}"
            )
    ore_ok = min_ore_degree_sum(inst.graph) >= inst.claimed_ore_bound
    cover = copy_covering_vertex(inst.graph, h, inst.w, budget)
    if cover.verdict is Verdict.NO:
        no_cover = Verdict.YES
    elif cover.verdict is Verdict.YES:
        no_cover = Verdict.NO
    else:
        no_cover = Verdict.UNKNOWN
    divisibility_ok = inst.graph.n % h.n == 0
    return VerificationReport(ore_ok, no_cover, divisibility_ok, cover.nodes)
