"""Exact graph parameters for perfect-packing thresholds.

Everything here is computed in exact rational arithmetic; floats never
appear. The central quantity is the color extension number: the least
number of extra colors (beyond chi) forced on a proper coloring of H that
is built by first coloring some vertex neighborhood with chi - 2 colors.
Together with the critical chromatic number and the class-size gcd
machinery it determines the Ore-type packing threshold coefficient.
Every invariant but the extension number depends only on the set of
sorted class-size profiles of the optimal colorings; ``full_report`` reads
that set and chi once from ``coloring.class_size_profiles``, whose
profile search finds chi itself, so a report makes no
``chromatic_number`` call. The standalone functions read ``full_report``,
extension search included.

The extension number is 0 exactly when some optimal coloring leaves some
vertex x non-adjacent to two of its classes (x's own class is always
one): N(x) then meets at most chi - 2 classes, and that coloring extends
its own restriction to N(x) with chi colors. ``class_size_profiles``
reports the lowest such free vertex: it checks the first colorings of
each component as they complete, and decides the vertices still in
question past them by one pinned search each. So ``full_report`` reads
CE = 0 and its witness off the profile search, and runs the extension
search, which stops at m = 1, only when no vertex is free. On the
extremal family hdiamond, where CE = chi - 2, that search would mostly
refute neighbourhoods holding a clique on chi - 1 vertices; its clique
bounds pass over them, and over extensions that cannot have fewer
classes, without a search.

``ExtendedNat`` and ``ParameterReport`` are ``graphs.FrozenRecord``s
whose ``__init__`` fills the fields with one ``_set`` call: a dataclass or
a NamedTuple would compile generated methods in every process at import.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import reduce
from operator import and_

from .coloring import (
    chromatic_number,
    class_size_profiles,
    optimal_colorings,  # noqa: F401  unused here; perfbench/tracing.py wraps this name
    require_edge,
    _clique,
    _color_search,
)
from .graphs import FrozenRecord, Graph, PreconditionError, components


class ExtendedNat(FrozenRecord):
    """A nonnegative integer or infinity; infinity is ``value=None``."""

    __slots__ = ("value",)

    def __init__(self, value: int | None) -> None:
        if value is not None and value < 0:
            raise ValueError("ExtendedNat must be nonnegative")
        self._set(value)

    @classmethod
    def finite(cls, value: int) -> "ExtendedNat":
        return cls(value)

    @classmethod
    def infinite(cls) -> "ExtendedNat":
        return cls(None)

    @property
    def is_finite(self) -> bool:
        return self.value is not None

    def to_json(self) -> dict:
        return {"finite": self.is_finite, "value": self.value}

    def __repr__(self) -> str:
        return "inf" if self.value is None else str(self.value)


def fraction_json(q: Fraction) -> dict:
    return {"num": q.numerator, "den": q.denominator}


class ParameterReport(FrozenRecord):
    """Every packing-threshold invariant of one graph H."""

    __slots__ = (
        "chi", "sigma", "chi_cr", "d_set", "hcf_chi", "hcf_c", "hcf_is_one", "ce",
        "chi_star", "chi_ore", "chi_prime_ore", "ore_coefficient", "witness_vertex",
    )

    def __init__(
        self, chi: int, sigma: int, chi_cr: Fraction, d_set: tuple[int, ...],
        hcf_chi: ExtendedNat, hcf_c: int, hcf_is_one: bool, ce: ExtendedNat,
        chi_star: Fraction, chi_ore: Fraction, chi_prime_ore: Fraction,
        ore_coefficient: Fraction, witness_vertex: int | None,
    ) -> None:
        self._set(
            chi, sigma, chi_cr, d_set, hcf_chi, hcf_c, hcf_is_one, ce, chi_star, chi_ore,
            chi_prime_ore, ore_coefficient, witness_vertex,
        )

    def to_json_dict(self) -> dict:
        return {
            "chi": self.chi,
            "sigma": self.sigma,
            "chi_cr": fraction_json(self.chi_cr),
            "d_set": list(self.d_set),
            "hcf_chi": self.hcf_chi.to_json(),
            "hcf_c": self.hcf_c,
            "hcf_is_one": self.hcf_is_one,
            "ce": self.ce.to_json(),
            "chi_star": fraction_json(self.chi_star),
            "chi_ore": fraction_json(self.chi_ore),
            "chi_prime_ore": fraction_json(self.chi_prime_ore),
            "ore_coefficient": fraction_json(self.ore_coefficient),
            "witness_vertex": self.witness_vertex,
        }


# ---------------------------------------------------------------------------
# critical chromatic number and gcd machinery


def sigma(h: Graph) -> int:
    """Smallest color-class size over all optimal colorings."""
    return full_report(h).sigma


def colour_difference_set(h: Graph) -> set[int]:
    """All differences of consecutive sorted class sizes, over all optimal
    colorings."""
    return set(full_report(h).d_set)


def every_optimal_coloring_equitable(h: Graph) -> bool:
    return full_report(h).d_set == (0,)


def critical_chromatic_number(h: Graph) -> Fraction:
    """(chi - 1) * |H| / (|H| - sigma), always in (chi - 1, chi]."""
    return full_report(h).chi_cr


def hcf_chi(h: Graph) -> ExtendedNat:
    """gcd of the class-size difference set; infinite when the set is {0}."""
    return full_report(h).hcf_chi


def hcf_c(h: Graph) -> int:
    """gcd of the component orders."""
    if h.n == 0:
        raise PreconditionError("graph must have at least one vertex")
    return math.gcd(*(comp.bit_count() for comp in components(h)))


def hcf_is_one(h: Graph) -> bool:
    """Dispatch on chi: non-bipartite graphs need gcd 1 of the difference
    set; 2-chromatic graphs need coprime component orders and difference
    gcd at most 2 (an infinite difference gcd fails that test)."""
    return full_report(h).hcf_is_one


# ---------------------------------------------------------------------------
# color extension number


def colour_extension_number(
    h: Graph, chi: int | None = None, start: int = 0
) -> tuple[ExtendedNat, int | None]:
    """Least m such that some (chi-2)-coloring of some vertex neighborhood
    N(x) extends to a proper coloring of all of H with at most chi+m colors.

    Only vertices x with chi(H[N(x)]) <= chi - 2 are eligible (an isolated
    vertex has the 0-chromatic empty neighborhood and is always eligible);
    when no vertex is eligible the value is infinite. "Extends" pins the
    chosen classes on N(x): the full coloring restricted to N(x) must equal
    the chosen partition, while other vertices may reuse its colors. So
    m = 0 exactly when some optimal coloring leaves some x non-adjacent to
    two of its classes, x's own class being one.

    Returns the value and, when finite, the lowest witness vertex
    attaining it. ``chi`` is chi(h) when the caller knows it; the search
    stops at ``start``, which a caller may raise only past values it knows
    are not attained.

    One pass takes x in increasing order and keeps a bound that only
    falls. An eligible x extends with r fresh colors on H - N(x), so the
    bound starts at r - 2 and the first eligible x attains it. Each
    (r-2)-coloring of N(x) is then searched for an extension with fewer
    than r + bound classes, and each one found lowers the bound to its
    class count less r. A vertex with the neighbourhood of a lower one runs
    the same searches, so it is skipped.

    Two clique bounds (``coloring._clique``) skip searches that could
    only fail, so the value and witness are those of the searches alone.
    x is eligible exactly when the search of N(x) with r - 2 classes
    reaches a coloring, so a clique on r - 1 vertices in N(x) makes x
    ineligible without it. An extension with T classes gives each vertex
    outside N(x) that every pinned class blocks a class of its own beside
    the pinned ones, and a clique of k such vertices k of them: past
    T - (pinned classes) no extension exists, and as T only falls, the
    coloring of N(x) is done. The search of N(x) keeps the neighbour masks
    of its classes, and hands them to the bound and to each extension
    search, which would otherwise rebuild them.
    """
    require_edge(h)
    r = chromatic_number(h) if chi is None else chi
    best = max(start, r - 2)
    witness = None

    def lower(classes: list[int]) -> bool:
        nonlocal best, witness
        best, witness = max(start, len(classes) - r), x
        return True

    def extend(pinned: list[int]) -> bool:
        nonlocal witness
        if witness is None:
            witness = x
        # the vertices outside N(x) that every pinned class blocks take
        # other classes, a clique of them one each
        clique = _clique(h, reduce(and_, near, outside)).bit_count()
        while best > start and len(pinned) + clique < r + best and _color_search(
            h, outside, list(pinned), r + best - 1, lower, list(near)
        ):
            pass
        return best == start

    seen = set()
    for x, nbrs in enumerate(h.adj):
        if nbrs in seen:
            continue
        seen.add(nbrs)
        # a clique on r - 1 vertices leaves N(x) no (r-2)-coloring
        if _clique(h, nbrs).bit_count() > r - 2:
            continue
        outside = h.vertex_mask ^ nbrs
        near: list[int] = []
        if _color_search(h, nbrs, [], r - 2, extend, near):
            break
    if witness is None:
        return ExtendedNat.infinite(), None
    return ExtendedNat.finite(best), witness


# ---------------------------------------------------------------------------
# derived thresholds


def chi_star(h: Graph) -> Fraction:
    """Critical chromatic number when the gcd condition holds, else chi."""
    return full_report(h).chi_star


def _chi_prime(chi: int, ce: ExtendedNat) -> Fraction:
    if not ce.is_finite:
        return Fraction(chi)
    return chi - Fraction(2, ce.value + 2)


def chi_prime_ore(h: Graph) -> Fraction:
    """Threshold parameter for covering a fixed vertex by a copy of H."""
    require_edge(h)
    chi = chromatic_number(h)
    ce, _ = colour_extension_number(h, chi)
    return _chi_prime(chi, ce)


def chi_ore(h: Graph) -> Fraction:
    """Threshold parameter for perfect H-packings under degree-sum
    conditions; equals max(chi_star, chi_prime_ore)."""
    return full_report(h).chi_ore


def ore_threshold_coefficient(h: Graph) -> Fraction:
    """Leading coefficient 2 * (1 - 1/chi_ore) of the degree-sum threshold."""
    return full_report(h).ore_coefficient


def full_report(h: Graph) -> ParameterReport:
    require_edge(h)
    chi, profiles, free = class_size_profiles(h)
    sig = min(s[0] for s in profiles)
    dset = {s[i + 1] - s[i] for s in profiles for i in range(chi - 1)}
    if dset == {0}:
        hchi = ExtendedNat.infinite()
    else:
        hchi = ExtendedNat.finite(math.gcd(*dset))
    hc = hcf_c(h)
    # the hcf dispatch on chi (see hcf_is_one)
    if chi >= 3:
        hcf1 = hchi.value == 1
    else:
        hcf1 = hc == 1 and hchi.is_finite and hchi.value <= 2
    crit = Fraction((chi - 1) * h.n, h.n - sig)
    assert chi - 1 < crit <= chi
    star = crit if hcf1 else Fraction(chi)
    # the lowest free vertex: the witness of CE = 0, or None when CE >= 1
    if free is None:
        ce, witness = colour_extension_number(h, chi, start=1)
    else:
        ce, witness = ExtendedNat.finite(0), free
    prime = _chi_prime(chi, ce)
    ore = max(star, prime)
    return ParameterReport(
        chi=chi,
        sigma=sig,
        chi_cr=crit,
        d_set=tuple(sorted(dset)),
        hcf_chi=hchi,
        hcf_c=hc,
        hcf_is_one=hcf1,
        ce=ce,
        chi_star=star,
        chi_ore=ore,
        chi_prime_ore=prime,
        ore_coefficient=2 * (1 - 1 / ore),
        witness_vertex=witness,
    )
