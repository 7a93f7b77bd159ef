"""Exact graph parameters for perfect-packing thresholds.

Everything here is computed in exact rational arithmetic; floats never
appear. The central quantity is the color extension number: the least
number of extra colors (beyond chi) forced on a proper coloring of H that
is built by first coloring some vertex neighborhood with chi - 2 colors.
Together with the critical chromatic number and the class-size gcd
machinery it determines the Ore-type packing threshold coefficient.
Every invariant but the extension number depends only on the set of
sorted class-size profiles of the optimal colorings; ``_analyse`` reads
that set once from ``coloring.class_size_profiles``, and the standalone
functions read ``_analyse``.

The extension number is 0 exactly when some optimal coloring leaves some
vertex x non-adjacent to two of its classes (x's own class is always
one): N(x) then meets at most chi - 2 classes, and that coloring extends
its own restriction to N(x) with chi colors. ``class_size_profiles``
reports the lowest such free vertex: it checks the first colorings of
each component as they complete, and decides the vertices still in
question past them by one pinned search each. So ``full_report`` reads
CE = 0 and its witness off the profile search, and runs the extension
search, which stops at m = 1, only when no vertex is free.

``ExtendedNat`` is a ``graphs.FrozenRecord`` and the reports are
``NamedTuple``s, not dataclasses, whose generated methods every process
would compile at import.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple, Optional

from .coloring import (
    chromatic_number,
    class_size_profiles,
    optimal_colorings,  # noqa: F401  unused here; perfbench/tracing.py wraps this name
    require_edge,
    _color_search,
)
from .graphs import FrozenRecord, Graph, PreconditionError, components


class ExtendedNat(FrozenRecord):
    """A nonnegative integer or infinity; infinity is ``value=None``."""

    __slots__ = ("value",)

    def __init__(self, value: Optional[int]) -> None:
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


class ParameterReport(NamedTuple):
    """Every packing-threshold invariant of one graph H."""

    chi: int
    sigma: int
    chi_cr: Fraction
    d_set: tuple[int, ...]
    hcf_chi: ExtendedNat
    hcf_c: int
    hcf_is_one: bool
    ce: ExtendedNat
    chi_star: Fraction
    chi_ore: Fraction
    chi_prime_ore: Fraction
    ore_coefficient: Fraction
    witness_vertex: Optional[int]

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


class _Analysis(NamedTuple):
    """The report fields that the class-size profiles of the optimal
    colorings of H determine."""

    chi: int
    sigma: int
    d_set: tuple[int, ...]
    hcf_chi: ExtendedNat
    hcf_c: int
    hcf_is_one: bool
    chi_cr: Fraction
    chi_star: Fraction
    # the lowest free vertex: the witness of CE = 0, or None when CE >= 1
    witness_vertex: Optional[int]


def _analyse(h: Graph) -> _Analysis:
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
    return _Analysis(
        chi=chi,
        sigma=sig,
        d_set=tuple(sorted(dset)),
        hcf_chi=hchi,
        hcf_c=hc,
        hcf_is_one=hcf1,
        chi_cr=crit,
        chi_star=crit if hcf1 else Fraction(chi),
        witness_vertex=free,
    )


def sigma(h: Graph) -> int:
    """Smallest color-class size over all optimal colorings."""
    return _analyse(h).sigma


def colour_difference_set(h: Graph) -> set[int]:
    """All differences of consecutive sorted class sizes, over all optimal
    colorings."""
    return set(_analyse(h).d_set)


def every_optimal_coloring_equitable(h: Graph) -> bool:
    return _analyse(h).d_set == (0,)


def critical_chromatic_number(h: Graph) -> Fraction:
    """(chi - 1) * |H| / (|H| - sigma), always in (chi - 1, chi]."""
    return _analyse(h).chi_cr


def hcf_chi(h: Graph) -> ExtendedNat:
    """gcd of the class-size difference set; infinite when the set is {0}."""
    return _analyse(h).hcf_chi


def hcf_c(h: Graph) -> int:
    """gcd of the component orders."""
    if h.n == 0:
        raise PreconditionError("graph must have at least one vertex")
    return math.gcd(*(comp.bit_count() for comp in components(h)))


def hcf_is_one(h: Graph) -> bool:
    """Dispatch on chi: non-bipartite graphs need gcd 1 of the difference
    set; 2-chromatic graphs need coprime component orders and difference
    gcd at most 2 (an infinite difference gcd fails that test)."""
    return _analyse(h).hcf_is_one


# ---------------------------------------------------------------------------
# color extension number


def colour_extension_number(
    h: Graph, chi: Optional[int] = None, start: int = 0
) -> tuple[ExtendedNat, Optional[int]]:
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
    class count less r. The pinned search of N(x) is the eligibility test:
    x is eligible exactly when it reaches a coloring. A vertex with the
    neighbourhood of a lower one runs the same searches, so it is skipped.
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
        while best > start and _color_search(h, outside, list(pinned), r + best - 1, lower):
            pass
        return best == start

    seen = set()
    for x, nbrs in enumerate(h.adj):
        if nbrs in seen:
            continue
        seen.add(nbrs)
        outside = h.vertex_mask ^ nbrs
        if _color_search(h, nbrs, [], r - 2, extend):
            break
    if witness is None:
        return ExtendedNat.infinite(), None
    return ExtendedNat.finite(best), witness


# ---------------------------------------------------------------------------
# derived thresholds


def chi_star(h: Graph) -> Fraction:
    """Critical chromatic number when the gcd condition holds, else chi."""
    return _analyse(h).chi_star


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
    a = _analyse(h)
    if a.witness_vertex is None:
        ce, witness = colour_extension_number(h, a.chi, start=1)
    else:
        ce, witness = ExtendedNat.finite(0), a.witness_vertex
    prime = _chi_prime(a.chi, ce)
    if a.hcf_is_one and ce.is_finite:
        ore = max(a.chi_cr, prime)
    else:
        ore = Fraction(a.chi)
    assert ore == max(a.chi_star, prime)
    assert a.chi - 1 < a.chi_cr <= a.chi
    return ParameterReport(
        **(a._asdict() | {"witness_vertex": witness}),
        ce=ce,
        chi_ore=ore,
        chi_prime_ore=prime,
        ore_coefficient=2 * (1 - 1 / ore),
    )
