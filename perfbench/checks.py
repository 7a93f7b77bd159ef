"""Output checks for the benchmark tasks, made apart from orepack.

Nothing here imports orepack. Input files are re-read with this module's
own graph6 decoder, and every expected value comes either from a closed
form, from a small brute force written here, or from a property the
program's answer must have. No check compares against stored output.

A checker is a callable ``check(rc, stdout) -> str | None`` that returns
None when the task's exit code and standard output are right, and a short
reason otherwise.
"""

from __future__ import annotations

import itertools
import json
import math
from fractions import Fraction
from functools import lru_cache


# ---------------------------------------------------------------------------
# graphs as adjacency bitmask lists


def decode_graph6(text: str) -> list[int]:
    """Adjacency bitmasks of a graph6 string (orders up to 62 and the
    4-byte form for 63..258047)."""
    s = text.strip()
    if s.startswith("~"):
        n = ((ord(s[1]) - 63) << 12) | ((ord(s[2]) - 63) << 6) | (ord(s[3]) - 63)
        body = s[4:]
    else:
        n = ord(s[0]) - 63
        body = s[1:]
    bits = []
    for ch in body:
        value = ord(ch) - 63
        bits.extend((value >> shift) & 1 for shift in range(5, -1, -1))
    adj = [0] * n
    k = 0
    for j in range(1, n):
        for i in range(j):
            if bits[k]:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
            k += 1
    return adj


@lru_cache(maxsize=None)
def read_graph(path: str) -> tuple[int, ...]:
    with open(path, "r", encoding="ascii") as fh:
        return tuple(decode_graph6(fh.read()))


def members(mask: int) -> list[int]:
    return [v for v in range(mask.bit_length()) if mask >> v & 1]


def components(adj) -> list[int]:
    """Vertex masks of the connected components, by depth-first search."""
    seen = 0
    out = []
    for start in range(len(adj)):
        if seen >> start & 1:
            continue
        comp = 0
        stack = [start]
        while stack:
            v = stack.pop()
            if comp >> v & 1:
                continue
            comp |= 1 << v
            stack.extend(u for u in members(adj[v]) if not comp >> u & 1)
        seen |= comp
        out.append(comp)
    return out


def is_clique(adj, mask: int) -> bool:
    return all((adj[v] | 1 << v) & mask == mask for v in members(mask))


def complement(adj) -> list[int]:
    full = (1 << len(adj)) - 1
    return [full & ~m & ~(1 << v) for v, m in enumerate(adj)]


def multipartite_parts(adj) -> list[int] | None:
    """The parts of a complete multipartite graph, or None when the graph
    is not one: its complement must be a disjoint union of cliques."""
    comp = complement(adj)
    parts = components(comp)
    if all(is_clique(comp, p) for p in parts):
        return parts
    return None


def min_degree_sum(adj) -> int | None:
    """Minimum of d(x) + d(y) over non-adjacent pairs; None if there is none."""
    deg = [m.bit_count() for m in adj]
    best = None
    for x in range(len(adj)):
        for y in range(x + 1, len(adj)):
            if not adj[x] >> y & 1:
                s = deg[x] + deg[y]
                if best is None or s < best:
                    best = s
    return best


# ---------------------------------------------------------------------------
# brute-force colouring of small disjoint unions


def _component_vectors(adj, comp: int, k: int) -> set[tuple[int, ...]]:
    """Class-size vectors (one entry per colour name) of every proper
    colouring of one component with colours 0..k-1, by trying all k^n
    assignments."""
    verts = members(comp)
    edges = [(a, b) for a, u in enumerate(verts) for b, w in enumerate(verts) if a < b and adj[u] >> w & 1]
    out = set()
    for colours in itertools.product(range(k), repeat=len(verts)):
        if all(colours[a] != colours[b] for a, b in edges):
            sizes = [0] * k
            for c in colours:
                sizes[c] += 1
            out.add(tuple(sizes))
    return out


def union_colouring_profile(adj) -> tuple[int, int, set[int]]:
    """(chi, sigma, difference set) of a disjoint union of small components.

    chi is the largest component chromatic number. The size vectors of the
    components' colourings with at most chi colours are summed over every
    choice (which covers every permutation of colour names), and the sums
    with no empty class are the optimal colourings of the union.
    """
    comps = components(adj)
    chi = 1
    for comp in comps:
        while not _component_vectors(adj, comp, chi):
            chi += 1
    sums = {(0,) * chi}
    for comp in comps:
        vectors = _component_vectors(adj, comp, chi)
        sums = {tuple(a + b for a, b in zip(s, v)) for s in sums for v in vectors}
    profiles = {tuple(sorted(s)) for s in sums if min(s) > 0}
    sigma = min(p[0] for p in profiles)
    diffs = {p[i + 1] - p[i] for p in profiles for i in range(chi - 1)}
    return chi, sigma, diffs


# ---------------------------------------------------------------------------
# parameter reports


def _frac(obj) -> Fraction:
    return Fraction(obj["num"], obj["den"])


def _ext(obj):
    return obj["value"] if obj["finite"] else math.inf


def report_properties(rep: dict, n: int) -> str | None:
    """Relations every parameter report must satisfy, whatever H is."""
    chi, sigma = rep["chi"], rep["sigma"]
    crit, star, prime, ore = (_frac(rep[k]) for k in ("chi_cr", "chi_star", "chi_prime_ore", "chi_ore"))
    ce = _ext(rep["ce"])
    if crit != Fraction((chi - 1) * n, n - sigma):
        return f"chi_cr {crit} != (chi-1)n/(n-sigma)"
    if not chi - 1 < crit <= chi:
        return f"chi_cr {crit} outside (chi-1, chi]"
    if star != (crit if rep["hcf_is_one"] else chi):
        return f"chi_star {star} does not follow from hcf_is_one"
    if prime != (chi if ce == math.inf else chi - Fraction(2, ce + 2)):
        return f"chi_prime_ore {prime} does not follow from CE"
    if ore != max(star, prime):
        return f"chi_ore {ore} != max(chi_star, chi_prime_ore)"
    if _frac(rep["ore_coefficient"]) != 2 * (1 - 1 / ore):
        return "ore_coefficient != 2(1 - 1/chi_ore)"
    if (rep["witness_vertex"] is None) != (ce == math.inf):
        return "witness vertex present iff CE finite is violated"
    return None


def expected_values(family: str, spec: dict, adj) -> dict:
    """Closed-form report fields for the families that have them."""
    if family == "kK2":
        k = spec["k"]
        # both classes of every 2-colouring take one end of each edge
        return {"chi": 2, "sigma": k, "d_set": [0], "hcf_chi": math.inf, "hcf_c": 2, "ce": math.inf, "chi_ore": Fraction(2)}
    if family == "union":
        chi, sigma, diffs = union_colouring_profile(adj)
        return {"chi": chi, "sigma": sigma, "d_set": sorted(diffs)}
    if family == "multipartite":
        sizes = sorted(spec["sizes"])
        diffs = sorted({b - a for a, b in zip(sizes, sizes[1:])})
        return {"chi": len(sizes), "sigma": sizes[0], "d_set": diffs, "ce": math.inf}
    if family == "hdiamond":
        out = {"chi": spec["r"], "ce": spec["k"]}
        out.update({key: Fraction(*spec[key]) for key in ("chi_cr", "chi_ore") if key in spec})
        return out
    return {}


def _field(rep: dict, key: str):
    if key in ("hcf_chi", "ce"):
        return _ext(rep[key])
    if key in ("chi_cr", "chi_ore"):
        return _frac(rep[key])
    return rep[key]


def params_checker(path: str, family: str, spec: dict, seen: dict):
    """Check one `params` output; ``seen`` maps an H's name to the first
    report of any relabelling of it, so every relabelling must agree."""
    adj = read_graph(path)
    expected = expected_values(family, spec, adj)
    name = spec["name"]

    def check(rc, stdout):
        if rc != 0:
            return f"exit {rc}, expected 0"
        rep = json.loads(stdout)
        for key, value in expected.items():
            if _field(rep, key) != value:
                return f"{key} = {_field(rep, key)}, expected {value}"
        bad = report_properties(rep, len(adj))
        if bad:
            return bad
        invariant = {k: v for k, v in rep.items() if k != "witness_vertex"}
        first = seen.setdefault(name, invariant)
        if invariant != first:
            return "report differs between relabellings of one H"
        return None

    return check


# ---------------------------------------------------------------------------
# packing verdicts


def refute_reason(family: str, g, h) -> str | None:
    """Why no perfect H-packing of G exists, from G's structure and H; None
    when the counting argument does not apply."""
    h_edges = sum(m.bit_count() for m in h) // 2
    if family == "cliques":
        # H = K3: a triangle lies inside one component, so every component
        # must be a clique whose order 3 divides
        comps = components(g)
        if len(h) == 3 and h_edges == 3 and all(is_clique(g, c) for c in comps):
            bad = [c.bit_count() for c in comps if c.bit_count() % 3]
            if bad:
                return f"a clique of order {bad[0]} has no triangle factor"
    elif family == "bipartite":
        # H = C4 takes two vertices from each side of K_{a,b}
        parts = multipartite_parts(g)
        if len(h) == 4 and h_edges == 4 and parts and len(parts) == 2:
            a, b = (p.bit_count() for p in parts)
            if a != b:
                return f"C4 copies use equal numbers from sides {a} and {b}"
    elif family == "tripartite":
        # H = K3 takes one vertex from each of three independent parts
        parts = multipartite_parts(g)
        if len(h) == 3 and h_edges == 3 and parts and len(parts) == 3:
            sizes = sorted(p.bit_count() for p in parts)
            if sizes[0] != sizes[2]:
                return f"triangles use one vertex of each of parts {sizes}"
    return None


def refute_checker(g_path: str, h_path: str, family: str):
    reason = refute_reason(family, read_graph(g_path), read_graph(h_path))

    def check(rc, stdout):
        if reason is None:
            return "the input has no counting argument for NO"
        if rc != 1 or stdout.split()[:1] != ["NO"]:
            return f"exit {rc} with {stdout.split()[:1]}, expected NO and exit 1"
        return None

    return check


def verify_checker(instance_path: str, h_path: str):
    with open(instance_path, "r", encoding="utf-8") as fh:
        inst = json.load(fh)
    g = decode_graph6(inst["graph6"])
    h = read_graph(h_path)
    bound = Fraction(inst["claimed_bound"]["num"], inst["claimed_bound"]["den"])
    low = min_degree_sum(g)
    ore_ok = low is None or low >= bound

    def check(rc, stdout):
        if rc != 0:
            return f"exit {rc}, expected 0"
        rep = json.loads(stdout)
        if not ore_ok:
            return f"minimum degree sum {low} is below the claimed bound {bound}"
        if rep["ore_ok"] is not True:
            return "ore_ok false, but the minimum degree sum meets the bound"
        if rep["no_cover"] != "yes":
            return f"no_cover {rep['no_cover']}, expected yes"
        if rep["divisibility_ok"] is not (len(g) % len(h) == 0):
            return "divisibility_ok disagrees with |G| mod |H|"
        if not rep["divisibility_ok"]:
            return "|H| does not divide |G|"
        return None

    return check


def embedding_error(g, h, mapping: dict) -> str | None:
    """Why ``mapping`` (H vertex name -> G vertex) is not a copy of H."""
    if sorted(mapping) != sorted(str(v) for v in range(len(h))):
        return "mapping does not name every vertex of H once"
    image = [mapping[str(v)] for v in range(len(h))]
    if len(set(image)) != len(image):
        return "mapping is not injective"
    if not all(isinstance(x, int) and 0 <= x < len(g) for x in image):
        return "image vertex out of range"
    for u in range(len(h)):
        for w in members(h[u]):
            if not g[image[u]] >> image[w] & 1:
                return f"H edge {u}-{w} maps to a non-edge"
    return None


def certificate_error(g, h, certificate) -> str | None:
    covered = set()
    for mapping in certificate:
        bad = embedding_error(g, h, mapping)
        if bad:
            return bad
        image = set(mapping.values())
        if image & covered:
            return "two copies share a vertex"
        covered |= image
    if covered != set(range(len(g))):
        return "copies do not cover every vertex"
    return None


def min_degree_guarantee(g, r: int) -> bool:
    """Hajnal-Szemeredi: delta(G) >= (1 - 1/r)|G| and r | |G| give a K_r-factor."""
    return len(g) % r == 0 and min(m.bit_count() for m in g) * r >= (r - 1) * len(g)


def find_checker(g_path: str, h_path: str, guarantee_r: int | None):
    g, h = read_graph(g_path), read_graph(h_path)
    promised = guarantee_r is None or min_degree_guarantee(g, guarantee_r)

    def check(rc, stdout):
        if not promised:
            return "host does not meet the Hajnal-Szemeredi bound"
        lines = stdout.splitlines()
        if rc != 0 or lines[:1] != ["YES"] or len(lines) < 2:
            return f"exit {rc} with {lines[:1]}, expected YES and exit 0"
        return certificate_error(g, h, json.loads(lines[1])["certificate"])

    return check


def cover_checker(g_path: str, h_path: str, w: int, guarantee_r: int | None):
    g, h = read_graph(g_path), read_graph(h_path)
    promised = guarantee_r is None or min_degree_guarantee(g, guarantee_r)

    def check(rc, stdout):
        if not promised:
            return "host does not meet the Hajnal-Szemeredi bound"
        if rc != 0:
            return f"exit {rc}, expected 0"
        mapping = json.loads(stdout)
        bad = embedding_error(g, h, mapping)
        if bad:
            return bad
        if w not in mapping.values():
            return f"copy does not cover vertex {w}"
        return None

    return check


def probe_checker(samples: int):
    def check(rc, stdout):
        if rc != 0:
            return f"exit {rc}, expected 0"
        rep = json.loads(stdout)
        if rep["samples"] != samples:
            return f"{rep['samples']} samples, expected {samples}"
        if rep["violations"] or rep["unknowns"]:
            return f"{rep['violations']} violations, {rep['unknowns']} unknowns"
        if rep["condition_hits"] < 1:
            return "no sample met the hypothesis"
        return None

    return check


def make_checker(spec: dict, seen: dict):
    """The checker for one task's ``check`` description."""
    kind = spec["kind"]
    if kind == "params":
        return params_checker(spec["path"], spec["family"], spec["spec"], seen)
    if kind == "refute":
        return refute_checker(spec["g"], spec["h"], spec["family"])
    if kind == "verify":
        return verify_checker(spec["instance"], spec["h"])
    if kind == "find":
        return find_checker(spec["g"], spec["h"], spec["r"])
    if kind == "cover":
        return cover_checker(spec["g"], spec["h"], spec["w"], spec["r"])
    if kind == "probe":
        return probe_checker(spec["samples"])
    raise ValueError(f"unknown check kind {kind!r}")
