"""Bitset-backed simple graphs on up to 128 vertices.

Graphs are immutable: adjacency is a tuple of per-vertex bitmasks, so
values can be hashed, compared and shared across threads freely. Every
``Graph(...)`` checks its rows on construction. The symmetry check packs
the rows into one int, a square bit matrix with a power-of-two row
stride, and compares it with its transpose, which one delta swap per bit
of the stride makes; only a mismatch goes back edge by edge to name the
first asymmetric edge. The graph6 reader, ``relabel`` and
``probes.random_graph`` build rows that are symmetric, loop-free and in
range by construction, and hand them to ``Graph._of_valid_rows``, which
checks only the order. ``relabel`` takes P A P^T by the same transpose:
it moves the rows, transposes them and moves them again.
Every graph operation in this module is a pure function of its inputs;
the one stateful object is ``Meter``, the step counter of the packing,
cover, optimal-coloring and class-size profile searches and of the
packing layer's type-count engine.

Every record type of the package, ``Graph`` among them, is a slotted
class on ``Record`` with an ordinary ``__init__``. A frozen record fills
its fields with one ``FrozenRecord._set`` call, the only code that
writes past its raising ``__setattr__``. None is a dataclass or a
``typing.NamedTuple``: both compile generated methods at import, which
cost each orepack process ~17 ms as dataclasses and about 40 % of
importing the package as NamedTuples.

``min_ore_degree_sum`` is the Ore degree sum sigma_2, the least
d(x) + d(y) over non-adjacent x != y. It takes the vertices by rising
degree, so each vertex needs only its first later non-neighbour, and it
stops once no later pair can beat the best sum found.

Two text formats are supported, each read by one parser beside its
writer: graph6 (the compact ASCII interchange format used by graph
corpora) and a line-oriented edge list ("n m" header followed by one
"u v" pair per line, 0-indexed; '#' starts a comment; lines end at "\n"
and words part at ASCII whitespace only). ``parse_graph_text`` tells them
apart by the edge list's header, two words that are integers, and hands
the text over; a graph6 word is one word, so it costs no int parse.
The graph6 body is base64 over another alphabet, so it decodes in one
C-level call to one int. The parser cuts the rows below the diagonal out
of it with one plan per order, cached: the int shifted by 0 to 7 bits
puts each row at the start of a byte, one ``itemgetter`` of byte slices
takes every row at the bit-matrix stride, and one mask clears the bits
past each row. It ORs them with their transpose to get every row. The
writer runs these steps backwards: it ORs each row's bits below the
diagonal into one int and encodes its bytes with one base64 call.
"""

from __future__ import annotations

import binascii
import math
import re
import struct
from collections.abc import Iterable, Iterator, Sequence
from fractions import Fraction
from functools import cache, lru_cache
from itertools import accumulate, repeat
from operator import itemgetter

MAX_VERTICES = 128


class GraphFormatError(ValueError):
    """Input text (graph6, an edge list or an instance JSON) could not be
    decoded."""


class PreconditionError(ValueError):
    """An operation was called outside its input contract."""


class BudgetExhausted(RuntimeError):
    """A search spent more steps than its meter allows, so it has no answer."""


class Meter:
    """Counts the steps of one search: node expansions in the packing and
    cover searches, completed colorings in the coloring searches.
    ``spend(steps)`` counts several steps at once, as the profile search
    does for colorings it counts without completing them. A step past
    ``limit`` (None: no limit) raises BudgetExhausted. A negative limit is
    a PreconditionError: no search could run on it."""

    __slots__ = ("nodes", "limit")

    def __init__(self, limit: int | None = None) -> None:
        if limit is not None and limit < 0:
            raise PreconditionError(f"a search limit must be at least 0, got {limit}")
        self.nodes = 0
        self.limit = limit

    def spend(self, steps: int = 1) -> None:
        self.nodes += steps
        if self.limit is not None and self.nodes > self.limit:
            raise BudgetExhausted(
                f"the search took more than {self.limit} steps; raise the limit to finish it"
            )


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


# ---------------------------------------------------------------------------
# square bit matrices packed in one int
#
# Row i of an n x n bit matrix fills bits i*w .. i*w + w - 1 of one int. The
# stride w is the least power of two that is at least n and at least 8, so
# each row is a whole number of bytes and goes in and out by int.to_bytes
# and int.from_bytes; rows of up to 64 bits come out by one struct call.


def _stride(n: int) -> int:
    return max(8, 1 << (n - 1).bit_length())


def _pack(rows: Iterable[int], w: int) -> int:
    return int.from_bytes(b"".join([m.to_bytes(w >> 3, "little") for m in rows]), "little")


def _unpack(x: int, n: int, w: int) -> tuple[int, ...]:
    """The first n rows of ``x``, which must have no bits past them."""
    size = w >> 3
    data = x.to_bytes(n * size, "little")
    if w <= 64:
        return _row_struct(n, w).unpack(data)
    return tuple(map(int.from_bytes, [data[i:i + size] for i in range(0, n * size, size)],
                     repeat("little")))


# struct's code for an unsigned int of w bits
_ROW_FORMAT = {8: "B", 16: "H", 32: "I", 64: "Q"}


@cache
def _row_struct(n: int, w: int) -> struct.Struct:
    """Reads n little-endian rows of w <= 64 bits; the cache holds at most
    one entry per n <= 64."""
    return struct.Struct(f"<{n}{_ROW_FORMAT[w]}")


@cache
def _swap_steps(w: int) -> tuple[tuple[int, int], ...]:
    """The (distance, mask) of each delta swap of the w x w transpose. Step
    k exchanges bit k of the row index with bit k of the column index: its
    mask holds the entries whose row has bit k clear and whose column has
    it set, and each moves k rows down and k columns left."""
    steps = []
    k = w >> 1
    while k:
        row = int(("1" * k + "0" * k) * (w // (2 * k)), 2)
        steps.append((k * (w - 1), sum(row << (i * w) for i in range(w) if not i & k)))
        k >>= 1
    return tuple(steps)


def _transpose(x: int, w: int) -> int:
    """The transpose of the w x w bit matrix packed in ``x``, by log2(w)
    delta swaps (Warren, Hacker's Delight, 2nd ed., section 7-3)."""
    for d, mask in _swap_steps(w):
        t = (x ^ x >> d) & mask
        x ^= t ^ t << d
    return x


def _check_order(n: int) -> None:
    if not 0 <= n <= MAX_VERTICES:
        raise ValueError(f"vertex count {n} outside 0..{MAX_VERTICES}")


class Record:
    """Base of the package's record types. Each names its fields in
    ``__slots__``, in constructor order. Two objects of one class are
    equal when their ``_key()`` is, every field unless the type says
    otherwise, and the repr lists the fields. Unhashable."""

    __slots__ = ()

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self.__slots__)


class FrozenRecord(Record):
    """A ``Record`` whose fields are set once, by ``_set``: assigning to or
    deleting one raises AttributeError. It hashes its ``_key()``."""

    __slots__ = ()

    def _set(self, *values) -> None:
        """Write ``values`` into the fields, in ``__slots__`` order."""
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __hash__(self) -> int:
        return hash(self._key())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Graph(FrozenRecord):
    """Undirected simple graph; ``adj[v]`` is the neighbor bitmask of ``v``.

    ``labels`` are optional decoration (constructions use them to name a
    distinguished vertex); structural equality and hashing ignore them.
    """

    __slots__ = ("n", "adj", "labels")

    def __init__(self, n: int, adj: tuple[int, ...], labels: tuple[str, ...] | None = None) -> None:
        _check_order(n)
        if len(adj) != n:
            raise ValueError("adjacency row count does not match vertex count")
        full = (1 << n) - 1
        for v, mask in enumerate(adj):
            if mask & ~full:
                raise ValueError(f"adjacency of vertex {v} mentions vertices >= {n}")
            if mask >> v & 1:
                raise ValueError(f"loop at vertex {v}")
        w = _stride(n)
        packed = _pack(adj, w)
        if packed != _transpose(packed, w):
            v, u = next((v, u) for v, mask in enumerate(adj)
                        for u in iter_bits(mask) if not adj[u] >> v & 1)
            raise ValueError(f"asymmetric edge {v}-{u}")
        if labels is not None and len(labels) != n:
            raise ValueError("label count does not match vertex count")
        self._set(n, adj, labels)

    @classmethod
    def _of_valid_rows(cls, n: int, adj: tuple[int, ...]) -> "Graph":
        """The graph on rows that are symmetric, loop-free and inside
        range(n) by how the caller built them; only the order is checked."""
        _check_order(n)
        g = object.__new__(cls)
        g._set(n, adj, None)
        return g

    def _key(self) -> tuple:
        return self.n, self.adj

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, edges={self.edge_count()})"

    @classmethod
    def from_edges(
        cls,
        n: int,
        edges: Iterable[tuple[int, int]],
        labels: Sequence[str] | None = None,
    ) -> "Graph":
        adj = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge {u}-{v} out of range for n={n}")
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        return cls(n, tuple(adj), tuple(labels) if labels is not None else None)

    @property
    def vertex_mask(self) -> int:
        return (1 << self.n) - 1

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def degrees(self) -> list[int]:
        return [m.bit_count() for m in self.adj]

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def neighbors(self, v: int) -> list[int]:
        return list(iter_bits(self.adj[v]))

    def edges(self) -> Iterator[tuple[int, int]]:
        for u in range(self.n):
            for v in iter_bits(self.adj[u] >> (u + 1) << (u + 1)):
                yield (u, v)

    def edge_count(self) -> int:
        return sum(map(int.bit_count, self.adj)) // 2


# ---------------------------------------------------------------------------
# generators


def empty_graph(n: int) -> Graph:
    return Graph(n, (0,) * n)


def complete_graph(n: int) -> Graph:
    full = (1 << n) - 1
    return Graph(n, tuple(full ^ (1 << v) for v in range(n)))


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs at least 3 vertices")
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def path_graph(n: int) -> Graph:
    if n < 1:
        raise ValueError("path needs at least 1 vertex")
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def star_graph(leaves: int) -> Graph:
    """Star with center 0 and ``leaves`` pendant vertices."""
    return Graph.from_edges(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def complete_multipartite(sizes: Sequence[int]) -> tuple[Graph, tuple[range, ...]]:
    """Complete multipartite graph and its classes; class ``i`` is the range
    of ``sizes[i]`` consecutive vertices, in the order given."""
    adj = _multipartite_adj(sizes)
    bounds = list(accumulate(sizes, initial=0))
    return Graph(len(adj), tuple(adj)), tuple(map(range, bounds, bounds[1:]))


def require_order(n: int) -> None:
    """Reject a graph to be built on more than MAX_VERTICES vertices."""
    if n > MAX_VERTICES:
        raise PreconditionError(f"order {n} exceeds {MAX_VERTICES}")


def _multipartite_adj(sizes: Sequence[int]) -> list[int]:
    """Adjacency rows of the complete multipartite graph on ``sizes``, for
    callers that edit them before building one ``Graph``."""
    if not sizes:
        raise PreconditionError("at least one class size required")
    if any(s <= 0 for s in sizes):
        raise PreconditionError("class sizes must be positive")
    n = sum(sizes)
    require_order(n)
    full = (1 << n) - 1
    adj = []
    for s in sizes:
        adj.extend([full ^ (((1 << s) - 1) << len(adj))] * s)
    return adj


def blow_up(g: Graph, t: int) -> Graph:
    """Replace each vertex with ``t`` independent clones; each edge becomes a
    complete bipartite join between the two clone sets."""
    if t < 1:
        raise PreconditionError("blow-up factor must be >= 1")
    require_order(t * g.n)
    block = (1 << t) - 1
    adj = []
    for x in range(g.n):
        mask = 0
        for y in iter_bits(g.adj[x]):
            mask |= block << (y * t)
        adj.extend([mask] * t)
    return Graph(t * g.n, tuple(adj))


def disjoint_union(g: Graph, h: Graph) -> Graph:
    require_order(g.n + h.n)
    adj = list(g.adj) + [m << g.n for m in h.adj]
    return Graph(g.n + h.n, tuple(adj))


def complement(g: Graph) -> Graph:
    full = g.vertex_mask
    return Graph(g.n, tuple(full ^ m ^ (1 << v) for v, m in enumerate(g.adj)))


def induced_subgraph(g: Graph, vertices: Iterable[int]) -> Graph:
    """Subgraph induced on ``vertices``, relabeled 0.. in ascending order."""
    verts = sorted(set(vertices))
    for v in verts:
        if not 0 <= v < g.n:
            raise ValueError(f"vertex {v} out of range")
    index = {v: i for i, v in enumerate(verts)}
    adj = [0] * len(verts)
    for v in verts:
        for u in iter_bits(g.adj[v]):
            if u in index:
                adj[index[v]] |= 1 << index[u]
    return Graph(len(verts), tuple(adj))


def components(g: Graph) -> list[int]:
    """Vertex masks of the connected components, ordered by least vertex."""
    adj = g.adj
    out = []
    rest = g.vertex_mask
    while rest:
        comp = frontier = rest & -rest
        while frontier:
            nxt = 0
            while frontier:
                low = frontier & -frontier
                nxt |= adj[low.bit_length() - 1]
                frontier ^= low
            frontier = nxt & ~comp
            comp |= nxt
        out.append(comp)
        rest &= ~comp
    return out


def relabel(g: Graph, perm: Sequence[int]) -> Graph:
    """Apply the vertex bijection ``v -> perm[v]``: the rows of P A P^T."""
    n = g.n
    if sorted(perm) != list(range(n)):
        raise ValueError("perm is not a permutation of the vertex set")
    # new vertex i is old vertex moved[i]; moving the rows of A and taking
    # the transpose gives A P^T, whose rows, moved too, are P A P^T
    moved = sorted(range(n), key=perm.__getitem__)
    w = _stride(n)
    cols = _unpack(_transpose(_pack([g.adj[v] for v in moved], w), w), n, w)
    return Graph._of_valid_rows(n, tuple([cols[v] for v in moved]))


# ---------------------------------------------------------------------------
# degree utilities


def min_ore_degree_sum(g: Graph) -> int | float:
    """Minimum of d(x)+d(y) over non-adjacent pairs x != y.

    Returns ``math.inf`` when no such pair exists (complete or tiny graph),
    in which case any degree-sum condition holds vacuously.

    The vertices are taken by rising degree. Each u pairs best with its
    first non-neighbour v later in that order, and the scan for v stops
    once d(u) + d(v) cannot beat the best sum so far; the outer scan stops
    once 2 d(u) cannot, as every later vertex has at least u's degree.
    """
    degs = g.degrees()
    order = sorted(range(g.n), key=degs.__getitem__)
    best: int | float = math.inf
    later = g.vertex_mask
    for i, u in enumerate(order):
        du = degs[u]
        if 2 * du >= best:
            break
        later ^= 1 << u
        if not later & ~g.adj[u]:
            continue
        for v in order[i + 1:]:
            s = du + degs[v]
            if s >= best:
                break
            if not g.adj[u] >> v & 1:
                best = s
                break
    return best


def average_degree(g: Graph) -> Fraction:
    if g.n == 0:
        raise PreconditionError("average degree of the empty graph is undefined")
    return Fraction(2 * g.edge_count(), g.n)


# ---------------------------------------------------------------------------
# graph6 codec
#
# Encoding: the order n in one byte (n + 63) for n <= 62, else '~' followed
# by three bytes carrying n as an 18-bit big-endian value in 6-bit groups;
# then the upper triangle in column-major order (x01, x02, x12, x03, ...)
# packed big-endian into 6-bit groups, each offset by 63, zero-padded.

_G6_HEADER = ">>graph6<<"
_ASCII_SPACE = " \t\n\r\v\f"
# the word breaks of a stripped edge-list line
_ASCII_SPACES = re.compile(f"[{_ASCII_SPACE}]+")
_G6_CHARS = bytes(range(63, 127))
# graph6 is base64 over another alphabet: each character carries six bits
_BASE64_CHARS = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"
_G6_TO_BASE64 = bytes.maketrans(_G6_CHARS, _BASE64_CHARS)
_BASE64_TO_G6 = bytes.maketrans(_BASE64_CHARS, _G6_CHARS)


def _reversed_bytes() -> bytes:
    """Each byte with its bits in reverse order. The bytes below 2^(k+1)
    are those below 2^k and then the same with bit k set, which reverses
    to bit 7 - k."""
    table = [0]
    for k in range(8):
        table += [r | 0x80 >> k for r in table]
    return bytes(table)


_REVERSED_BYTE = _reversed_bytes()


def to_graph6(g: Graph) -> str:
    n = g.n
    if n <= 62:
        head = chr(n + 63)
    else:
        head = "~" + "".join(chr((n >> shift & 63) + 63) for shift in (12, 6, 0))
    # the reader's steps backwards: x_{ij} (i < j), bit i of row j, is bit
    # j(j-1)/2 + i of one int, whose bytes, each reversed, encode as base64
    bits = start = 0
    for j, row in enumerate(g.adj):
        bits |= (row & ((1 << j) - 1)) << start
        start += j
    need = (n * (n - 1) // 2 + 5) // 6
    data = bits.to_bytes((need + 3) // 4 * 3, "little").translate(_REVERSED_BYTE)
    return head + binascii.b2a_base64(data, newline=False).translate(_BASE64_TO_G6)[:need].decode()


def parse_graph6(text: str) -> Graph:
    # str.strip() would also drop the separators \x1c-\x1f and non-ASCII
    # spaces, which are outside graph6's range
    s = text.strip(_ASCII_SPACE)
    if s.startswith(_G6_HEADER):
        s = s[len(_G6_HEADER):].strip(_ASCII_SPACE)
    if not s:
        raise GraphFormatError("empty graph6 input")
    if not s.isascii() or s.encode().translate(None, _G6_CHARS):
        ch = next(ch for ch in s if not "?" <= ch <= "~")
        raise GraphFormatError(f"character {ch!r} outside graph6 range")
    if s[0] != "~":
        n = ord(s[0]) - 63
        body = s[1:]
    else:
        if len(s) >= 2 and s[1] == "~":
            raise GraphFormatError("8-byte order field implies n >= 258048")
        if len(s) < 4:
            raise GraphFormatError("truncated 4-byte order field")
        n = ((ord(s[1]) - 63) << 12) | ((ord(s[2]) - 63) << 6) | (ord(s[3]) - 63)
        if n < 63:
            raise GraphFormatError("non-canonical 4-byte order field")
        body = s[4:]
    if n > MAX_VERTICES:
        raise GraphFormatError(f"order {n} exceeds supported maximum {MAX_VERTICES}")
    total_bits = n * (n - 1) // 2
    need = (total_bits + 5) // 6
    if len(body) != need:
        raise GraphFormatError(
            f"body length {len(body)} does not match order {n} (expected {need})"
        )
    # with the bits of each decoded byte reversed, bit p of the int is bit
    # p of the body: x_{ij} (i < j) is bit j(j-1)/2 + i
    data = body.encode().translate(_G6_TO_BASE64) + b"A" * (-need % 4)
    bits = int.from_bytes(binascii.a2b_base64(data).translate(_REVERSED_BYTE), "little")
    if bits >> total_bits:
        raise GraphFormatError("nonzero padding bits")
    # column j of the upper triangle is row j below the diagonal, and the
    # transpose gives each row above it
    size, cut, below, w = _lower_plan(n)
    shifted = b"".join([(bits >> r).to_bytes(size, "little") for r in range(8)])
    lower = int.from_bytes(b"".join(cut(shifted)), "little") & below
    return Graph._of_valid_rows(n, _unpack(lower | _transpose(lower, w), n, w))


# bounded, so memory stays flat: a plan at n = 128 holds about 18 KB, and
# 16 plans take in every order that perfbench's pack-find reads
@lru_cache(maxsize=16)
def _lower_plan(n: int):
    """How ``parse_graph6`` cuts the rows below the diagonal out of the
    body at order n: a byte count ``size``, a cut, the mask ``below`` and
    the stride w. Row j below the diagonal is the j bits of the body from
    bit t = j(j-1)/2 on. The body shifted right by r = 0..7 bits, ``size``
    bytes each, is one buffer, so row j starts a byte of it: byte t // 8
    of the copy shifted by t % 8. Each copy has w bits to spare, so a row
    never runs out of its copy. ``cut`` takes w / 8 bytes there for each
    row, in order, so the rows come out at the bit-matrix stride, each
    with the first bits of the rows after it above its own; ``below``,
    the bits under the diagonal, clears those."""
    w = _stride(n)
    size = (n * (n - 1) // 2 + w) // 8 + 1
    rows = []
    for j in range(n):
        t = j * (j - 1) // 2
        start = (t & 7) * size + (t >> 3)
        rows.append(slice(start, start + w // 8))
    # itemgetter gives a tuple for two keys or more; below order 2 every
    # row is empty
    cut = itemgetter(*rows) if n > 1 else lambda shifted: ()
    return size, cut, _pack([(1 << j) - 1 for j in range(n)], w), w


# ---------------------------------------------------------------------------
# edge-list codec


def to_edge_list(g: Graph) -> str:
    lines = [f"{g.n} {g.edge_count()}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


def _content_lines(text: str) -> list[str]:
    """The lines of ``text`` with '#' comments cut off, stripped of ASCII
    whitespace, blanks dropped. Lines end at "\n" alone: ``str.splitlines``
    and ``str.strip`` would also take the separators \x1c-\x1f for line
    breaks and spaces."""
    lines = (raw.split("#", 1)[0].strip(_ASCII_SPACE) for raw in text.split("\n"))
    return [line for line in lines if line]


def _int_pair(line: str, what: str) -> tuple[int, int]:
    """The two integers of an "a b" line; anything else is a GraphFormatError."""
    try:
        a, b = map(int, _ASCII_SPACES.split(line))
    except ValueError:
        raise GraphFormatError(f"bad {what} {line!r}, expected two integers") from None
    return a, b


def parse_edge_list(text: str) -> Graph:
    rows = _content_lines(text)
    if not rows:
        raise GraphFormatError("empty edge-list input")
    return _edge_list(rows, _int_pair(rows[0], "header"))


def _edge_list(rows: list[str], header: tuple[int, int]) -> Graph:
    """The graph of the edge-list content lines ``rows``, whose first line
    reads as the pair ``header``."""
    n, m = header
    if n < 0 or m < 0:
        raise GraphFormatError("negative counts in header")
    if n > MAX_VERTICES:
        raise GraphFormatError(f"order {n} exceeds supported maximum {MAX_VERTICES}")
    if len(rows) - 1 != m:
        raise GraphFormatError(f"header declares {m} edges, found {len(rows) - 1}")
    edges = [_int_pair(row, "edge line") for row in rows[1:]]
    # duplicates are tolerated in hand-authored fixtures; from_edges dedups
    try:
        return Graph.from_edges(n, edges)
    except ValueError as exc:  # an edge out of range, or a loop
        raise GraphFormatError(str(exc)) from None


def parse_graph_text(text: str) -> Graph:
    """Auto-detect the format: an edge list starts with an 'n m' integer
    header (after comment stripping); anything else is treated as graph6.
    A graph6 word is one word, so it is told apart without an int parse:
    a text with no ASCII whitespace once stripped is one word, which a '#'
    can only cut shorter, so it goes to ``parse_graph6`` without being
    split into lines. The content lines and the header read here are the
    edge list's."""
    text = text.strip(_ASCII_SPACE)
    if _ASCII_SPACES.search(text) is None:
        return parse_graph6(text)
    rows = _content_lines(text)
    if rows and len(_ASCII_SPACES.split(rows[0])) == 2:
        try:
            header = _int_pair(rows[0], "header")
        except GraphFormatError:
            pass
        else:
            return _edge_list(rows, header)
    return parse_graph6(text)
