import hashlib
import itertools
import math
import random
import re
import tracemalloc
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import orepack as op
from orepack import BudgetExhausted, Graph, GraphFormatError, PreconditionError, graphs, packing
from orepack.graphs import Meter

from fixtures import pendant_triangle
from oracles import (
    decode_graph6_by_columns,
    graph6_by_columns,
    graph_error_by_scan,
    ore_sum_by_pairs,
    parse_graph_text_before,
    relabel_edge_by_edge,
)


def random_graph_strategy(max_n=16):
    @st.composite
    def build(draw):
        n = draw(st.integers(min_value=0, max_value=max_n))
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
        return Graph.from_edges(n, edges)

    return build()


# ---------------------------------------------------------------------------
# Graph invariants


def test_rejects_loops_and_asymmetry():
    with pytest.raises(ValueError, match="^loop at vertex 0$"):
        Graph(2, (0b01, 0b00))
    with pytest.raises(ValueError, match="^asymmetric edge 0-1$"):
        Graph(2, (0b10, 0b00))
    with pytest.raises(ValueError, match="^adjacency of vertex 0 mentions vertices >= 1$"):
        Graph(1, (0b10,))
    with pytest.raises(ValueError, match="^loop at vertex 0$"):
        Graph.from_edges(3, [(0, 0)])
    with pytest.raises(ValueError, match="^vertex count 129 outside 0..128$"):
        Graph(129, (0,) * 129)
    # the first edge v-u, by v and then u, whose reverse u-v is missing
    with pytest.raises(ValueError, match="^asymmetric edge 0-2$"):
        Graph(3, (0b110, 0b001, 0b000))
    with pytest.raises(ValueError, match="^asymmetric edge 2-0$"):
        Graph(3, (0b000, 0b100, 0b011))


# orders at each edge of the power-of-two row strides of the packed
# adjacency check (8, 16, ..., 128)
STRIDE_EDGES = (0, 1, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 65, 127, 128)


def _adjacency_cases():
    """Seeded (n, adj) pairs of orders 0-128, four of each order in
    STRIDE_EDGES among them: symmetric ones, and ones with one or two bits
    flipped, some of them on the diagonal or past n."""
    rng = random.Random(12)
    for i in range(2000 + 4 * len(STRIDE_EDGES)):
        if i >= 2000:
            n = STRIDE_EDGES[i % len(STRIDE_EDGES)]
        else:
            n = rng.randrange(0, 129) if i % 10 == 0 else rng.randrange(0, 17)
        adj = list(op.random_graph(n, rng.random(), rng).adj)
        for _ in range(rng.choice((0, 1, 1, 2)) if n else 0):
            v, u = rng.randrange(n), rng.randrange(n + (rng.random() < 0.1))
            adj[v] ^= 1 << u
        yield n, tuple(adj)


def test_adjacency_check_matches_edge_by_edge_scan():
    outcomes = Counter()
    for n, adj in _adjacency_cases():
        try:
            Graph(n, adj)
            got = None
        except ValueError as exc:
            got = str(exc)
        expected = graph_error_by_scan(n, adj)
        assert got == expected, (n, adj)
        outcomes[expected.split(" ")[0] if expected else "accepted"] += 1
        if expected is None:
            word = op.to_graph6(Graph(n, adj))
            assert op.parse_graph6(word) == decode_graph6_by_columns(word)
    assert min(outcomes[k] for k in ("accepted", "asymmetric", "loop", "adjacency")) > 20


def test_structural_equality_ignores_labels():
    a = Graph.from_edges(2, [(0, 1)])
    b = Graph.from_edges(2, [(0, 1)], labels=["u", "v"])
    assert a == b and hash(a) == hash(b)


def test_degree_bound():
    g = op.complete_graph(5)
    assert all(g.degree(v) == 4 for v in range(5))
    assert g.edge_count() == 10
    assert repr(op.complete_graph(3)) == "Graph(n=3, edges=3)"


# ---------------------------------------------------------------------------
# graph6


def test_graph6_known_words():
    assert op.to_graph6(op.complete_graph(2)) == "A_"
    assert op.to_graph6(op.empty_graph(2)) == "A?"
    assert op.to_graph6(op.empty_graph(0)) == "?"
    assert op.parse_graph6("A_") == op.complete_graph(2)
    assert op.parse_graph6("A?") == op.empty_graph(2)
    assert op.parse_graph6("?") == op.empty_graph(0)


def test_graph6_errors():
    cases = [
        ("", "empty graph6 input"),
        ("A@", "nonzero padding bits"),
        ("A", "body length 0 does not match order 2 (expected 1)"),  # truncated body
        ("A_X", "body length 2 does not match order 2 (expected 1)"),  # trailing data
        ("~~????", "8-byte order field implies n >= 258048"),
        # only ASCII whitespace is stripped: separators and non-ASCII
        # spaces are characters outside the range
        ("a\x1f", "character '\\x1f' outside graph6 range"),
        ("A_\x1f", "character '\\x1f' outside graph6 range"),
        ("A_\xa0", "character '\\xa0' outside graph6 range"),
        ("\u2003A_", "character '\\u2003' outside graph6 range"),
        (">>graph6<<\x1cA_", "character '\\x1c' outside graph6 range"),
        ("A>", "character '>' outside graph6 range"),  # just below '?'
        ("A_\x7f", "character '\\x7f' outside graph6 range"),  # DEL, just above '~'
        ("A\u00e9", "character '\u00e9' outside graph6 range"),  # not ASCII
        ("B\x7f\u00e9?", "character '\\x7f' outside graph6 range"),  # the first one found
        ("~??", "truncated 4-byte order field"),
        ("~??@", "non-canonical 4-byte order field"),  # order 1 in 4-byte form
        # order 200 > 128 in 4-byte form: chr(63+0) chr(63+3) chr(63+8)
        ("~?" + chr(63 + 3) + chr(63 + 8), "order 200 exceeds supported maximum 128"),
    ]
    for text, message in cases:
        with pytest.raises(GraphFormatError) as info:
            op.parse_graph6(text)
        assert str(info.value) == message, text


def test_graphs_built_without_the_check_pass_it():
    # parse_graph6, relabel and random_graph build rows that are valid by
    # construction and skip Graph's check; the public constructor, which
    # runs it, accepts each of them as the same graph
    rng = random.Random(19)
    orders = [*range(10), 15, 16, 17, 31, 32, 33, 63, 64, 65, 127, 128]
    for n in orders:
        for p in (0.0, 0.3, 1.0):
            built = (
                op.random_graph(n, p, rng),
                op.parse_graph6(op.to_graph6(op.random_graph(n, p, rng))),
                op.relabel(op.random_graph(n, p, rng), rng.sample(range(n), n)),
            )
            for g in built:
                checked = Graph(g.n, g.adj)
                assert checked == g and hash(checked) == hash(g)
                assert type(g.adj) is tuple and g.labels is None


def test_graph6_optional_header():
    assert op.parse_graph6(">>graph6<<A_") == op.complete_graph(2)


@settings(max_examples=200, deadline=None)
@given(random_graph_strategy())
def test_graph6_round_trip(g):
    assert op.parse_graph6(op.to_graph6(g)) == g


def test_graph6_round_trip_large_orders():
    rng = random.Random(7)
    for n in STRIDE_EDGES + (100,):
        for p in (0.0, 0.3, 1.0):
            g = op.random_graph(n, p, rng)
            assert op.parse_graph6(op.to_graph6(g)) == g


def test_writer_and_relabel_match_the_edge_by_edge_oracles():
    # every order 0-128 covers each residue of n(n-1)/2 mod 6 (the padding
    # of the last character) and both order fields, 62 and 63 straddling
    # them; p = 0 and 1 draw the empty and the complete graph. The reader,
    # which cuts rows by one plan per order, matches a per-bit decoder, and
    # rejects a set padding bit at every order that has padding
    rng = random.Random(30)
    for n in range(129):
        for p in (0.0, 0.1, 0.5, 0.9, 1.0):
            g = op.random_graph(n, p, rng)
            word = op.to_graph6(g)
            assert word == graph6_by_columns(g), (n, p)
            assert len(word) == (n * (n - 1) // 2 + 5) // 6 + (1 if n <= 62 else 4)
            assert op.parse_graph6(word) == decode_graph6_by_columns(word) == g, (n, p)
            for perm in (list(range(n)), list(range(n - 1, -1, -1)), rng.sample(range(n), n)):
                assert op.relabel(g, perm).adj == relabel_edge_by_edge(g, perm).adj, (n, p, perm)
        pad = -(n * (n - 1) // 2) % 6
        for bit in {1, 1 << pad >> 1} if pad else ():
            with pytest.raises(GraphFormatError, match="^nonzero padding bits$"):
                op.parse_graph6(word[:-1] + chr((ord(word[-1]) - 63 | bit) + 63))


def test_graph6_reader_memory_stays_flat():
    # the reader keeps one plan per order in a bounded cache; a read at
    # n = 128 that builds its plan, and one that finds it, stay small
    assert graphs._lower_plan.cache_info().maxsize is not None
    word = op.to_graph6(op.random_graph(128, 0.5, random.Random(1)))
    graphs._lower_plan.cache_clear()
    for _ in range(2):
        tracemalloc.start()
        try:
            op.parse_graph6(word)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 256 * 1024


def test_graph6_matches_reference_implementation():
    nx = pytest.importorskip("networkx")
    rng = random.Random(2024)
    small = (rng.randrange(0, 24) for _ in range(300))
    # 62 and 63 straddle the 1-byte and 4-byte order fields
    for n in itertools.chain(small, [62, 63, 64, 100, 127, 128]):
        g = op.random_graph(n, rng.random(), rng)
        G = nx.Graph()
        G.add_nodes_from(range(n))
        G.add_edges_from(g.edges())
        ref = nx.to_graph6_bytes(G, header=False).decode().strip()
        assert op.to_graph6(g) == ref
        assert op.parse_graph6(ref) == g


# ---------------------------------------------------------------------------
# edge-list format


def test_edge_list_round_trip():
    g = op.cycle_graph(5)
    assert op.parse_edge_list(op.to_edge_list(g)) == g


def test_edge_list_comments_and_duplicates():
    text = "# fixture\n3 3\n0 1\n0 1  # dup is fine\n1 2\n"
    g = op.parse_edge_list(text)
    assert g.edge_count() == 2
    assert g.has_edge(0, 1) and g.has_edge(1, 2)


def test_edge_list_errors():
    with pytest.raises(GraphFormatError):
        op.parse_edge_list("")
    with pytest.raises(GraphFormatError):
        op.parse_edge_list("2\n")
    with pytest.raises(GraphFormatError):
        op.parse_edge_list("2 2\n0 1\n")  # missing edge line
    with pytest.raises(GraphFormatError):
        op.parse_edge_list("2 1\n0 2\n")  # out of range
    with pytest.raises(GraphFormatError):
        op.parse_edge_list("2 1\n1 1\n")  # loop


def test_parse_graph_text_autodetect():
    assert op.parse_graph_text("A_") == op.complete_graph(2)
    assert op.parse_graph_text("2 1\n0 1\n") == op.complete_graph(2)
    assert op.parse_graph_text("# c\n\n3 1\n0 2\n") == Graph.from_edges(3, [(0, 2)])
    assert op.parse_graph_text("2 1\r\n0\t1 \r\n") == op.complete_graph(2)


def test_edge_list_separators_are_not_whitespace():
    # lines end at "\n" alone and words part at ASCII whitespace alone; the
    # separators \x1c-\x1f are neither
    for text in ("2 1\n0 1\x1f\n", "2 1\n0 1\x1c5 7\n", "2 1\n0\x1e1\n", "2\x1d1\n0 1\n"):
        with pytest.raises(GraphFormatError):
            op.parse_graph_text(text)
        with pytest.raises(GraphFormatError):
            op.parse_edge_list(text)


def _reader_corpus():
    """Seeded graph6 and edge-list texts of graphs on 0-128 vertices, some
    with comments, a header or duplicate edges, each followed by two
    copies with one character inserted."""
    rng = random.Random(11)
    texts = []
    for i in range(600):
        n = rng.randrange(13, 129) if i % 20 == 0 else rng.randrange(0, 13)
        g = op.random_graph(n, rng.random() * (1 if n < 13 else 0.1), rng)
        edges = op.to_edge_list(g)
        if rng.random() < 0.3 and g.edge_count():
            first = edges.split("\n")[1]
            edges = edges.replace(f"{g.n} {g.edge_count()}", f"{g.n} {g.edge_count() + 1}", 1)
            edges = f"# fixture\n{edges}{first}  # dup\n"
        g6 = op.to_graph6(g)
        if rng.random() < 0.2:
            g6 = ">>graph6<<" + g6 + "\n"
        for text in (g6, edges):
            texts.append(text)
            for _ in range(2):
                at = rng.randrange(len(text) + 1)
                texts.append(text[:at] + rng.choice("0123456789 \n\t#-+_?@~ABz>{\x7f") + text[at:])
    return texts


def _outcome(read, text):
    try:
        return op.to_graph6(read(text))
    except Exception as exc:
        return type(exc).__name__


# sha256 over what each reader made of every corpus text (the graph6 of
# the accepted graph, or the exception class), taken from the readers
# that kept their own comment, header, range and loop rules
READER_DIGEST = "7ab8b8a939c443f225b22d9a94db79683625dff164ce631a0dbd0f8aa51a544d"


def test_readers_match_pinned_digest():
    digest = hashlib.sha256()
    accepted = 0
    for text in _reader_corpus():
        outcomes = [_outcome(read, text) for read in
                    (op.parse_graph_text, op.parse_edge_list, op.parse_graph6)]
        accepted += outcomes[0] != "GraphFormatError"
        digest.update((repr(text) + " ".join(outcomes) + "\n").encode())
    assert accepted > 1000
    assert digest.hexdigest() == READER_DIGEST


def _parsed(read, text):
    try:
        return op.to_graph6(read(text))
    except GraphFormatError as exc:
        return f"GraphFormatError: {exc}"


# one-word texts with a header, a comment, separators or padding, and
# multi-word texts whose first word is a graph6 word or a comment
ONE_WORD_CASES = (
    "", " \n\t", "A_", " A_\n", ">>graph6<<A_", ">>graph6<<\nA_\n", ">>graph6<<",
    "A_#x", "#A_", "A_#", "# c", "#\n", "2#1", "A_\x1c", "\x1cA_", "A\x1c_", "A_\x1f\n",
    "\x1c", "A_\r\n", "\rA_\r", "\vA_\f", "A_ #c", "A_\nA_", "# c\nA_\n", "# a b\n",
    "A_ x", "~??", "2 1", "2 1#x\n0 1", "2 1\n0 1\n", "3 0", "3\x1c0",
)


def test_parse_graph_text_matches_the_line_by_line_detection():
    # the same graph or the same message as the detection that split every
    # text into lines, on texts of one word and on the reader corpus
    texts = list(ONE_WORD_CASES) + _reader_corpus()
    one_word = 0
    for text in texts:
        assert _parsed(op.parse_graph_text, text) == _parsed(parse_graph_text_before, text), repr(text)
        one_word += re.search("[ \t\n\r\v\f]", text.strip(" \t\n\r\v\f")) is None
    assert one_word > 500


# ---------------------------------------------------------------------------
# generators


def test_complete_multipartite_shapes():
    k3, part = op.complete_multipartite([1, 1, 1])
    assert k3 == op.complete_graph(3)
    assert tuple(map(len, part)) == (1, 1, 1)
    k222, part2 = op.complete_multipartite([2, 2, 2])
    assert k222.edge_count() == 12
    assert tuple(map(len, part2)) == (2, 2, 2)
    assert part2 == (range(0, 2), range(2, 4), range(4, 6))
    with pytest.raises(PreconditionError):
        op.complete_multipartite([2, 0, 2])
    with pytest.raises(PreconditionError):
        op.complete_multipartite([])


@given(st.lists(st.integers(min_value=1, max_value=6), min_size=1, max_size=5))
@settings(max_examples=100, deadline=None)
def test_complete_multipartite_edge_count(sizes):
    g, _ = op.complete_multipartite(sizes)
    expected = sum(
        sizes[i] * sizes[j]
        for i in range(len(sizes))
        for j in range(i + 1, len(sizes))
    )
    assert g.edge_count() == expected


def test_blow_up_small_cases():
    assert op.blow_up(op.complete_graph(2), 2) == op.complete_multipartite([2, 2])[0]
    assert op.blow_up(op.complete_graph(3), 2) == op.complete_multipartite([2, 2, 2])[0]
    g = op.cycle_graph(5)
    assert op.blow_up(g, 1) == g
    with pytest.raises(PreconditionError):
        op.blow_up(op.complete_graph(3), 0)
    with pytest.raises(PreconditionError):
        op.blow_up(op.complete_graph(10), 20)


@settings(max_examples=60, deadline=None)
@given(random_graph_strategy(max_n=10), st.integers(min_value=1, max_value=4))
def test_blow_up_degree_law(g, t):
    big = op.blow_up(g, t)
    assert big.n == t * g.n
    for x in range(g.n):
        for a in range(t):
            assert big.degree(x * t + a) == t * g.degree(x)
        # clone sets are independent
        for a in range(t):
            for b in range(a + 1, t):
                assert not big.has_edge(x * t + a, x * t + b)


def test_disjoint_union_and_complement():
    g = op.disjoint_union(op.complete_graph(2), op.complete_graph(3))
    assert g.n == 5 and g.edge_count() == 4
    assert not g.has_edge(0, 2)
    c = op.complement(op.cycle_graph(5))
    assert c.edge_count() == 5
    assert op.complement(c) == op.cycle_graph(5)


def test_induced_subgraph():
    g = op.cycle_graph(6)
    sub = op.induced_subgraph(g, [0, 1, 2])
    assert sub == Graph.from_edges(3, [(0, 1), (1, 2)])
    assert op.induced_subgraph(g, []) == op.empty_graph(0)
    with pytest.raises(ValueError):
        op.induced_subgraph(g, [7])


def test_constructor_and_generator_errors():
    cases = [
        (lambda: Graph(2, (0,)), "adjacency row count does not match vertex count"),
        (lambda: Graph(2, (0, 0), ("a",)), "label count does not match vertex count"),
        (lambda: op.relabel(op.path_graph(3), [0, 0, 1]), "perm is not a permutation of the vertex set"),
        (lambda: op.cycle_graph(2), "cycle needs at least 3 vertices"),
        (lambda: op.path_graph(0), "path needs at least 1 vertex"),
    ]
    for build, message in cases:
        with pytest.raises(ValueError) as info:
            build()
        assert str(info.value) == message


def test_relabel_is_isomorphism():
    g = op.star_graph(3)
    perm = [3, 0, 1, 2]
    rg = op.relabel(g, perm)
    assert rg.degree(3) == 3
    assert sorted(rg.degrees()) == sorted(g.degrees())


# ---------------------------------------------------------------------------
# degree utilities


def test_min_ore_degree_sum_examples():
    assert op.min_ore_degree_sum(op.cycle_graph(4)) == 4
    assert op.min_ore_degree_sum(op.complete_graph(4)) == math.inf
    assert op.min_ore_degree_sum(op.cycle_graph(5)) == 4
    assert op.min_ore_degree_sum(op.empty_graph(1)) == math.inf


def test_min_ore_degree_sum_matches_pair_scan():
    # seeded graphs on 0-40 and 128 vertices at densities from 0 to 1, so
    # complete and edgeless graphs and many tied degrees are among them
    rng = random.Random(16)
    orders = [n for n in range(41) for _ in range(25)] + [128] * 25
    sums = Counter()
    for i, n in enumerate(orders):
        g = op.random_graph(n, (i % 11) / 10, rng)
        if i % 7 == 0:
            # a complete multipartite graph with equal classes: every degree tied
            g = op.blow_up(op.complete_graph(rng.randint(1, 4)), rng.randint(1, 10))
        want = ore_sum_by_pairs(g)
        assert op.min_ore_degree_sum(g) == want, op.to_graph6(g)
        sums["inf" if want == math.inf else "finite"] += 1
    for n in (0, 1, 2, 40, 128):
        assert op.min_ore_degree_sum(op.complete_graph(n)) == math.inf
        assert op.min_ore_degree_sum(op.empty_graph(n)) == (0 if n >= 2 else math.inf)
    assert min(sums.values()) > 50


def test_average_degree_examples():
    assert op.average_degree(op.complete_graph(3)) == 2
    assert op.average_degree(op.cycle_graph(5)) == 2
    assert op.average_degree(op.star_graph(3)) == Fraction(3, 2)
    with pytest.raises(PreconditionError):
        op.average_degree(op.empty_graph(0))


@settings(max_examples=200, deadline=None)
@given(random_graph_strategy(max_n=14))
def test_ore_sum_implies_average_degree(g):
    # degree-sum >= 2k on non-adjacent pairs forces average degree >= k
    if g.n == 0:
        return
    s = op.min_ore_degree_sum(g)
    k = g.n - 1 if s == math.inf else min(g.n - 1, int(s) // 2)
    assert op.average_degree(g) >= k


# ---------------------------------------------------------------------------
# the search meter


def test_meter_bulk_spend_up_to_the_limit():
    # steps spent at once count as that many single steps: a total that
    # lands on the limit passes, and one step past it raises, with the
    # message of a single step
    message = "^the search took more than 10 steps; raise the limit to finish it$"
    meter = Meter(10)
    meter.spend(4)
    meter.spend()
    meter.spend(5)
    assert meter.nodes == 10
    with pytest.raises(BudgetExhausted, match=message):
        meter.spend()
    meter = Meter(10)
    meter.spend(3)
    with pytest.raises(BudgetExhausted, match=message):
        meter.spend(8)
    unlimited = Meter()
    unlimited.spend(10**12)
    assert unlimited.nodes == 10**12


def test_type_cap_bounds_each_component_counted_in_bulk():
    # a triangle with k pendant leaves has 2^k colourings with 3 classes,
    # counted in bulk from the one coloring of the triangle: two
    # components of 512 answer under the cap of 1,000, one of 1,024 does
    # not
    assert packing.TYPE_ENUMERATION_CAP == 1_000
    h = op.disjoint_union(pendant_triangle(9), pendant_triangle(9))
    assert packing._types_refute([24, 24, 24], h, Meter()) is False
    assert packing._types_refute([2, 2, 68], h, Meter()) is True
    with pytest.raises(BudgetExhausted, match="more than 1000 steps"):
        packing._types_refute([13, 13, 13], pendant_triangle(10), Meter())
