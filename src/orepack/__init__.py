"""Exact combinatorial toolkit for perfect H-packings under Ore-type
degree-sum conditions: parameter computation, packing/covering decision
search, extremal constructions, and randomized theorem probes."""

from .graphs import (
    BudgetExhausted,
    Graph,
    GraphFormatError,
    MAX_VERTICES,
    PreconditionError,
    average_degree,
    blow_up,
    complement,
    complete_graph,
    complete_multipartite,
    cycle_graph,
    disjoint_union,
    empty_graph,
    induced_subgraph,
    min_ore_degree_sum,
    parse_edge_list,
    parse_graph6,
    parse_graph_text,
    path_graph,
    relabel,
    star_graph,
    to_edge_list,
    to_graph6,
)
from .coloring import (
    ColoringPartition,
    chromatic_number,
    class_size_profiles,
    optimal_colorings,
)
from .parameters import (
    ExtendedNat,
    ParameterReport,
    chi_prime_ore,
    colour_extension_number,
    full_report,
    hcf_c,
)
from .packing import (
    CoverSearchResult,
    Embedding,
    PackingResult,
    Verdict,
    copy_covering_vertex,
    enumerate_copies,
    has_perfect_packing,
    is_copy,
    verify_packing,
)
from .extremal import (
    ExtremalInstance,
    VerificationReport,
    construct_fdiamond,
    construct_hdiamond,
    construct_prop1,
    construct_prop2,
    construct_prop2_padded,
    verify_lower_bound,
)
from .probes import ProbeConfig, ProbeSummary, random_graph, run_probe

__version__ = "0.1.0"
