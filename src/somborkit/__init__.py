"""Sombor-family graph indices with exhaustive extremal verification.

Core pieces: bitset graphs with graph6 I/O (``graphs``), the four
degree-based indices (``indices``), the extremal families and closed
forms (``families``), the majorization/Karamata oracle
(``majorization``), isomorph-free generation and brute-force search
(``enumeration``), and bound checking (``bounds``).
"""

from .bounds import (
    BoundReport,
    GraphRecord,
    SuiteSummary,
    check_degree_sum_bound,
    check_epsilon_identities,
    check_so_lower_bound,
    check_so_red_lower_bound,
    check_so_red_upper,
    check_so_shifted_upper,
    check_tree_corollary,
    check_zagreb_sandwich,
    run_suite,
)
from .enumeration import (
    AmbiguousMaximumError,
    CanonicalForm,
    ExtremalReport,
    all_graphs,
    canonical_form,
    connected_graphs,
    extremal_search,
)
from .families import (
    complete,
    cycle,
    empty_graph,
    h_graph,
    max_reduced_sombor_value,
    max_sombor_value,
    path,
    star,
    star_plus_isolated,
)
from .graphs import (
    EdgeStats,
    Graph,
    Graph6Error,
    component_count,
    cyclomatic_number,
    degree_sequence,
    delete_vertex,
    edge_stats,
    encode_graph6,
    graph_from_edges,
    is_connected,
    max_degree,
    parse_graph6,
)
from .indices import edge_sum, first_zagreb, reduced_sombor, sombor, sombor_shifted
from .majorization import (
    KaramataReport,
    Relation,
    compare,
    karamata_compare,
    majorizing_degree_sequence,
)

__version__ = "0.1.0"
