"""Toolkit for distance-critical graphs.

A graph is distance critical when deleting any single vertex changes at
least one distance between the remaining vertices (a finite distance
turning unreachable counts as a change).  Equivalently, every vertex v
has a determining pair: two nonadjacent vertices whose unique common
neighbor is v.  The package provides the graph type and criticality
tests, canonical forms, the standard graph products, the known extremal
constructions, isomorph-free enumeration with census tallies, and a
harness that machine-checks the structural laws on exhaustive small
universes.
"""

from .canon import CanonicalForm, automorphism_orbits, canonical_form
from .clique import max_clique_size
from .constructions import (
    GammaLayout,
    cycle,
    cycle_power,
    embed_host,
    gamma,
    max_degree_extremal,
    regular_extremal,
)
from .criticality import (
    CriticalityReport,
    determining_pairs_of,
    involved_set,
    is_distance_critical,
    is_distance_critical_direct,
    is_distance_critical_pairs,
    is_edge_maximal_critical,
)
from .enumeration import (
    EnumerationTally,
    iter_all_graphs,
    iter_connected,
    run_enumeration,
)
from .graph import (
    MAX_VERTICES,
    UNREACHABLE,
    Graph,
    all_pairs_distances,
    articulation_points,
    disjoint_union,
    girth,
    is_connected,
    is_two_connected,
)
from .graph6 import Graph6Error, decode_graph6, encode_graph6
from .products import ProductKind, product
from .verify import (
    LEMMA_IDS,
    LemmaCheck,
    check_product_lemmas,
    graham_pollak_determinant,
    run_all_lemmas,
    run_lemma,
)

__version__ = "0.1.0"

__all__ = [
    "CanonicalForm",
    "CriticalityReport",
    "EnumerationTally",
    "GammaLayout",
    "Graph",
    "Graph6Error",
    "LEMMA_IDS",
    "LemmaCheck",
    "MAX_VERTICES",
    "ProductKind",
    "UNREACHABLE",
    "all_pairs_distances",
    "articulation_points",
    "automorphism_orbits",
    "canonical_form",
    "check_product_lemmas",
    "cycle",
    "cycle_power",
    "decode_graph6",
    "determining_pairs_of",
    "disjoint_union",
    "embed_host",
    "encode_graph6",
    "gamma",
    "girth",
    "graham_pollak_determinant",
    "involved_set",
    "is_connected",
    "is_distance_critical",
    "is_distance_critical_direct",
    "is_distance_critical_pairs",
    "is_edge_maximal_critical",
    "is_two_connected",
    "iter_all_graphs",
    "iter_connected",
    "max_clique_size",
    "max_degree_extremal",
    "product",
    "regular_extremal",
    "run_all_lemmas",
    "run_enumeration",
    "run_lemma",
]
