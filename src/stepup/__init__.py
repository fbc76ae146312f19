"""Stepping-up construction of a K5(4)-free 4-uniform hypergraph.

The package turns one chain of combinatorial reasoning into executable
pieces: delta sequences of increasing vertex tuples (``delta``), pair
colorings of delta values with good triples, certification, and repair
search (``coloring``), the 4-graph built from the edge rules with an
exhaustive K5(4)-freeness checker and exact independence numbers
(``hypergraph``), and constructive extraction of an edge witness from
any large vertex set via layered local maxima (``witness``).  The
``stepup`` console script fronts all of it.
"""

from .coloring import (
    PairColoring,
    certify_good_property,
    failure_probability_bound,
    find_good_triple,
    greedy_steiner,
    load_coloring,
    paley_coloring,
    sample_coloring,
    save_coloring,
    search_certified_coloring,
    tt_forcing_order,
)
from .delta import (
    check_stepping_properties,
    consecutive_deltas,
    delta,
    delta_sequence,
)
from .hypergraph import (
    EdgeRule,
    EdgeWitness,
    StepUpHypergraph,
    check_k5_free,
    classify_4tuple,
    exact_alpha,
    is_edge,
    is_independent,
)
from .witness import (
    LayerStack,
    MonotoneRun,
    build_layers,
    extract_edge,
    guarantee_threshold,
    load_q,
    random_subset,
    save_q,
    verify_star_property,
)

__version__ = "0.1.0"

__all__ = [
    "PairColoring",
    "certify_good_property",
    "failure_probability_bound",
    "find_good_triple",
    "greedy_steiner",
    "load_coloring",
    "paley_coloring",
    "sample_coloring",
    "save_coloring",
    "search_certified_coloring",
    "tt_forcing_order",
    "check_stepping_properties",
    "consecutive_deltas",
    "delta",
    "delta_sequence",
    "EdgeRule",
    "EdgeWitness",
    "StepUpHypergraph",
    "check_k5_free",
    "classify_4tuple",
    "exact_alpha",
    "is_edge",
    "is_independent",
    "LayerStack",
    "MonotoneRun",
    "build_layers",
    "extract_edge",
    "guarantee_threshold",
    "load_q",
    "random_subset",
    "save_q",
    "verify_star_property",
    "__version__",
]
