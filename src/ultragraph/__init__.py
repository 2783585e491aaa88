"""Finite metric spaces over exact rational arithmetic.

Builds diametrical and threshold graphs of finite distance matrices,
decides ultrametricity through complete-multipartite structure, and
provides the standard constructions (graph metrics, p-adic residue
spaces, bounded/unbounded rescalings, weak similarity search).
"""

from .errors import InternalInvariantError, ParseError, SearchBudgetExceeded
from .rationals import as_rational, format_rational, parse_rational
from .spaces import (
    BallFamily,
    FiniteSpace,
    SpaceClass,
    Violation,
    ball_family,
    check_ball_coincidence,
    classify,
    diameter,
    distance_set,
    open_ball,
    require_valid,
    validate,
)
from .graphs import (
    Partition,
    SimpleGraph,
    complement,
    connected_components,
    graph_metric,
    is_classical_diametrical,
    multipartite_parts,
)
from .diametrical import (
    SweepReport,
    ThresholdEntry,
    diametrical_graph,
    gap_condition,
    sweep,
    threshold_graph,
    verify_parts_are_balls,
)
from .constructions import (
    bound_transform,
    counterexample_metric,
    metric_from_graph,
    padic_space,
    random_ultrametric,
    safe_graph_predicate,
    space_from_distance_chain,
    truncate,
    unbound_transform,
)
from .similarity import (
    WeakSimilarity,
    find_weak_similarity,
    is_isometric,
    verify_class_preservation,
)
from .serialization import (
    emit_graph,
    emit_space,
    load_graph,
    load_space,
    parse_graph,
    parse_space,
    to_dot,
)

__version__ = "0.1.0"

__all__ = [
    "BallFamily",
    "FiniteSpace",
    "InternalInvariantError",
    "ParseError",
    "Partition",
    "SearchBudgetExceeded",
    "SimpleGraph",
    "SpaceClass",
    "SweepReport",
    "ThresholdEntry",
    "Violation",
    "WeakSimilarity",
    "as_rational",
    "ball_family",
    "bound_transform",
    "check_ball_coincidence",
    "classify",
    "complement",
    "connected_components",
    "counterexample_metric",
    "diameter",
    "diametrical_graph",
    "distance_set",
    "emit_graph",
    "emit_space",
    "find_weak_similarity",
    "format_rational",
    "gap_condition",
    "graph_metric",
    "is_classical_diametrical",
    "is_isometric",
    "load_graph",
    "load_space",
    "metric_from_graph",
    "multipartite_parts",
    "open_ball",
    "padic_space",
    "parse_graph",
    "parse_rational",
    "parse_space",
    "random_ultrametric",
    "require_valid",
    "safe_graph_predicate",
    "space_from_distance_chain",
    "sweep",
    "threshold_graph",
    "to_dot",
    "truncate",
    "unbound_transform",
    "validate",
    "verify_class_preservation",
    "verify_parts_are_balls",
]
