"""Exact model counting over compiled d-DNNF circuits.

Parse a circuit in c2d or d4 format, preprocess it once, then answer any
number of counting queries (total, per feature, partial configuration) in
time linear in the circuit size or better.
"""

from .core import (
    Assumptions,
    Ddnnf,
    ExhaustiveCounter,
    NodeKind,
    Violation,
    brute_force_count,
    validate,
)
from .engine import (
    FULL,
    NAIVE,
    VARIANTS,
    OptimizationConfig,
    QueryResult,
    SessionState,
    count_all_features,
    count_feature,
    count_total,
    link_readers,
    mark_ancestors,
    query,
)
from .parsing import detect_format, parse_c2d, parse_d4, parse_text, write_c2d
from .preprocess import (
    compute_baseline,
    compute_core_dead,
    index_literals,
    link_parents,
    preprocess,
    prune,
    smooth,
)

__version__ = "0.1.0"

__all__ = [
    "Assumptions",
    "Ddnnf",
    "ExhaustiveCounter",
    "NodeKind",
    "OptimizationConfig",
    "QueryResult",
    "SessionState",
    "Violation",
    "FULL",
    "NAIVE",
    "VARIANTS",
    "brute_force_count",
    "compute_baseline",
    "compute_core_dead",
    "count_all_features",
    "count_feature",
    "count_total",
    "detect_format",
    "index_literals",
    "link_parents",
    "link_readers",
    "mark_ancestors",
    "parse_c2d",
    "parse_d4",
    "parse_text",
    "preprocess",
    "prune",
    "query",
    "smooth",
    "validate",
    "write_c2d",
]
