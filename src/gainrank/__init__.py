"""Rank and inertia of complex unit gain graphs, with certified bounds.

The package computes the Hermitian-adjacency rank, inertia, matching and
cyclomatic numbers of a gain graph, classifies its cycles, checks the proven
two-sided rank bounds, and cross-verifies the structural characterizations of
the graphs attaining either end against independent spectral and
combinatorial computations.
"""

from .analysis import AnalysisReport, analyze, render_text, report_to_dict
from .errors import ParseError, SizeLimitError, TheoremViolation
from .gains import Gain
from .graphs import GainGraph, SimpleGraph, parse_gain_graph, serialize_gain_graph
from .theorems import (
    BoundReport,
    CycleType,
    OptimalityVerdict,
    StructuralReport,
    check_rank_bounds,
    check_refined_bounds,
    classify_cycle,
    cycle_inertia,
    graph_rank,
    lower_optimal_structural,
    upper_optimal_structural,
    verify_equivalence,
)

__version__ = "0.1.0"

__all__ = [
    "AnalysisReport",
    "BoundReport",
    "CycleType",
    "Gain",
    "GainGraph",
    "OptimalityVerdict",
    "ParseError",
    "SimpleGraph",
    "SizeLimitError",
    "StructuralReport",
    "TheoremViolation",
    "analyze",
    "check_rank_bounds",
    "check_refined_bounds",
    "classify_cycle",
    "cycle_inertia",
    "graph_rank",
    "lower_optimal_structural",
    "parse_gain_graph",
    "render_text",
    "report_to_dict",
    "serialize_gain_graph",
    "upper_optimal_structural",
    "verify_equivalence",
    "__version__",
]
