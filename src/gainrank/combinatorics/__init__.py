"""Combinatorial structure: matchings, blocks, cycles, covers, deletions."""
from .blocks import (
    block_decomposition,
    contract_cycles,
    cycle_matching_condition,
    cycle_structure,
    cycles_pairwise_disjoint,
    cyclomatic_number,
)
from .cycles import CYCLE_LIMIT, CycleRecord, canonical_cycle, cycle_record, cycle_records, enumerate_cycles
from .elementary import (
    COEFF_TOL,
    ElementarySubgraph,
    char_coeff_combinatorial,
    char_coeffs_combinatorial,
    elementary_spanning_subgraphs,
    rank_combinatorial,
)
from .matching import (
    is_matching,
    matching_number,
    matching_number_bruteforce,
    maximum_matching,
)
from .transversal import (
    find_cycle,
    is_bipartite,
    max_acyclic_deletion_matching,
    odd_cycle_transversal,
)

__all__ = [
    "CYCLE_LIMIT",
    "COEFF_TOL",
    "CycleRecord",
    "ElementarySubgraph",
    "block_decomposition",
    "canonical_cycle",
    "char_coeff_combinatorial",
    "char_coeffs_combinatorial",
    "contract_cycles",
    "cycle_matching_condition",
    "cycle_record",
    "cycle_records",
    "cycle_structure",
    "cycles_pairwise_disjoint",
    "cyclomatic_number",
    "elementary_spanning_subgraphs",
    "enumerate_cycles",
    "find_cycle",
    "is_bipartite",
    "is_matching",
    "matching_number",
    "matching_number_bruteforce",
    "max_acyclic_deletion_matching",
    "maximum_matching",
    "odd_cycle_transversal",
    "rank_combinatorial",
]
