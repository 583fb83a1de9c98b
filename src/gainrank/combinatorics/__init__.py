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
from .elementary import COEFF_TOL, char_coeffs_combinatorial, rank_combinatorial
from .matching import matching_number, maximum_matching
from .transversal import max_acyclic_deletion_matching, odd_cycle_transversal

__all__ = [
    "CYCLE_LIMIT",
    "COEFF_TOL",
    "CycleRecord",
    "block_decomposition",
    "canonical_cycle",
    "char_coeffs_combinatorial",
    "contract_cycles",
    "cycle_matching_condition",
    "cycle_record",
    "cycle_records",
    "cycle_structure",
    "cycles_pairwise_disjoint",
    "cyclomatic_number",
    "enumerate_cycles",
    "matching_number",
    "max_acyclic_deletion_matching",
    "maximum_matching",
    "odd_cycle_transversal",
    "rank_combinatorial",
]
