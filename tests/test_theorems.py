"""Cycle classification, rank bounds, and the optimality equivalences."""

import itertools
import math

import pytest
from hypothesis import given, settings, strategies as st

from gainrank.combinatorics.matching import matching_number
from gainrank.combinatorics.blocks import cyclomatic_number
from gainrank.errors import SizeLimitError, TheoremViolation
from gainrank.gains import Gain
from gainrank.graphs import GainGraph
from gainrank.combinatorics import cycle_record
from gainrank.theorems import (
    TYPE_TOL,
    CycleType,
    check_rank_bounds,
    check_refined_bounds,
    classify_cycle,
    cycle_inertia,
    deletion_bounds_check,
    graph_rank,
    lower_optimal_structural,
    pendant_reduction_check,
    signed_cycle_rule,
    upper_optimal_structural,
    verify_equivalence,
)
from gainrank.spectral import hermitian_adjacency, inertia
from gainrank.spectral import rank as spectral_rank


def make_cycle_with_gain(l, token):
    edges = [(i, i + 1, "1") for i in range(l - 1)]
    edges.append((0, l - 1, token))
    return GainGraph.build(l, edges)


def closing_token_for(l, t):
    """A gain on the closing edge hitting the requested type.

    The canonical traversal multiplies the closing edge as (l-1) -> 0, so
    the product equals the conjugate of the stored 0 -> (l-1) gain.
    """
    half = (l // 2) % 2 if l % 2 == 0 else ((l - 1) // 2) % 2
    if t is CycleType.EVEN_SINGULAR:
        return "1" if half == 0 else "-1"
    if t is CycleType.EVEN_REGULAR:
        return "i"
    if t is CycleType.ODD_POSITIVE:
        return "1" if half == 0 else "-1"
    if t is CycleType.ODD_NEGATIVE:
        return "-1" if half == 0 else "1"
    return "i"


@pytest.mark.parametrize("l", range(3, 11))
@pytest.mark.parametrize("t", list(CycleType))
def test_classification_and_inertia_across_lengths(l, t):
    if t.is_even != (l % 2 == 0):
        with pytest.raises(ValueError):
            cycle_inertia(l, t)
        return
    g = make_cycle_with_gain(l, closing_token_for(l, t))
    assert classify_cycle(g, tuple(range(l))) is t
    p, m = cycle_inertia(l, t)
    res = inertia(hermitian_adjacency(g))
    assert (res.p_plus, res.n_minus) == (p, m)
    assert p + m + (l - p - m) == l


def test_classification_examples(square, triangle):
    assert classify_cycle(square, (0, 1, 2, 3)) is CycleType.EVEN_SINGULAR
    assert classify_cycle(triangle, (0, 1, 2)) is CycleType.ODD_NEGATIVE
    g = GainGraph.build(3, [(0, 1, "i"), (1, 2, "1"), (2, 0, "1")])
    assert classify_cycle(g, (0, 1, 2)) is CycleType.ODD_IMAGINARY


def test_a_near_imaginary_rational_gain_is_typed_in_integers():
    # 4k = q - 1: the real part is +1.6e-10, below TYPE_TOL but not zero
    g = GainGraph.build(3, [(0, 1, "rot(2500000000/10000000001)"), (1, 2, "1"), (0, 2, "1")])
    assert 0 < cycle_record(g, (0, 1, 2)).real_part <= TYPE_TOL
    assert classify_cycle(g, (0, 1, 2)) is CycleType.ODD_NEGATIVE
    imaginary = GainGraph.build(3, [(0, 1, "rot(1/4)"), (1, 2, "1"), (0, 2, "1")])
    assert classify_cycle(imaginary, (0, 1, 2)) is CycleType.ODD_IMAGINARY


def _type_by_real_part(l, gain):
    """The float rule: |Re| <= TYPE_TOL is imaginary, else the twisted sign."""
    if abs(gain.real) <= TYPE_TOL:
        return CycleType.ODD_IMAGINARY
    twisted = gain.real if ((l - 1) // 2) % 2 == 0 else -gain.real
    return CycleType.ODD_POSITIVE if twisted > 0 else CycleType.ODD_NEGATIVE


@pytest.mark.parametrize("l", [3, 5, 7])
def test_rational_gains_up_to_q_64_keep_their_float_type(l):
    # every |cos(2 pi k/q)| with q <= 64 is 0 or far above TYPE_TOL, so the
    # float rule types these cycles correctly
    for q in range(1, 65):
        for k in (k for k in range(q) if math.gcd(k, q) == 1):
            g = make_cycle_with_gain(l, Gain.from_angle(k, q))
            rec = cycle_record(g, tuple(range(l)))
            assert classify_cycle(g, rec) is _type_by_real_part(l, rec.gain), (l, k, q)


def test_classification_orientation_invariant():
    g = make_cycle_with_gain(5, "i")
    fwd = classify_cycle(g, (0, 1, 2, 3, 4))
    bwd = classify_cycle(g, (0, 4, 3, 2, 1))
    assert fwd is bwd is CycleType.ODD_IMAGINARY


def test_cycle_inertia_validation():
    with pytest.raises(ValueError):
        cycle_inertia(2, CycleType.EVEN_SINGULAR)
    with pytest.raises(ValueError):
        cycle_inertia(4, CycleType.ODD_POSITIVE)
    assert cycle_inertia(4, CycleType.EVEN_SINGULAR) == (1, 1)
    assert cycle_inertia(5, CycleType.ODD_POSITIVE) == (3, 2)
    assert cycle_inertia(3, CycleType.ODD_IMAGINARY) == (1, 1)


def test_basic_bounds_on_square(square):
    rep = check_rank_bounds(square)
    assert (rep.rank, rep.m, rep.c) == (2, 2, 1)
    assert (rep.lower_basic, rep.upper_basic) == (2, 5)
    assert rep.holds_basic


def test_refined_bounds_on_double_squares(double_squares):
    rep = check_refined_bounds(double_squares)
    assert (rep.rank, rep.m, rep.c, rep.b) == (6, 3, 2, 0)
    assert rep.acyclic_deletion_value == 3
    assert (rep.lower_basic, rep.upper_basic) == (2, 8)
    assert (rep.lower_refined, rep.upper_refined) == (6, 6)
    assert rep.holds_basic and rep.holds_refined


def test_square_is_lower_optimal(square):
    v = verify_equivalence(square)
    assert v.spectral_lower and not v.spectral_upper
    assert v.structural_lower.holds and not v.structural_upper.holds
    assert v.consistent
    assert v.rank == 2


def test_triangle_is_upper_optimal(triangle):
    v = verify_equivalence(triangle)
    assert v.spectral_upper and not v.spectral_lower
    assert v.structural_upper.holds and not v.structural_lower.holds
    assert v.consistent
    assert v.rank == 3


def test_structural_failure_diagnostics(double_squares):
    rep = lower_optimal_structural(double_squares)
    # two singular squares through one vertex: disjointness is what fails
    assert not rep.holds
    assert rep.first_failure == "disjoint"
    assert rep.witness is not None and 0 in rep.witness
    up = upper_optimal_structural(double_squares)
    assert not up.holds and up.first_failure == "disjoint"


def test_structural_type_failure(triangle):
    rep = lower_optimal_structural(triangle)
    assert not rep.holds
    assert rep.first_failure == "types"
    assert rep.cycles_disjoint and rep.types_ok is False


def test_structural_matching_failure():
    # singular square with one pendant: conditions (i) and (ii) hold,
    # the matching comparison is what breaks
    g = GainGraph.build(5, [(0, 1, "1"), (1, 2, "1"), (2, 3, "1"), (3, 0, "1"), (0, 4, "1")])
    rep = lower_optimal_structural(g)
    assert not rep.holds
    assert rep.first_failure == "matching"
    assert rep.cycles_disjoint and rep.types_ok and rep.matching_ok is False


def mixed_small_graphs():
    tokens = ["1", "-1"]
    graphs = []
    shapes = [
        (3, [(0, 1), (1, 2), (2, 0)]),
        (4, [(0, 1), (1, 2), (2, 3), (3, 0)]),
        (5, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4)]),
        (6, [(0, 1), (1, 2), (2, 3), (3, 0), (2, 4), (4, 5)]),
        (6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]),
    ]
    for n, edges in shapes:
        for assignment in itertools.product(tokens, repeat=len(edges)):
            graphs.append(GainGraph.build(n, [(u, v, t) for (u, v), t in zip(edges, assignment)]))
    return graphs


@pytest.mark.parametrize("g", mixed_small_graphs())
def test_equivalence_consistent_on_small_signed(g):
    v = verify_equivalence(g)
    assert v.consistent
    rep = check_rank_bounds(g)
    assert rep.holds_basic
    assert v.rank == rep.rank


def test_signed_rule_values():
    assert signed_cycle_rule(4, 1) and not signed_cycle_rule(4, -1)
    assert signed_cycle_rule(6, -1) and not signed_cycle_rule(6, 1)
    assert signed_cycle_rule(8, 1)
    with pytest.raises(ValueError):
        signed_cycle_rule(5, 1)
    with pytest.raises(ValueError):
        signed_cycle_rule(4, 2)


def test_rank_backend_labels(double_squares):
    r, backend = graph_rank(double_squares)
    assert r == 6
    assert backend in ("exact", "oracle", "numeric")
    g = GainGraph.build(2, [(0, 1, "rot(1/8)")])
    r2, backend2 = graph_rank(g)
    assert r2 == 2


def test_auto_mode_ranks_root_of_unity_gains_exactly():
    from gainrank.generators import GainSetSpec, assign_gains, random_connected_graph

    g = assign_gains(random_connected_graph(20, 6, seed=3), GainSetSpec("roots", q=8, seed=4))
    assert g.is_connected()
    r, backend = graph_rank(g)
    assert backend == "exact"
    assert r == spectral_rank(g, mode="numeric")


def test_auto_mode_goes_numeric_past_the_order_limit():
    # past the prime budget one prime still settles the full-rank triangle
    triangle = GainGraph.build(3, [(0, 1, "rot(1/997)"), (1, 2, "rot(1/991)"), (0, 2, "1")])
    assert graph_rank(triangle) == (3, "exact")
    # the path has rank 2 against 3 non-isolated vertices: no prime settles it
    path = GainGraph.build(3, [(0, 1, "rot(1/997)"), (1, 2, "rot(1/991)")])
    with pytest.raises(SizeLimitError):
        spectral_rank(path, mode="exact")
    assert graph_rank(path) == (spectral_rank(path, mode="numeric"), "numeric") == (2, "numeric")


def test_pendant_reduction(double_squares, square):
    assert pendant_reduction_check(double_squares) is True
    assert pendant_reduction_check(square) is None
    k2 = GainGraph.build(2, [(0, 1, "i")])
    assert pendant_reduction_check(k2) is True


def test_deletion_bounds(double_squares):
    for v in range(double_squares.n):
        assert deletion_bounds_check(double_squares, v)
    with pytest.raises(ValueError):
        deletion_bounds_check(double_squares, 8)
