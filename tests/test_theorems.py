"""Cycle classification, rank bounds, and the optimality equivalences."""

import itertools
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from gainrank.combinatorics.matching import matching_number
from gainrank.combinatorics.blocks import cyclomatic_number
from gainrank.errors import SizeLimitError, TheoremViolation
from gainrank.gains import Gain
from gainrank.graphs import GainGraph, serialize_gain_graph
from gainrank.combinatorics import cycle_record
from gainrank.theorems import (
    TYPE_TOL,
    CycleType,
    check_rank_bounds,
    check_refined_bounds,
    classify_cycle,
    component_facts,
    cycle_inertia,
    deletion_bounds_check,
    graph_rank,
    lower_optimal_structural,
    pendant_reduction_check,
    upper_optimal_structural,
    verify_equivalence,
)
from gainrank.spectral import hermitian_adjacency, inertia
from gainrank.spectral import rank as spectral_rank
from twins import signed_cycle_rule


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


def _float_graphs_pendant_pairs_cover(count):
    """Seeded uniform-gain graphs on at most 40 vertices that pendant pairs
    cover: even seeds are random trees with pendant paths hung on them; odd
    seeds hang a path of one or three edges on every vertex of a random
    connected graph with one to four extra edges, so each base vertex is
    paired along its path."""
    from gainrank.generators import GainSetSpec, random_connected_graph

    out = []
    for seed in range(count):
        rng = random.Random(seed)
        spec = GainSetSpec("uniform", seed=seed)
        if seed % 2 == 0:
            base = random_connected_graph(rng.randint(2, 20), 0, seed=seed)
            hangs = [(v, rng.randint(1, 4)) for v in range(base.n) if rng.random() < 0.3]
        else:
            k = rng.randint(3, 10)
            base = random_connected_graph(k, rng.randint(1, min(4, (k - 1) * (k - 2) // 2)), seed=seed)
            hangs = [(v, rng.choice((1, 3))) for v in range(base.n)]
        edges, n = list(base.edges), base.n
        for v, length in hangs:
            for _ in range(min(length, 40 - n)):  # cut short only on trees
                edges.append((v, n))
                v, n = n, n + 1
        sample = random.Random(seed + 1)
        out.append(GainGraph.build(n, [(u, v, spec.sample(sample)) for u, v in edges]))
    return out


def test_float_rank_from_covering_pendant_pairs_matches_the_spectrum():
    graphs = _float_graphs_pendant_pairs_cover(200)
    assert max(g.n for g in graphs) <= 40
    assert sum(g.n <= len(g.edges) for g in graphs) == 100  # the odd seeds have a cycle
    for g in graphs:
        facts = component_facts(g)
        (f,) = facts.components
        assert f.peel is not None and f.peel[1] == frozenset() and f.backend == "numeric"
        want = inertia(hermitian_adjacency(g)).rank
        assert facts.rank == 2 * f.peel[0] == want == 2 * matching_number(g.underlying())


def test_a_wrong_pair_count_is_a_theorem_violation(monkeypatch):
    from gainrank import theorems

    real = theorems.pendant_pairs
    monkeypatch.setattr(theorems, "pendant_pairs", lambda g: (real(g)[0] + 1, real(g)[1]))
    path = GainGraph.build(4, [(0, 1, "c(0.6,0.8)"), (1, 2, "1"), (2, 3, "1")])
    with pytest.raises(TheoremViolation) as exc:
        component_facts(path)
    assert "3 pendant pairs cover n=4, but m=2" in str(exc.value)
    assert exc.value.instance == serialize_gain_graph(path)


def test_pendant_reduction_check_eigensolves_the_float_subgraph(monkeypatch):
    """The check ranks G - x - y by its spectrum, not by pendant pairs, so on
    a float-gain tree it still compares two routes."""
    import numpy as np

    from gainrank.generators import GainSetSpec, assign_gains, random_connected_graph
    from gainrank.graphs import pendant_vertices

    real, sizes = np.linalg.eigvalsh, []

    def counted(a, *args, **kwargs):
        sizes.append(a.shape[-1])
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    path = GainGraph.build(8, [(j, j + 1, "c(0.6,0.8)") for j in range(7)])
    tree = assign_gains(random_connected_graph(25, 0, seed=11), GainSetSpec("uniform", seed=12))
    for g in (path, tree):
        facts = component_facts(g)
        assert sizes == []  # pendant pairs cover a tree
        G = g.underlying()
        x = min(pendant_vertices(G))
        sub, _ = g.delete_vertices((x, G.neighbors()[x][0]))
        want = sorted(c.n for c, _ in sub.components() if c.edges)
        assert pendant_reduction_check(facts) is True
        assert want and sorted(sizes) == want  # each component of G - x - y with an edge
        sizes.clear()


def test_forests_meet_condition_iii_with_no_matching(monkeypatch):
    from gainrank.combinatorics import matching
    from gainrank.generators import GainSetSpec, assign_gains, random_connected_graph

    real, calls = matching.maximum_matching, []

    def counted(G):
        calls.append(G.n)
        return real(G)

    monkeypatch.setattr(matching, "maximum_matching", counted)
    tree = assign_gains(random_connected_graph(30, 0, seed=5), GainSetSpec("gaussian", seed=6))
    square = GainGraph.build(4, [(0, 1, "1"), (1, 2, "1"), (2, 3, "1"), (3, 0, "1")])
    edgeless = GainGraph.build(2000, [])
    # m of each component, and on a component with a cycle the contracted
    # graph's and G - V(C)'s
    for g, want in ((tree, 1), (square, 3), (edgeless, 2000)):
        calls.clear()
        facts = component_facts(g)
        assert len(calls) == want
        assert all(f.condition_iii is True for f in facts.components)
