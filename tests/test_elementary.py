"""Elementary subgraph covers: determinants, coefficients, combinatorial rank."""

import random
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings

from gainrank.combinatorics.elementary import char_coeffs_combinatorial, rank_combinatorial
from gainrank.errors import SizeLimitError
from gainrank.gains import Gain
from gainrank.graphs import GainGraph
from gainrank.spectral import exact_rank, hermitian_adjacency

from conftest import small_gain_graphs
from twins import char_coeff_combinatorial, char_poly_numeric, elementary_spanning_subgraphs

GAUSSIAN = ("1", "i", "-1", "-i")


def cover_determinant(g, S):
    """det H[S] from the explicit covers: (-1)^(|S| - p) * 2^c * prod Re phi(C)."""
    return sum(
        (-1.0) ** (len(S) - u.component_count) * u.weight()
        for u in elementary_spanning_subgraphs(g, S)
    )


def random_gain_graph(rng, n, p, tokens):
    pairs = [e for e in combinations(range(n), 2) if rng.random() < p]
    return GainGraph.build(n, [(u, v, rng.choice(tokens)) for u, v in pairs])


def test_triangle_covers(triangle):
    # the full vertex set is covered by the cycle itself, both orientations
    # collapsing into one record, or by nothing else (no perfect matching)
    covers = elementary_spanning_subgraphs(triangle, (0, 1, 2))
    assert len(covers) == 1
    (u,) = covers
    assert u.edge_components == ()
    assert len(u.cycle_components) == 1
    assert u.component_count == 1
    assert u.vertex_span == frozenset({0, 1, 2})


def test_triangle_coefficients(triangle):
    # char poly of K3 is x^3 - 3x - 2
    assert char_coeff_combinatorial(triangle, 0) == 1.0
    assert char_coeff_combinatorial(triangle, 1) == 0.0
    assert char_coeff_combinatorial(triangle, 2) == pytest.approx(-3.0)
    assert char_coeff_combinatorial(triangle, 3) == pytest.approx(-2.0)
    assert rank_combinatorial(triangle) == 3


def test_no_cover_means_zero_determinant():
    # a path on 3 vertices has no perfect matching and no cycle
    g = GainGraph.build(3, [(0, 1, "1"), (1, 2, "1")])
    assert elementary_spanning_subgraphs(g, (0, 1, 2)) == []
    assert cover_determinant(g, (0, 1, 2)) == 0.0
    h = hermitian_adjacency(g)
    assert abs(np.linalg.det(h)) < 1e-9
    assert rank_combinatorial(g) == 2


@settings(max_examples=60)
@given(small_gain_graphs())
def test_determinant_matches_numpy(g):
    h = hermitian_adjacency(g)
    for size in range(1, min(g.n, 4) + 1):
        for S in combinations(range(g.n), size):
            d = cover_determinant(g, S)
            ref = np.linalg.det(h[np.ix_(S, S)])
            assert abs(ref.imag) < 1e-9
            assert d == pytest.approx(ref.real, abs=1e-9)


@settings(max_examples=60)
@given(small_gain_graphs())
def test_coefficients_match_numeric(g):
    coeffs = char_poly_numeric(hermitian_adjacency(g))
    for k in range(1, g.n + 1):
        assert char_coeff_combinatorial(g, k) == pytest.approx(coeffs[k - 1], abs=1e-8)


def test_recurrence_matches_explicit_covers():
    # the mask recurrence and the explicit covers are the two routes to a_k
    rng = random.Random(13)
    tokens = [Gain.from_angle(num, 24) for num in range(24)]
    for _ in range(40):
        g = random_gain_graph(rng, rng.randint(1, 7), rng.random(), tokens)
        coeffs = char_coeffs_combinatorial(g)
        assert coeffs[0] == 1.0
        for k in range(1, g.n + 1):
            by_covers = sum(
                (-1.0) ** u.component_count * u.weight()
                for S in combinations(range(g.n), k)
                for u in elementary_spanning_subgraphs(g, S)
            )
            assert coeffs[k] == pytest.approx(by_covers, abs=1e-9)


def test_all_coefficients_of_k12():
    g = GainGraph.build(12, [(u, v, ("1", "i")[(u + v) % 2]) for u, v in combinations(range(12), 2)])
    coeffs = char_coeffs_combinatorial(g)
    ref = char_poly_numeric(hermitian_adjacency(g))
    assert len(coeffs) == 13
    for k in range(1, 13):
        assert coeffs[k] == pytest.approx(ref[k - 1], rel=1e-9, abs=1e-6)
    assert rank_combinatorial(g) == exact_rank(g)


@pytest.mark.parametrize("a,b", [(6, 6), (5, 7)])
def test_rank_of_complete_bipartite_matches_exact(a, b):
    rng = random.Random(a * 10 + b)
    g = GainGraph.build(
        a + b, [(u, a + w, rng.choice(GAUSSIAN)) for u in range(a) for w in range(b)]
    )
    assert rank_combinatorial(g) == exact_rank(g)


def test_rank_of_dense_gaussian_graphs_matches_exact():
    rng = random.Random(29)
    for n in range(9, 13):
        for _ in range(3):
            g = random_gain_graph(rng, n, 0.8, GAUSSIAN)
            assert rank_combinatorial(g) == exact_rank(g)


def test_size_limits():
    g = GainGraph.build(13, [(i, i + 1, "1") for i in range(12)])
    with pytest.raises(SizeLimitError):
        char_coeff_combinatorial(g, 2)
    with pytest.raises(SizeLimitError):
        rank_combinatorial(g)
    with pytest.raises(ValueError):
        char_coeff_combinatorial(GainGraph.build(2, [(0, 1, "1")]), 3)


def test_subset_validation(triangle):
    with pytest.raises(ValueError):
        elementary_spanning_subgraphs(triangle, (0, 5))
