"""Hermitian adjacency, inertia, and the three rank backends."""

import math
import random
import time

import numpy as np
import pytest
from conftest import small_gain_graphs
from hypothesis import given, settings

from gainrank.errors import SizeLimitError
from gainrank.gains import Gain
from gainrank.graphs import GainGraph
from gainrank.spectral import (
    EXACT_PRIME_BUDGET,
    char_poly_numeric,
    eigenvalues,
    exact_rank,
    hermitian_adjacency,
    inertia,
    rank,
)


@given(small_gain_graphs())
def test_adjacency_is_hermitian(g):
    h = hermitian_adjacency(g)
    assert np.allclose(h, h.conj().T)
    assert np.allclose(np.diag(h), 0)


def test_square_spectrum(square):
    w = eigenvalues(hermitian_adjacency(square))
    assert np.allclose(sorted(w), [-2, 0, 0, 2], atol=1e-9)
    res = inertia(hermitian_adjacency(square))
    assert (res.p_plus, res.n_zero, res.n_minus) == (1, 2, 1)
    assert res.rank == 2


def test_triangle_spectrum(triangle):
    w = eigenvalues(hermitian_adjacency(triangle))
    assert np.allclose(sorted(w), [-1, -1, 2], atol=1e-9)
    res = inertia(hermitian_adjacency(triangle))
    assert (res.p_plus, res.n_minus, res.rank) == (1, 2, 3)


def test_imaginary_triangle_is_real_symmetric_in_disguise():
    # gain i around a triangle: eigenvalues +-sqrt(3) and 0
    g = GainGraph.build(3, [(0, 1, "i"), (1, 2, "1"), (2, 0, "1")])
    w = sorted(eigenvalues(hermitian_adjacency(g)))
    s3 = math.sqrt(3)
    assert np.allclose(w, [-s3, 0, s3], atol=1e-9)


@settings(max_examples=40)
@given(small_gain_graphs())
def test_backends_agree_on_axis_gains(g):
    # snap to gains in {1, -1, i, -i} where the exact path applies
    edges = [(e.u, e.v, Gain.from_angle(round(4 * e.gain.angle), 4)) for e in g.edges]
    g = GainGraph.build(g.n, edges)
    r = rank(g, mode="numeric")
    assert rank(g, mode="exact") == r
    assert exact_rank(g) == r


@pytest.mark.parametrize("q", [2, 3, 5, 6, 8, 12, 13, 23])
@settings(max_examples=25, deadline=None)  # the oracle is the slow reference here
@given(g=small_gain_graphs())
def test_backends_agree_on_root_of_unity_gains(q, g):
    # snap to q-th roots of unity, half of them to 1 so that singular
    # cycles and rank drops are common
    edges = [
        (e.u, e.v, Gain.from_angle(max(0, round(2 * q * e.gain.angle) - q), q))
        for e in g.edges
    ]
    g = GainGraph.build(g.n, edges)
    r = rank(g, mode="exact")
    assert rank(g, mode="numeric") == r
    assert rank(g, mode="oracle") == r


def test_exact_rank_on_singular_blow_up():
    # two twin classes joined by switched roots of unity: rank 2 at n = 40,
    # so the certificate needs every prime the Hadamard bound asks for
    for q in (8, 23):
        t = 20
        shift = [(7 * v) % q for v in range(2 * t)]
        edges = [
            (u, v, Gain.from_angle(3 + shift[u] - shift[v], q))
            for u in range(t) for v in range(t, 2 * t)
        ]
        g = GainGraph.build(2 * t, edges)
        assert exact_rank(g) == 2 == rank(g, mode="numeric")


def _dense_graph(n, q, seed):
    rng = random.Random(seed)
    return GainGraph.build(n, [
        (u, v, Gain.from_angle(rng.randrange(q), q)) for u in range(n) for v in range(u + 1, n)
    ])


def test_exact_rank_on_dense_graphs():
    for q in (4, 8):
        g = _dense_graph(32, q, q)
        assert exact_rank(g) == rank(g, mode="numeric")


def test_exact_rank_past_order_twelve_is_prompt():
    # phi(13) = 12 and phi(23) = 22 conjugates made elimination over
    # Z[zeta_q] take seconds to minutes here; mod p it is one prime each
    for q in (13, 23):
        g = _dense_graph(40, q, q)
        t0 = time.perf_counter()
        assert exact_rank(g) == rank(g, mode="numeric")
        assert time.perf_counter() - t0 < 1.0


def test_exact_rank_order_limit_is_prompt():
    # q = 997 * 991: the certificate needs ceil(phi(q) / 122) = 8,083 primes
    # on this path; past the budget one prime is tried, and it cannot reach
    # full rank on a path of rank 2
    g = GainGraph.build(3, [(0, 1, "rot(1/997)"), (1, 2, "rot(1/991)")])
    t0 = time.perf_counter()
    with pytest.raises(SizeLimitError):
        rank(g, mode="exact")
    assert time.perf_counter() - t0 < 1.0
    assert -(-996 * 990 // 122) > EXACT_PRIME_BUDGET


def test_exact_rank_refuses_an_unfactorable_order_promptly():
    # q is about 1e18, a product of two primes near 1e9 that trial division
    # cannot split in time: phi(q) >= sqrt(q/2) refuses it unfactored
    g = GainGraph.build(3, [(0, 1, "rot(1/1000000007)"), (1, 2, "rot(1/1000000009)")])
    t0 = time.perf_counter()
    with pytest.raises(SizeLimitError):
        exact_rank(g)
    assert time.perf_counter() - t0 < 1.0


def test_exact_mode_rejects_general_rotation():
    g = GainGraph.build(2, [(0, 1, "c(0.6,0.8)")])
    with pytest.raises(ValueError):
        exact_rank(g)
    assert rank(g, mode="numeric") == 2


def test_rank_mode_validation(triangle):
    with pytest.raises(ValueError):
        rank(triangle, mode="symbolic")


def test_char_poly_matches_eigenvalues(double_squares):
    h = hermitian_adjacency(double_squares)
    coeffs = char_poly_numeric(h)
    n = len(coeffs)
    for lam in eigenvalues(h):
        val = lam**n + sum(c * lam ** (n - 1 - k) for k, c in enumerate(coeffs))
        assert abs(val) < 1e-6


def test_inertia_rejects_non_square():
    with pytest.raises(ValueError):
        inertia(np.zeros((2, 3)))


@pytest.mark.parametrize("tol", [-0.5, -1e-300, math.nan, math.inf, -math.inf])
def test_inertia_rejects_negative_or_non_finite_tolerance(tol):
    with pytest.raises(ValueError):
        inertia(np.array([[0.0, 1.0], [1.0, 0.0]]), tol)


def test_inertia_accepts_zero_tolerance():
    res = inertia(np.array([[0.0, 1.0], [1.0, 0.0]]), 0.0)
    assert (res.p_plus, res.n_zero, res.n_minus, res.tol_used) == (1, 0, 1, 0.0)
