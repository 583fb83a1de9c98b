"""Hermitian adjacency, inertia, and the three rank backends."""

import math
import random
import time

import numpy as np
import pytest
from conftest import small_gain_graphs
from hypothesis import given, settings
from twins import char_poly_numeric

from gainrank import spectral
from gainrank.combinatorics import cyclomatic_number, matching_number
from gainrank.errors import SizeLimitError
from gainrank.gains import Gain
from gainrank.generators import GainSetSpec, assign_gains, random_connected_graph, random_tree
from gainrank.graphs import GainGraph
from gainrank.spectral import (
    EXACT_PRIME_BUDGET,
    eigenvalues,
    exact_rank,
    hermitian_adjacency,
    inertia,
    rank,
    vertex_cover,
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


def _eliminations(monkeypatch, undercount_first=False):
    """Log of the primes _rank_mod runs; with undercount_first, the first
    prime after each clear of the log reports one less than its rank."""
    log, real = [], spectral._rank_mod

    def counted(rows, p):
        log.append(p)
        return real(rows, p) - (undercount_first and len(log) == 1)

    monkeypatch.setattr(spectral, "_rank_mod", counted)
    return log


def _hadamard_primes(g, q):
    """Primes the Hadamard certificate asks for on g, with no early stop."""
    factors = spectral._prime_factors(q)
    target = math.prod(d for d in g.degrees() if d) ** spectral._totient(q, factors)
    count, prod, p = 0, 1, 1 << 61
    while prod * prod <= target:
        p, _ = spectral._next_modulus(q, factors, p)
        prod, count = prod * p, count + 1
    return count


def _blow_up(q, t=20):
    """Two twin classes of t vertices joined by switched q-th roots of unity: rank 2."""
    shift = [(7 * v) % q for v in range(2 * t)]
    return GainGraph.build(2 * t, [
        (u, v, Gain.from_angle(3 + shift[u] - shift[v], q))
        for u in range(t) for v in range(t, 2 * t)
    ])


def _roots8_tree(n, extra, seed):
    """A seeded spanning tree with eighth-root gains, plus extra edges."""
    return assign_gains(random_connected_graph(n, extra, seed), GainSetSpec("roots", q=8, seed=seed))


def test_exact_rank_on_singular_blow_up(monkeypatch):
    # rank 2 at n = 40, and 2 tau = 40 bounds nothing, so the certificate
    # needs every prime the Hadamard bound asks for
    log = _eliminations(monkeypatch)
    for q in (8, 23):
        g = _blow_up(q)
        log.clear()
        assert exact_rank(g) == 2 == rank(g, mode="numeric")
        assert 2 * len(vertex_cover(g)) == g.n
        assert len(log) == _hadamard_primes(g, q) > 1


@given(small_gain_graphs())
def test_vertex_cover_covers_every_edge(g):
    cover = vertex_cover(g)
    G = g.underlying()
    assert all(u in cover or v in cover for u, v in G.edges)
    assert len(cover) >= matching_number(G)  # it meets every edge of a matching
    if cyclomatic_number(G) == 0:
        assert len(cover) == matching_number(G)


def test_vertex_cover_is_minimum_on_forests():
    rng = random.Random(29)
    for _ in range(100):
        n = rng.randint(1, 60)
        edges = [e for e in random_tree(n, rng) if rng.random() < 0.8]
        g = GainGraph.build(n, [(u, v, "1") for u, v in edges])
        assert len(vertex_cover(g)) == matching_number(g.underlying())


def test_cover_bound_stops_the_search_at_one_prime(monkeypatch):
    # the Hadamard bound alone asks for several primes; the first already
    # reaches 2 tau, on the tree (tau = m) and on the tree plus two edges
    log = _eliminations(monkeypatch)
    for extra in (0, 2):
        g = _roots8_tree(150, extra, seed=11)
        log.clear()
        r = exact_rank(g)
        assert r == rank(g, mode="numeric") == 2 * len(vertex_cover(g)) < g.n
        assert len(log) == 1 < _hadamard_primes(g, 8)


def test_an_unlucky_first_prime_is_never_accepted(monkeypatch):
    # where the Hadamard bound asks for several primes, a first prime that
    # loses one rank falls short of every bound, so the search goes on to a
    # prime that reaches the rank
    log = _eliminations(monkeypatch, undercount_first=True)
    graphs = [_roots8_tree(n, 0, seed=n) for n in (45, 80, 150)]
    for g in graphs + [_roots8_tree(150, 2, seed=11), _blow_up(8)]:
        assert _hadamard_primes(g, 8) > 1
        log.clear()
        assert exact_rank(g) == rank(g, mode="numeric")
        assert len(log) >= 2


_KINDS = ("trivial", "signed", "gaussian", "roots:8", "uniform")


def _cuts(g):
    """(p+, n0, n-) by pendant pairs plus the core's cut, and by the full spectrum."""
    k, w = spectral.pendant_peel(g)
    assert len(w) == g.n - 2 * k
    peeled = spectral.block_inertia([w], None, k)
    full = inertia(hermitian_adjacency(g))
    return (peeled.p_plus, peeled.n_zero, peeled.n_minus), (full.p_plus, full.n_zero, full.n_minus)


def _disjoint_union(*graphs):
    edges, offset = [], 0
    for g in graphs:
        edges.extend((e.u + offset, e.v + offset, e.gain) for e in g.edges)
        offset += g.n
    return GainGraph.build(offset, edges)


def _seeded_graph(rng, kind):
    """A tree, a tree with extra edges, or several of them beside isolated
    vertices; at most about 40 vertices in all."""
    parts = []
    for _ in range(rng.choice((1, 1, 2, 3))):
        n = rng.randint(1, 40 // (len(parts) + 1))
        extra = min(rng.choice((0, 0, 1, 2, 4)), (n - 1) * (n - 2) // 2)
        shape = random_connected_graph(n, extra, seed=rng.randrange(1 << 30))
        parts.append(assign_gains(shape, GainSetSpec.parse(kind, seed=rng.randrange(1 << 30))))
    parts += [GainGraph.build(1, [])] * rng.choice((0, 0, 1, 3))
    rng.shuffle(parts)
    return _disjoint_union(*parts)


@pytest.mark.parametrize("kind", _KINDS)
def test_pendant_pairs_and_the_core_cut_give_the_full_inertia(kind):
    rng = random.Random(f"peel-{kind}")
    peeled_some = 0
    for _ in range(60):
        g = _seeded_graph(rng, kind)
        peeled, full = _cuts(g)
        assert peeled == full, (kind, g)
        peeled_some += spectral.pendant_peel(g)[0] > 0
    assert peeled_some > 30


@settings(max_examples=80)
@given(small_gain_graphs())
def test_pendant_peel_keeps_the_inertia_of_small_graphs(g):
    peeled, full = _cuts(g)
    assert peeled == full


@pytest.mark.parametrize("n, edges, pairs, core, want", [
    (3, [(0, 1), (1, 2)], 1, 0, (1, 1, 1)),  # P3: one pair, the other leaf left isolated
    (4, [(0, 1), (0, 2), (0, 3)], 1, 0, (1, 2, 1)),  # K1,3: the first pair isolates two leaves
    # C4 with a pendant path of two vertices: one pair, the cycle is the core
    (6, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 4), (4, 5)], 1, 4, (2, 2, 2)),
    # C4 with one pendant vertex: peeling its support opens the cycle into P3
    (5, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 4)], 2, 0, (2, 1, 2)),
    (4, [(0, 1), (1, 2), (2, 3), (0, 3)], 0, 4, (1, 2, 1)),  # no leaf: all of it is the core
])
def test_pendant_peel_by_hand(monkeypatch, n, edges, pairs, core, want):
    sizes, real = [], np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: sizes.append(len(a)) or real(a))
    g = GainGraph.build(n, [(u, v, "1") for u, v in edges])
    k, w = spectral.pendant_peel(g)
    assert (k, sizes) == (pairs, [core] if core else [])
    peeled, full = _cuts(g)
    assert peeled == full == want


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
