"""Hermitian adjacency matrices: eigenvalues, inertia, rank, characteristic
polynomial.

The numeric path goes through numpy's Hermitian eigensolver. The exact path
does Gaussian elimination over the Gaussian rationals (pairs of Fractions)
and is available whenever every gain lies in {1, -1, i, -i}. The oracle path
delegates to the combinatorial coefficient expansion.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .gains import AXIS_ANGLES, Gain
from .graphs import GainGraph

# eigenvalue magnitudes below max(RANK_TOL_FLOOR, n * eps * max|lambda|)
# count as zero; test instances keep nonzero eigenvalues far above this
RANK_TOL_FLOOR = 1e-10


def hermitian_adjacency(g: GainGraph) -> np.ndarray:
    h = np.zeros((g.n, g.n), dtype=complex)
    for u, v, gain in g.edges:
        h[u, v] = gain.value
        h[v, u] = gain.value.conjugate()
    return h


def eigenvalues(h: np.ndarray) -> np.ndarray:
    """All eigenvalues, ascending. Input must be Hermitian by construction."""
    return np.linalg.eigvalsh(h)


@dataclass(frozen=True)
class InertiaResult:
    p_plus: int
    n_zero: int
    n_minus: int
    rank: int
    tol_used: float

    def __post_init__(self):
        assert self.rank == self.p_plus + self.n_minus


def auto_tolerance(w: np.ndarray) -> float:
    n = len(w)
    scale = float(np.max(np.abs(w))) if n else 0.0
    return max(RANK_TOL_FLOOR, n * np.finfo(float).eps * scale)


def inertia(h: np.ndarray, tol: float | None = None) -> InertiaResult:
    w = eigenvalues(h)
    if tol is None:
        tol = auto_tolerance(w)
    p = int(np.sum(w > tol))
    m = int(np.sum(w < -tol))
    z = len(w) - p - m
    return InertiaResult(p, z, m, p + m, tol)


def char_poly_numeric(h: np.ndarray) -> tuple[float, ...]:
    """Coefficients (a_1, ..., a_n) of lambda^n + a_1 lambda^(n-1) + ... + a_n,
    computed from the eigenvalues via elementary symmetric polynomials."""
    w = eigenvalues(h)
    if len(w) == 0:
        return ()
    coeffs = np.poly(w)
    assert np.max(np.abs(np.imag(coeffs))) < 1e-8
    return tuple(float(c) for c in np.real(coeffs)[1:])


# -- exact rank over the Gaussian rationals --------------------------------

def _gaussian_unit(gain: Gain):
    """(re, im) Fraction pair for gains in {1, -1, i, -i}, else None."""
    if gain.angle not in AXIS_ANGLES:
        return None
    z = AXIS_ANGLES[gain.angle][0]
    return Fraction(int(z.real)), Fraction(int(z.imag))


def exact_rank(g: GainGraph) -> int:
    """Rank by exact elimination; requires every gain in {1, -1, i, -i}."""
    zero = (Fraction(0), Fraction(0))
    mat = [[zero] * g.n for _ in range(g.n)]
    for u, v, gain in g.edges:
        entry = _gaussian_unit(gain)
        if entry is None:
            raise ValueError(
                f"exact rank needs gains in {{1, -1, i, -i}}; edge ({u}, {v}) has {gain.token()}"
            )
        mat[u][v] = entry
        mat[v][u] = (entry[0], -entry[1])

    def is_zero(x):
        return x[0] == 0 and x[1] == 0

    def sub(x, y):
        return (x[0] - y[0], x[1] - y[1])

    def mul(x, y):
        return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])

    def div(x, y):
        d = y[0] * y[0] + y[1] * y[1]
        return ((x[0] * y[0] + x[1] * y[1]) / d, (x[1] * y[0] - x[0] * y[1]) / d)

    rank = 0
    row = 0
    for col in range(g.n):
        pivot = next((r for r in range(row, g.n) if not is_zero(mat[r][col])), None)
        if pivot is None:
            continue
        mat[row], mat[pivot] = mat[pivot], mat[row]
        pv = mat[row][col]
        for r in range(row + 1, g.n):
            if is_zero(mat[r][col]):
                continue
            f = div(mat[r][col], pv)
            mat[r] = [sub(a, mul(f, b)) for a, b in zip(mat[r], mat[row])]
        rank += 1
        row += 1
        if row == g.n:
            break
    return rank


def rank(g: GainGraph, mode: str = "numeric", tol: float | None = None) -> int:
    """Rank of H(G, phi) via the requested backend.

    numeric: count eigenvalues above the zero threshold.
    exact:   rational elimination, gains restricted to {1, -1, i, -i}.
    oracle:  largest k with a nonzero combinatorial coefficient a_k.
    """
    if mode == "numeric":
        return inertia(hermitian_adjacency(g), tol).rank
    if mode == "exact":
        return exact_rank(g)
    if mode == "oracle":
        from .combinatorics import rank_combinatorial

        return rank_combinatorial(g)
    raise ValueError(f"unknown rank mode {mode!r}")
