"""Hermitian adjacency matrices: eigenvalues, inertia, rank, characteristic
polynomial.

The numeric path goes through numpy's Hermitian eigensolver. The exact path
eliminates over the cyclotomic integers Z[zeta_q] and is available whenever
every gain is a q-th root of unity with q <= EXACT_ORDER_LIMIT. The oracle
path delegates to the combinatorial coefficient expansion.
"""
from __future__ import annotations

import functools
import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .errors import SizeLimitError
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


# -- exact rank over Z[zeta_q] ---------------------------------------------

# largest cyclotomic order q the exact backend takes, checked before any
# table is built. An element of Z[zeta_q] carries phi(q) coefficients and a
# pivot's norm multiplies phi(q) conjugates, so cost climbs steeply with
# phi(q): on a dense 40-vertex graph (2-core Xeon, Python 3.11) exact rank
# took 0.4 s at q = 12, 3.4 s at q = 11, 7.5 s at q = 13 and 104 s at q = 23
EXACT_ORDER_LIMIT = 12


def cyclotomic_order(g: GainGraph) -> int | None:
    """Least q with every gain a q-th root of unity; None if a gain is a float."""
    q = 1
    for e in g.edges:
        if e.gain.angle is None:
            return None
        q = math.lcm(q, e.gain.angle.denominator)
    return q


@functools.lru_cache(maxsize=None)
def _cyclotomic(q: int) -> tuple[int, ...]:
    """Coefficients of Phi_q, constant term first: x^q - 1 over the proper
    divisors' cyclotomic polynomials."""
    num = [-1] + [0] * (q - 1) + [1]
    for d in range(1, q):
        if q % d:
            continue
        den = _cyclotomic(d)
        quot = [0] * (len(num) - len(den) + 1)
        for i in reversed(range(len(quot))):
            quot[i] = c = num[i + len(den) - 1]
            for j, b in enumerate(den):
                num[i + j] -= c * b
        assert not any(num), f"Phi_{d} does not divide x^{q} - 1"
        num = quot
    return tuple(num)


@functools.lru_cache(maxsize=None)
def _ring(q: int) -> tuple[tuple, tuple]:
    """Tables of Z[zeta_q] = Z[x]/Phi_q in the power basis: zeta_q^k for
    k = 0..q-1, and the basis images x^i -> x^(i*j) under each Galois
    automorphism with 1 < j < q, gcd(j, q) = 1."""
    phi = _cyclotomic(q)
    cur = (1,) + (0,) * (len(phi) - 2)
    powers = []
    for _ in range(q):
        powers.append(cur)
        top, cur = cur[-1], (0,) + cur[:-1]  # times x, then x^d -> x^d - Phi_q
        if top:
            cur = tuple(a - top * b for a, b in zip(cur, phi))
    d = len(phi) - 1
    galois = tuple(
        tuple(powers[i * j % q] for i in range(d)) for j in range(2, q) if math.gcd(j, q) == 1
    )
    return tuple(powers), galois


def exact_rank(g: GainGraph) -> int:
    """Rank by fraction-free elimination over Z[zeta_q], q the lcm of the
    gains' angle denominators. Every entry is an integer vector in the power
    basis of Z[x]/Phi_q, where zero has exactly one representation, so no
    test needs a tolerance. Rank over Q(zeta_q) is rank over C.

    Rows are sparse maps column -> element. Each step pivots on the column
    with the fewest nonzeros, in its shortest row. The pivot row is first
    multiplied by the Galois conjugates of its pivot entry p, which turns
    that entry into the rational integer N(p). Every other row r holding the
    column, with entry a there, becomes N(p)*r - a*pivot_row, divided by the
    integer gcd of its coefficients. Each stored row is then a rational
    multiple of the exact Schur-complement row, so coefficients stay as
    small as its minors. Raises ValueError for float gains and
    SizeLimitError when q exceeds EXACT_ORDER_LIMIT.
    """
    q = cyclotomic_order(g)
    if q is None:
        bad = next(e for e in g.edges if e.gain.angle is None)
        raise ValueError(
            f"exact rank needs rational-angle gains; edge ({bad.u}, {bad.v}) has {bad.gain.token()}"
        )
    if q > EXACT_ORDER_LIMIT:
        raise SizeLimitError(
            f"exact rank limited to gains of order q <= {EXACT_ORDER_LIMIT}, got q={q}"
        )
    powers, galois = _ring(q)
    d = len(powers[0])

    def mul(a, b):
        prod = [0] * (2 * d - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    prod[i + j] += x * y
        out = prod[:d]
        for k in range(d, 2 * d - 1):
            if prod[k]:
                out = [o + prod[k] * h for o, h in zip(out, powers[k % q])]
        return out

    def conjugates(a):
        # product of the images of a under every nontrivial automorphism
        out = powers[0]
        for images in galois:
            sa = [0] * d
            for x, img in zip(a, images):
                if x:
                    sa = [s + x * y for s, y in zip(sa, img)]
            out = mul(out, sa)
        return out

    rows: list[dict] = [{} for _ in range(g.n)]  # column -> element
    for u, v, gain in g.edges:
        k = gain.angle.numerator * (q // gain.angle.denominator)
        rows[u][v] = powers[k]
        rows[v][u] = powers[-k % q]
    rows = [r for r in rows if r]
    rank = 0
    while rows:
        count = Counter(col for r in rows for col in r)
        col = min(count, key=lambda c: (count[c], c))
        pivot = min((r for r in rows if col in r), key=len)
        pstar = conjugates(pivot[col])
        scaled = {c: mul(pstar, x) for c, x in pivot.items()}
        norm = scaled.pop(col)
        assert not any(norm[1:]), "norm of a pivot is not a rational integer"
        rest = []
        for r in rows:
            if r is pivot:
                continue
            if col in r:
                a = r.pop(col)
                new = {c: [norm[0] * x for x in e] for c, e in r.items()}
                for c, y in scaled.items():
                    ay = mul(a, y)
                    new[c] = [x - z for x, z in zip(new[c], ay)] if c in new else [-z for z in ay]
                r = {c: e for c, e in new.items() if any(e)}
                if not r:
                    continue
                content = math.gcd(*(x for e in r.values() for x in e))
                if content > 1:
                    r = {c: [x // content for x in e] for c, e in r.items()}
            rest.append(r)
        rows = rest
        rank += 1
    return rank


def rank(g: GainGraph, mode: str = "numeric", tol: float | None = None) -> int:
    """Rank of H(G, phi) via the requested backend.

    numeric: count eigenvalues above the zero threshold.
    exact:   fraction-free elimination over Z[zeta_q]; rational-angle gains.
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
