"""Hermitian adjacency matrices: eigenvalues, inertia and rank.

The numeric path goes through numpy's Hermitian eigensolver, and cuts a
block-diagonal matrix's inertia from its blocks' eigenvalues; pendant pairs,
peeled off by congruence, add exact (1, 0, 1) blocks that take no cut. The
exact path takes gains that are q-th roots of unity and eliminates over F_p
for as many primes p = 1 (mod q) as a Hadamard bound on the minors asks
for, or until the rank meets a proven upper bound. The oracle path
delegates to the combinatorial coefficient expansion.
"""
from __future__ import annotations

import functools
import heapq
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .combinatorics.cycles import cover_walk, neighbour_masks
from .errors import SizeLimitError
from .graphs import GainGraph

# eigenvalue magnitudes below max(RANK_TOL_FLOOR, n * eps * max|lambda|)
# count as zero; test instances keep nonzero eigenvalues far above this
RANK_TOL_FLOOR = 1e-10
_EPS = float(np.finfo(float).eps)


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
    auto_tol: float  # the cut the solver's error calls for, whatever tol_used is

    def __post_init__(self):
        assert self.rank == self.p_plus + self.n_minus


def auto_tolerance(w: np.ndarray) -> float:
    n = len(w)
    scale = float(np.abs(w).max()) if n else 0.0
    return max(RANK_TOL_FLOOR, n * _EPS * scale)


def inertia(h: np.ndarray, tol: float | None = None) -> InertiaResult:
    """Eigenvalue signs, cut at tol (a finite value >= 0) or the auto tolerance."""
    return block_inertia([eigenvalues(h)], tol)


def block_inertia(
    blocks: list[np.ndarray], tol: float | None = None, pairs: int = 0
) -> InertiaResult:
    """inertia of a block-diagonal matrix from its blocks' eigenvalues, which
    together are its spectrum: one cut, at tol or their auto tolerance. pairs
    counts further 2 x 2 blocks of inertia (1, 0, 1), such as pendant_peel's,
    which take no cut."""
    if tol is not None and not (math.isfinite(tol) and tol >= 0):
        raise ValueError(f"tolerance must be finite and >= 0, got {tol!r}")
    w = blocks[0] if len(blocks) == 1 else np.concatenate([np.zeros(0), *blocks])
    auto = auto_tolerance(w)
    if tol is None:
        tol = auto
    p = int(np.count_nonzero(w > tol))
    m = int(np.count_nonzero(w < -tol))
    return InertiaResult(p + pairs, len(w) - p - m, m + pairs, p + m + 2 * pairs, tol, auto)


# -- exact rank modulo primes above p = 1 (mod q) --------------------------

# most primes one certificate may use, each one sparse elimination; past it
# one prime is still tried, since a graph it finds full rank is settled.
# rot(1/997) with rot(1/991) on a path of three vertices (rank 2) needs
# 8,083 primes and raises SizeLimitError.
EXACT_PRIME_BUDGET = 1024


def _prime_factors(q: int) -> tuple[int, ...]:
    out, d = [], 2
    while d * d <= q:
        if q % d == 0:
            out.append(d)
            while q % d == 0:
                q //= d
        d += 1
    return tuple(out + [q] if q > 1 else out)


def _totient(q: int, factors: tuple[int, ...]) -> int:
    return q // math.prod(factors) * math.prod(f - 1 for f in factors)


@functools.lru_cache(maxsize=1 << 12)
def nonzero_eigenvalue_bound(n: int, max_degree: int, q: int) -> float:
    """beta(n, Delta, q) <= |lambda| for every nonzero eigenvalue of a
    Hermitian gain matrix on n vertices, maximum degree Delta, gains q-th
    roots of unity.

    At rank r, a_r = +-(product of the nonzero eigenvalues) is a nonzero
    algebraic integer of Q(zeta_q)^+, of degree d = max(1, phi(q)/2). Its
    Galois conjugates are the a_r of the gain graphs phi^s, each a sum of
    C(n, r) principal minors that Hadamard bounds by Delta^(r/2), and its
    norm is a nonzero integer (Washington, Introduction to Cyclotomic
    Fields, GTM 83). With every |lambda| <= Delta,

        |lambda| >= min over r = 1..n of (C(n, r) Delta^(r/2))^-(d-1) Delta^-(r-1),

    which is Delta^-(n-1) at d = 1. Delta <= 1 leaves 2 x 2 blocks of
    eigenvalues +-1, so beta = 1 there.
    """
    if max_degree <= 1:
        return 1.0
    d = max(1, _totient(q, _prime_factors(q)) // 2)
    D = float(max_degree)
    return min(
        D ** -(r - 1) * (math.comb(n, r) * D ** (r / 2)) ** (1 - d) for r in range(1, n + 1)
    )


def _is_prime(n: int) -> bool:
    """Miller-Rabin on the first twelve prime bases, deterministic for
    37 < n < 3.3e24."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if any(n % a == 0 for a in bases):
        return False
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in bases:
        x = pow(a, d, n)
        for _ in range(s):
            if x in (1, n - 1):
                break
            x = x * x % n
        else:
            return False
    return True


@functools.lru_cache(maxsize=1 << 12)
def _next_modulus(q: int, factors: tuple[int, ...], after: int) -> tuple[int, int]:
    """Least prime p > after with p = 1 (mod q), and w of order exactly q
    mod p; factors are the primes dividing q."""
    p = after - (after - 1) % q + q
    while not _is_prime(p):
        p += q
    for x in itertools.count(2):
        w = pow(x, (p - 1) // q, p)
        if all(pow(w, q // f, p) != 1 for f in factors):
            return p, w


def _rank_mod(rows: list[dict[int, int]], p: int) -> int:
    """Rank over F_p of the matrix whose row i maps column -> nonzero entry;
    the rows are consumed. Each step pivots on the column with the fewest
    nonzeros, in its shortest row; a column -> rows index is kept up to date
    as rows change."""
    cols: dict[int, set[int]] = {}
    for i, r in enumerate(rows):
        for c in r:
            cols.setdefault(c, set()).add(i)
    heap = [(len(h), c) for c, h in cols.items()]  # (nonzeros, column), some stale
    heapq.heapify(heap)
    rank = 0
    while heap:
        k, col = heapq.heappop(heap)
        if not k or len(cols.get(col, ())) != k:  # an emptied column, or stale
            continue
        holders = cols.pop(col)
        i = min(holders, key=lambda i: (len(rows[i]), i))
        pivot = rows[i]
        inv = pow(pivot.pop(col), -1, p)
        for c in pivot:
            cols[c].discard(i)
        for j in holders - {i}:
            r = rows[j]
            a = r.pop(col) * inv % p
            for c, y in pivot.items():
                x = (r.get(c, 0) - a * y) % p
                if x:
                    r[c] = x
                    cols[c].add(j)
                elif c in r:
                    del r[c]
                    cols[c].discard(j)
        for c in pivot:  # only the pivot row's columns changed their counts
            heapq.heappush(heap, (len(cols[c]), c))
        rank += 1
    return rank


def vertex_cover(g: GainGraph) -> set[int]:
    """A greedy vertex cover: a leaf's neighbour while a leaf is left, else a
    vertex of largest degree. Some minimum cover holds a leaf's neighbour,
    and a forest always has a leaf, so on forests it is minimum: size m."""
    return {u for _, u in cover_walk(neighbour_masks(g), (1 << g.n) - 1)}


def pendant_pairs(g: GainGraph) -> tuple[int, frozenset[int]]:
    """(k, core): the k pendant pairs pendant_peel takes off g, with no
    eigensolve, and the vertices of what they leave that keep an edge."""
    gone: set[int] = set()
    for leaf, u in cover_walk(neighbour_masks(g), (1 << g.n) - 1):
        if leaf is None:
            break
        gone |= {leaf, u}
    core = {x for e in g.edges if e.u not in gone and e.v not in gone for x in (e.u, e.v)}
    return len(gone) // 2, frozenset(core)


def pendant_peel(
    g: GainGraph, pairs: tuple[int, frozenset[int]] | None = None
) -> tuple[int, np.ndarray]:
    """Pendant pairs peeled off H = H(G, phi) by congruence: (k, w), where H
    has inertia (k + i+(w), i0(w), k + i-(w)). pairs: pendant_pairs(g), if known.

    The pairs are cover_walk's leaf picks before its first largest-degree
    pick: a leaf v and its one neighbour u in the graph the earlier pairs
    leave. Ordering that graph's vertices v, u, rest,

        H = [[0, a, 0], [conj(a), 0, b^*], [0, b, H']],   |a| = 1.

    Subtracting b_x/a times row v = (0, a, 0) from each row x of the rest
    clears b and nothing else, and the matching column step clears b^*: with
    T that invertible row operation, T H T^* = [[0, a], [conj(a), 0]] (+) H'.
    Sylvester's law of inertia gives i(H) = (1, 0, 1) + i(H'), exactly, the
    block's eigenvalues being +-|a| = +-1 (Yu, Qu & Tu, Appl. Math. Comput.
    265, 2015); by induction, k pairs add k to p+ and to n-. Of
    H(G - the 2k paired vertices) only the vertices that keep an edge are
    eigensolved; w ends with an exact 0.0 for each vertex left isolated, so a
    graph with no edge left makes no eigensolve.
    """
    k, core = pairs or pendant_pairs(g)
    zeros = np.zeros(g.n - 2 * k - len(core))
    if not core:
        return k, zeros
    h = hermitian_adjacency(g.delete_vertices(v for v in range(g.n) if v not in core)[0])
    return k, np.concatenate([eigenvalues(h), zeros])


def exact_rank(g: GainGraph) -> int:
    """Rank of H(G, phi) for gains that are q-th roots of unity, decided
    exactly by elimination over F_p for primes p = 1 (mod q) above 2^61.

    zeta_q -> w, an element of order exactly q mod p, is a ring map from
    Z[zeta_q] onto F_p whose kernel is a prime P over p; H reduces entry by
    entry. Every (r+1)-minor of H is 0, so rank mod P <= rank. A nonzero
    r x r minor d has rows of norm sqrt(deg_i) under every embedding of
    Q(zeta_q), so N(d)^2 <= prod_i deg_i^phi(q) (Hadamard), and a P that
    kills d puts p | N(d), a nonzero integer. Once the product of the primes
    squared exceeds that bound (compared in integers), some P keeps d, so
    the largest rank over those primes is the rank.

    The search stops once that rank reaches an upper bound: the number of
    non-isolated vertices, or 2|C| for the vertex_cover C, computed only
    when a second prime is asked for. Every nonzero entry of H lies in a
    row or a column of C, so H = P_C H + (I - P_C) H P_C, with P_C keeping
    the coordinates in C, and each term has rank at most |C| over any
    field: rank mod P <= rank <= 2|C|, so a prime reaching 2|C| has the rank.

    Raises ValueError for float gains. When the certificate needs more than
    EXACT_PRIME_BUDGET primes, one prime is still tried and SizeLimitError
    raised unless it finds that full rank; a q too large to factor is
    refused before any prime is searched.
    """
    q = 1  # least q with every gain a q-th root of unity
    for e in g.edges:
        if e.gain.q is None:
            raise ValueError(
                f"exact rank needs rational-angle gains; edge ({e.u}, {e.v}) has {e.gain.token()}"
            )
        q = math.lcm(q, e.gain.q)
    degrees = [d for d in g.degrees() if d]
    bound = math.prod(degrees)
    if bound == 1:  # a perfect matching: a direct sum of invertible 2 x 2 blocks
        return len(degrees)
    # every prime exceeds 2^61, so k primes certify once 122 k > phi(q) log2(bound)
    bits, room = math.log2(bound), 122 * EXACT_PRIME_BUDGET
    refusal = SizeLimitError(
        f"certifying exact rank at q={q} needs more than {EXACT_PRIME_BUDGET} primes"
    )
    # phi(q) >= sqrt(q/2), so a large q is turned away before it is factored
    if min(math.isqrt(q // 2), room) * bits >= room:
        raise refusal
    factors = _prime_factors(q)
    phi = _totient(q, factors)
    over = phi * bits >= room
    target = 1 if over else bound**phi  # past the budget, one prime
    expo = [(u, v, gain.k * (q // gain.q)) for u, v, gain in g.edges]
    best, prod, p, cap = 0, 1, 1 << 61, len(degrees)
    while prod * prod <= target and best < cap:
        p, w = _next_modulus(q, factors, p)
        power: dict[int, int] = {}  # w^k for each distinct exponent, and its conjugate
        rows: list[dict[int, int]] = [{} for _ in range(g.n)]
        for u, v, k in expo:
            if k not in power:
                power[k], power[-k % q] = pow(w, k, p), pow(w, -k % q, p)
            rows[u][v], rows[v][u] = power[k], power[-k % q]
        best = max(best, _rank_mod(rows, p))
        prod *= p
        if prod == p and best < cap and prod * prod <= target:  # a second prime is asked for
            cap = min(cap, 2 * len(vertex_cover(g)))
    if over and best < len(degrees):
        raise refusal
    return best


def rank(g: GainGraph, mode: str = "numeric") -> int:
    """Rank of H(G, phi) via the requested backend.

    numeric: count eigenvalues above the zero threshold.
    exact:   elimination mod primes p = 1 (mod q), certified by a Hadamard
             bound; gains that are q-th roots of unity.
    oracle:  largest k with a nonzero combinatorial coefficient a_k.
    """
    if mode == "numeric":
        return inertia(hermitian_adjacency(g)).rank
    if mode == "exact":
        return exact_rank(g)
    if mode == "oracle":
        from .combinatorics import rank_combinatorial

        return rank_combinatorial(g)
    raise ValueError(f"unknown rank mode {mode!r}")
