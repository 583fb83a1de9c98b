"""Characteristic coefficients and rank from elementary subgraphs.

An elementary subgraph of a vertex set S covers every vertex of S exactly
once by disjoint single edges and cycles. By Sachs' theorem a_k, the
coefficient of x^(n-k) in det(xI - H), sums (-1)^p * 2^c * prod Re phi(C)
over the elementary subgraphs on k vertices with p components, c of them
cycles, and the rank is the largest k with a_k != 0. One recurrence over
vertex masks gives every a_k in one pass; the tests hold it against an
explicit listing of the covers of one vertex set. Deliberately
combinatorial: this is the cross-check for the numeric path.
"""
from __future__ import annotations

from functools import reduce
from operator import or_

from ..errors import SizeLimitError
from ..graphs import GainGraph

COEFF_LIMIT = 12
COEFF_TOL = 1e-8


def _component_weights(g: GainGraph) -> list[dict[int, float]]:
    """Per vertex s, {T - s: w[T]} for the vertex sets T with least vertex s:
    w = 1 for an edge, the sum of 2 Re phi(C) over the cycles C on T else.

    Held-Karp over path gains from s through larger vertices: each cycle
    closes once per direction, and the two directions are conjugate.
    """
    arcs: list[list[tuple[int, complex]]] = [[] for _ in range(g.n)]
    for u, v, gain in g.edges:
        arcs[u].append((v, gain.value))
        arcs[v].append((u, gain.value.conjugate()))
    weights = []
    for s in range(g.n):
        low = 1 << s
        paths = {low | 1 << w: {w: z} for w, z in arcs[s] if w > s}  # mask -> {end: gain}
        comp: dict[int, float] = {}
        for mask in range(3 * low, 1 << g.n, 2 * low):  # least vertex s, two or more vertices
            closing = 0j
            for w, val in paths.pop(mask, {}).items():
                for x, z in arcs[w]:
                    if x == s:
                        closing += val * z
                    elif x > s and not (mask >> x) & 1:
                        ends = paths.setdefault(mask | 1 << x, {})
                        ends[x] = ends.get(x, 0j) + val * z
            t = mask ^ low
            if closing.real:
                comp[t] = closing.real if t & (t - 1) else 1.0
        weights.append(comp)
    return weights


def char_coeffs_combinatorial(g: GainGraph) -> list[float]:
    """All coefficients a_0..a_n of det(xI - H), a_k at x^(n-k), in one pass.

    E[S], the signed weight of the covers of S, splits on the component
    through the lowest vertex v of S: E[S] = -sum_T w[T] * E[S - T] over
    the vertex sets T with v = min T. Then a_k sums E[S] over the k-sets S.
    """
    if g.n > COEFF_LIMIT:
        raise SizeLimitError(f"combinatorial coefficients limited to n <= {COEFF_LIMIT}, got n={g.n}")
    weights = _component_weights(g)
    reach = [reduce(or_, comp, 0) for comp in weights]  # vertices the components at v can use
    E = [1.0] + [0.0] * ((1 << g.n) - 1)
    coeffs = [1.0] + [0.0] * g.n
    for S in range(1, 1 << g.n):
        v = (S & -S).bit_length() - 1
        rest, comp = S & (S - 1), weights[v]  # S without v
        room = rest & reach[v]
        t, total = room, 0.0
        while t:
            if t in comp:
                total += comp[t] * E[rest ^ t]
            t = (t - 1) & room
        E[S] = -total
        coeffs[S.bit_count()] -= total
    return coeffs


def rank_combinatorial(g: GainGraph) -> int:
    """Largest k with a nonzero k-th coefficient; zero when all vanish."""
    coeffs = char_coeffs_combinatorial(g)
    return max((k for k, a in enumerate(coeffs) if k and abs(a) > COEFF_TOL), default=0)
