"""Characteristic coefficients and rank from elementary subgraphs.

An elementary subgraph of a vertex set S covers every vertex of S exactly
once by disjoint single edges and cycles. By Sachs' theorem a_k, the
coefficient of x^(n-k) in det(xI - H), sums (-1)^p * 2^c * prod Re phi(C)
over the elementary subgraphs on k vertices with p components, c of them
cycles, and the rank is the largest k with a_k != 0. One recurrence over
vertex masks gives every a_k in one pass; `elementary_spanning_subgraphs`
lists the covers of one vertex set explicitly and is its twin. Deliberately
combinatorial: this is the cross-check for the numeric path.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import or_
from typing import Iterable

from ..errors import SizeLimitError
from ..graphs import GainGraph
from .cycles import CycleRecord, cycle_record, mask_cycles, vertices

SPAN_LIMIT = 14
COEFF_LIMIT = 12
COEFF_TOL = 1e-8


@dataclass(frozen=True)
class ElementarySubgraph:
    edge_components: tuple[tuple[int, int], ...]
    cycle_components: tuple[CycleRecord, ...]

    @property
    def vertex_span(self) -> frozenset[int]:
        verts = set()
        for e in self.edge_components:
            verts.update(e)
        for c in self.cycle_components:
            verts.update(c.vertices)
        return frozenset(verts)

    @property
    def component_count(self) -> int:
        return len(self.edge_components) + len(self.cycle_components)

    def weight(self) -> float:
        """Contribution to the determinant of its span, without the global sign."""
        w = 2.0 ** len(self.cycle_components)
        for c in self.cycle_components:
            w *= c.real_part
        return w


def elementary_spanning_subgraphs(g: GainGraph, subset: Iterable[int]) -> list[ElementarySubgraph]:
    """All covers of `subset` by vertex-disjoint edges and cycles of g.

    The lowest uncovered vertex takes each edge to a larger neighbour, then
    each cycle of G[subset] whose least vertex it is.
    """
    S = sorted(set(subset))
    if any(v < 0 or v >= g.n for v in S):
        raise ValueError("subset contains vertices outside the graph")
    if len(S) > SPAN_LIMIT:
        raise SizeLimitError(f"elementary cover search limited to {SPAN_LIMIT} vertices, got {len(S)}")
    pos = {v: p for p, v in enumerate(S)}
    adj = [0] * len(S)  # neighbour masks of G[S], by position
    for u, v, _ in g.edges:
        if u in pos and v in pos:
            adj[pos[u]] |= 1 << pos[v]
            adj[pos[v]] |= 1 << pos[u]
    comps: list[list[tuple[int, tuple[int, ...]]]] = [[] for _ in S]  # by least position
    for u, ws in enumerate(adj):
        for v in vertices(ws & (-2 << u)):  # larger neighbours, ascending
            comps[u].append((1 << u | 1 << v, (S[u], S[v])))
    for cyc in mask_cycles(adj):
        comps[cyc[0]].append((sum(1 << p for p in cyc), tuple(S[p] for p in cyc)))
    records: dict[tuple[int, ...], CycleRecord] = {}  # one gain walk per cycle that joins a cover

    def record(cyc: tuple[int, ...]) -> CycleRecord:
        if cyc not in records:
            records[cyc] = cycle_record(g, cyc)
        return records[cyc]

    full = (1 << len(S)) - 1
    out: list[ElementarySubgraph] = []
    parts: list[tuple[int, ...]] = []

    def rec(mask: int):
        if mask == full:
            cycles = tuple(record(p) for p in parts if len(p) > 2)
            out.append(ElementarySubgraph(tuple(sorted(p for p in parts if len(p) == 2)), cycles))
            return
        free = ~mask & full
        for bits, part in comps[(free & -free).bit_length() - 1]:
            if not bits & mask:
                parts.append(part)
                rec(mask | bits)
                parts.pop()

    rec(0)
    return out


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


def char_coeff_combinatorial(g: GainGraph, k: int) -> float:
    """Coefficient of x^(n-k) in the characteristic polynomial, by covers."""
    coeffs = char_coeffs_combinatorial(g)
    if not 0 <= k <= g.n:
        raise ValueError(f"coefficient index {k} out of range for n={g.n}")
    return coeffs[k]


def rank_combinatorial(g: GainGraph) -> int:
    """Largest k with a nonzero k-th coefficient; zero when all vanish."""
    coeffs = char_coeffs_combinatorial(g)
    return max((k for k, a in enumerate(coeffs) if k and abs(a) > COEFF_TOL), default=0)
