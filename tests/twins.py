"""Reference routes that the tests hold the program against.

Each function here is the independent twin of something the program
computes another way, or a small helper only the tests need:

* `matching_number_bruteforce` and `is_matching`: exhaustive search over
  independent edge sets, the blossom matching's twin;
* `elementary_spanning_subgraphs`: the explicit elementary covers of one
  vertex set, the twin of the Sachs subset recurrence in
  `combinatorics.elementary`; `char_coeff_combinatorial` reads one of its
  coefficients;
* `char_poly_numeric`: characteristic coefficients from the eigenvalues,
  the numeric twin of both coefficient routes;
* `signed_cycle_rule`: the residue rule for signed even cycles, checked
  against `classify_cycle`;
* `find_cycle`, `is_bipartite` and `with_trivial_gains`: small graph
  helpers.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from gainrank.combinatorics.cycles import (
    CycleRecord,
    cycle_record,
    mask_cycles,
    neighbour_masks,
    two_core,
    vertices,
)
from gainrank.combinatorics.elementary import char_coeffs_combinatorial
from gainrank.combinatorics.transversal import _bipartite, _core_cycle
from gainrank.errors import SizeLimitError
from gainrank.gains import Gain
from gainrank.graphs import GainEdge, GainGraph, SimpleGraph
from gainrank.spectral import eigenvalues
from gainrank.theorems import CycleType, classify_cycle

BRUTEFORCE_LIMIT = 12
SPAN_LIMIT = 14


# -- matchings ----------------------------------------------------------------


def matching_number_bruteforce(G: SimpleGraph) -> int:
    """Exhaustive search over independent edge sets; independent of blossom."""
    if G.n > BRUTEFORCE_LIMIT:
        raise SizeLimitError(f"brute-force matching limited to n <= {BRUTEFORCE_LIMIT}, got n={G.n}")
    adjmask = neighbour_masks(G)
    cache: dict[int, int] = {0: 0}

    def best(mask: int) -> int:
        got = cache.get(mask)
        if got is not None:
            return got
        v = (mask & -mask).bit_length() - 1
        res = best(mask & ~(1 << v))  # v stays unmatched
        avail = adjmask[v] & mask
        while avail:
            u_bit = avail & -avail
            avail ^= u_bit
            res = max(res, 1 + best(mask & ~(1 << v) & ~u_bit))
        cache[mask] = res
        return res

    return best((1 << G.n) - 1)


def is_matching(G: SimpleGraph, edges: list[tuple[int, int]]) -> bool:
    edge_set = set(G.underlying().edges)
    seen: set[int] = set()
    for u, v in edges:
        if (min(u, v), max(u, v)) not in edge_set:
            return False
        if u in seen or v in seen:
            return False
        seen.update((u, v))
    return True


# -- characteristic coefficients ------------------------------------------------


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


def char_coeff_combinatorial(g: GainGraph, k: int) -> float:
    """Coefficient of x^(n-k) in the characteristic polynomial, by covers."""
    coeffs = char_coeffs_combinatorial(g)
    if not 0 <= k <= g.n:
        raise ValueError(f"coefficient index {k} out of range for n={g.n}")
    return coeffs[k]


def char_poly_numeric(h: np.ndarray) -> tuple[float, ...]:
    """Coefficients (a_1, ..., a_n) of lambda^n + a_1 lambda^(n-1) + ... + a_n,
    computed from the eigenvalues via elementary symmetric polynomials."""
    w = eigenvalues(h)
    if len(w) == 0:
        return ()
    coeffs = np.poly(w)
    assert np.max(np.abs(np.imag(coeffs))) < 1e-8
    return tuple(float(c) for c in np.real(coeffs)[1:])


# -- cycles and graphs ----------------------------------------------------------


def signed_cycle_rule(l: int, sign: int) -> bool:
    """Even cycle with all gains in {+1, -1}: when is it the singular type?

    Builds the cycle, classifies it, and asserts the classification agrees
    with the residue rule: singular iff (l = 0 mod 4 and product +1) or
    (l = 2 mod 4 and product -1).
    """
    if l % 2 != 0 or l < 4:
        raise ValueError(f"even length at least 4 required, got {l}")
    if sign not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign}")
    edges = [(i, i + 1, "1") for i in range(l - 1)]
    edges.append((0, l - 1, "1" if sign == 1 else "-1"))
    g = GainGraph.build(l, edges)
    t = classify_cycle(g, tuple(range(l)))
    is_singular = t is CycleType.EVEN_SINGULAR
    expected = (l % 4 == 0 and sign == 1) or (l % 4 == 2 and sign == -1)
    assert is_singular == expected, f"signed cycle rule broken at l={l}, sign={sign}"
    return is_singular


def find_cycle(G: SimpleGraph | GainGraph) -> list[int] | None:
    """Vertices of some cycle, in cycle order, or None in a forest."""
    adj = neighbour_masks(G)
    core = two_core(adj, (1 << len(adj)) - 1)
    return _core_cycle(adj, core) if core else None


def is_bipartite(G: SimpleGraph | GainGraph) -> bool:
    adj = neighbour_masks(G)
    return _bipartite(adj, (1 << len(adj)) - 1)


def with_trivial_gains(G: SimpleGraph) -> GainGraph:
    one = Gain.one()
    return GainGraph(G.n, tuple(GainEdge(u, v, one) for u, v in G.edges))
