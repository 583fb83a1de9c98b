"""Graph data model: simple graphs, gain graphs, and the text format.

Gains are stored once per unordered edge in canonical (u < v) direction; the
reverse-direction gain is the conjugate and is computed on demand, never
stored. That makes Hermitian symmetry structurally unviolable.

Structure that ignores the gains is read from `underlying()`: a gain graph's
one SimpleGraph, built on first call, or a SimpleGraph itself. One routine
cuts induced subgraphs of both, and components are cut in one pass.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, NamedTuple, Sequence

from .errors import ParseError
from .gains import Gain


class GainEdge(NamedTuple):
    u: int
    v: int
    gain: Gain


def _check_edge_shape(n: int, u: int, v: int) -> None:
    if not (0 <= u < n and 0 <= v < n):
        raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
    if u == v:
        raise ValueError(f"loop at vertex {u} not allowed")


@dataclass(frozen=True)
class SimpleGraph:
    """An undirected simple graph on vertices 0..n-1."""

    n: int
    edges: tuple[tuple[int, int], ...]

    @classmethod
    def build(cls, n: int, edges: Iterable[Sequence[int]]) -> "SimpleGraph":
        canon = []
        for u, v in edges:
            _check_edge_shape(n, u, v)
            canon.append((min(u, v), max(u, v)))
        canon.sort()
        for a, b in zip(canon, canon[1:]):
            if a == b:
                raise ValueError(f"duplicate edge {a}")
        return cls(n, tuple(canon))

    def neighbors(self) -> list[list[int]]:
        adj: list[list[int]] = [[] for _ in range(self.n)]
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        return adj

    def degrees(self) -> list[int]:
        deg = [0] * self.n
        for u, v in self.edges:
            deg[u] += 1
            deg[v] += 1
        return deg

    def underlying(self) -> "SimpleGraph":
        return self

    def delete_vertices(self, s: Iterable[int]) -> tuple["SimpleGraph", tuple[int, ...]]:
        """Induced subgraph on V - s, plus the map new id -> old id."""
        return _induced(self, s, tuple)

    def component_vertex_sets(self) -> list[list[int]]:
        adj = self.neighbors()
        seen = [False] * self.n
        out = []
        for root in range(self.n):
            if seen[root]:
                continue
            stack, comp = [root], []
            seen[root] = True
            while stack:
                v = stack.pop()
                comp.append(v)
                for w in adj[v]:
                    if not seen[w]:
                        seen[w] = True
                        stack.append(w)
            out.append(sorted(comp))
        return out

    def is_connected(self) -> bool:
        return self.n <= 1 or len(self.component_vertex_sets()) == 1


@dataclass(frozen=True)
class GainGraph:
    """A complex unit gain graph; edges carry the gain for the u -> v direction."""

    n: int
    edges: tuple[GainEdge, ...]

    @classmethod
    def build(cls, n: int, edges: Iterable[Sequence]) -> "GainGraph":
        canon = []
        for u, v, g in edges:
            _check_edge_shape(n, u, v)
            gain = Gain.coerce(g)
            if u > v:
                u, v, gain = v, u, gain.conjugate()
            canon.append(GainEdge(u, v, gain))
        canon.sort(key=lambda e: (e.u, e.v))
        for a, b in zip(canon, canon[1:]):
            if (a.u, a.v) == (b.u, b.v):
                raise ValueError(f"duplicate edge ({a.u}, {a.v})")
        return cls(n, tuple(canon))

    @cached_property
    def _underlying(self) -> SimpleGraph:  # built on first call, once per graph
        return SimpleGraph(self.n, tuple((e.u, e.v) for e in self.edges))

    def underlying(self) -> SimpleGraph:
        return self._underlying

    def degrees(self) -> list[int]:
        return self.underlying().degrees()

    @cached_property
    def _gain_index(self) -> dict[tuple[int, int], Gain]:
        # built on first lookup, once per graph; not a dataclass field
        return {(e.u, e.v): e.gain for e in self.edges}

    def gain(self, u: int, v: int) -> Gain:
        """Gain of the oriented edge u -> v (conjugate of the stored one for v < u)."""
        index = self._gain_index
        if (u, v) in index:
            return index[u, v]
        if (v, u) in index:
            return index[v, u].conjugate()
        raise KeyError(f"no edge between {u} and {v}")

    def delete_vertices(self, s: Iterable[int]) -> tuple["GainGraph", tuple[int, ...]]:
        """Induced subgraph on V - s, gains kept, plus the map new id -> old id."""
        return _induced(self, s, GainEdge._make)

    def components(self) -> list[tuple["GainGraph", tuple[int, ...]]]:
        """Connected components by least vertex, each reindexed, with maps new
        id -> parent id; one pass over the vertices and one over the edges."""
        comps = self.underlying().component_vertex_sets()
        where = {v: (c, i) for c, comp in enumerate(comps) for i, v in enumerate(comp)}
        edges: list[list[GainEdge]] = [[] for _ in comps]
        for u, v, gain in self.edges:  # each component's edges keep their order
            edges[where[u][0]].append(GainEdge(where[u][1], where[v][1], gain))
        return [(GainGraph(len(comp), tuple(es)), tuple(comp)) for comp, es in zip(comps, edges)]

    def is_connected(self) -> bool:
        return self.underlying().is_connected()


def _induced(g, s: Iterable[int], make_edge):
    """g - s renumbered in vertex order, and the map new id -> old id, for either
    graph type; `make_edge` rebuilds an edge from its new ends and its gain, if any."""
    drop = set(s)
    for x in drop:
        if not 0 <= x < g.n:
            raise ValueError(f"vertex {x} out of range")
    kept = tuple(v for v in range(g.n) if v not in drop)
    new_id = {old: i for i, old in enumerate(kept)}
    edges = [e for e in g.edges if e[0] not in drop and e[1] not in drop]
    sub = tuple(make_edge((new_id[e[0]], new_id[e[1]]) + e[2:]) for e in edges)
    return type(g)(len(kept), sub), kept


def pendant_vertices(g: GainGraph | SimpleGraph) -> frozenset[int]:
    """All vertices of degree exactly 1."""
    return frozenset(v for v, d in enumerate(g.degrees()) if d == 1)


# -- text format -----------------------------------------------------------
#
# One record per line. `#` starts a comment line, `n <count>` is the header,
# `e <u> <v> <gain>` lists each unordered edge once. Gain tokens: 1, -1, i,
# -i, rot(p/q) for exp(2*pi*i*p/q), c(re,im) for anything else on the circle.


def parse_gain_graph(text: str | bytes) -> GainGraph:
    if isinstance(text, (bytes, bytearray)):
        text = text.decode("utf-8")
    n = None
    edges: list[tuple[int, int, Gain]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if parts[0] == "n":
            if n is not None:
                raise ParseError(f"line {lineno}: duplicate header")
            if len(parts) != 2:
                raise ParseError(f"line {lineno}: header must be 'n <count>'")
            try:
                n = int(parts[1])
            except ValueError:
                raise ParseError(f"line {lineno}: bad vertex count {parts[1]!r}") from None
            if n < 0:
                raise ParseError(f"line {lineno}: negative vertex count")
        elif parts[0] == "e":
            if n is None:
                raise ParseError(f"line {lineno}: edge before 'n' header")
            if len(parts) != 4:
                raise ParseError(f"line {lineno}: edge must be 'e <u> <v> <gain>'")
            try:
                u, v = int(parts[1]), int(parts[2])
            except ValueError:
                raise ParseError(f"line {lineno}: bad vertex id") from None
            gain = Gain.parse_token(parts[3])
            edges.append((u, v, gain))
        else:
            raise ParseError(f"line {lineno}: unrecognized record {parts[0]!r}")
    if n is None:
        raise ParseError("missing 'n <count>' header")
    try:
        return GainGraph.build(n, edges)
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def serialize_gain_graph(g: GainGraph) -> str:
    """Deterministic text form; edges are already stored sorted."""
    lines = [f"n {g.n}"]
    lines.extend(f"e {e.u} {e.v} {e.gain.token()}" for e in g.edges)
    return "\n".join(lines) + "\n"
