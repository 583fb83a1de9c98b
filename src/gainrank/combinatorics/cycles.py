"""Cycle enumeration and per-cycle gain products.

A cycle is stored in canonical traversal order: least vertex first, then the
smaller of its two neighbours. The gain product depends on direction, but
its real part does not (reversal conjugates it), and everything downstream
only consumes the canonical direction or the real part.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator

from ..errors import SizeLimitError
from ..gains import Gain

if TYPE_CHECKING:  # annotations only; structure is read through underlying()
    from ..graphs import GainGraph, SimpleGraph

CYCLE_LIMIT = 100_000


def canonical_cycle(vertices: tuple[int, ...]) -> tuple[int, ...]:
    """Rotate and orient a cycle's vertex sequence into canonical form."""
    i = vertices.index(min(vertices))
    rot = vertices[i:] + vertices[:i]
    if rot[1] > rot[-1]:
        rot = (rot[0],) + tuple(reversed(rot[1:]))
    return rot


@dataclass(frozen=True)
class CycleRecord:
    vertices: tuple[int, ...]  # canonical order
    gain: Gain  # product along the canonical direction

    @property
    def length(self) -> int:
        return len(self.vertices)

    @property
    def real_part(self) -> float:
        return self.gain.real

    @property
    def vertex_set(self) -> frozenset[int]:
        return frozenset(self.vertices)


def cycle_record(G: GainGraph, vertices: tuple[int, ...]) -> CycleRecord:
    verts = tuple(vertices)
    if len(verts) < 3 or len(set(verts)) != len(verts):
        raise ValueError(f"not a cycle: {verts!r}")
    verts = canonical_cycle(verts)
    gain = Gain.one()
    for a, b in zip(verts, verts[1:] + verts[:1]):
        try:
            gain = gain * G.gain(a, b)
        except KeyError:
            raise ValueError(f"cycle uses edge ({a}, {b}) which is not in the graph") from None
    return CycleRecord(vertices=verts, gain=gain)


def cycle_records(G: GainGraph, cycles) -> list[CycleRecord]:
    return [cycle_record(G, c) for c in cycles]


def enumerate_cycles(G: SimpleGraph | GainGraph, limit: int = CYCLE_LIMIT) -> list[tuple[int, ...]]:
    """All simple cycles, each exactly once, in canonical form.

    Raises SizeLimitError when more than `limit` cycles exist.
    """
    return mask_cycles(neighbour_masks(G), limit)


def neighbour_masks(G: SimpleGraph | GainGraph) -> list[int]:
    """One bitmask of neighbours per vertex."""
    G = G.underlying()
    adj = [0] * G.n
    for u, v in G.edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return adj


def vertices(mask: int):
    """The vertices of a mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def two_core(adj: list[int], alive: int) -> int:
    """Vertices of `alive` left after peeling, again and again, every vertex
    with at most one neighbour left: exactly those on a cycle or on a path
    between two cycles of the subgraph induced on `alive`."""
    deg = [0] * len(adj)
    leaves = []
    for v in vertices(alive):
        deg[v] = (adj[v] & alive).bit_count()
        if deg[v] < 2:
            leaves.append(v)
    core = alive
    while leaves:
        v = leaves.pop()
        core ^= 1 << v
        for w in vertices(adj[v] & core):
            deg[w] -= 1
            if deg[w] == 1:
                leaves.append(w)
    return core


def cover_walk(adj: list[int], alive: int) -> Iterator[tuple[int | None, int]]:
    """Greedy cover picks on the subgraph induced on `alive`, in order, as
    (leaf, u): u is the one neighbour left to a leaf, or a vertex of largest
    degree, the least such (leaf None), when no leaf is left. Each pick
    deletes u's edges before it is yielded, and the walk ends with the last
    edge. A forest always has a leaf, so there every pick is a leaf pick and
    the picks form a maximum matching."""
    deg = [(a & alive).bit_count() if alive >> v & 1 else 0 for v, a in enumerate(adj)]
    leaves = [v for v, d in enumerate(deg) if d == 1]
    while True:
        while leaves and not deg[leaves[-1]]:  # isolated since it was listed
            leaves.pop()
        if leaves:
            leaf = leaves.pop()
            u = (adj[leaf] & alive).bit_length() - 1
        else:
            top = max(deg, default=0)
            if not top:
                return
            leaf, u = None, deg.index(top)
        alive ^= 1 << u
        deg[u] = 0
        for x in vertices(adj[u] & alive):
            deg[x] -= 1
            if deg[x] == 1:
                leaves.append(x)
        yield leaf, u


def mask_cycles(adj: list[int], limit: int = CYCLE_LIMIT) -> list[tuple[int, ...]]:
    """All simple cycles of the graph with neighbour masks `adj`, canonical.

    Rooted search in the 2-core: a cycle is reported at its least vertex,
    walking only through larger vertices in ascending order, with the
    direction fixed by path[1] < path[-1]. Raises SizeLimitError past
    `limit` cycles.
    """
    core = two_core(adj, (1 << len(adj)) - 1)
    out: list[tuple[int, ...]] = []
    for root in vertices(core):
        above = core & (-2 << root)  # core vertices larger than root
        if (adj[root] & above).bit_count() < 2:
            continue  # a cycle leaves its least vertex by two larger neighbours
        path, on = [root], 1 << root
        todo = [adj[root] & above]  # per path vertex, the larger neighbours left to try
        while todo:
            ahead = todo[-1] & ~on
            if not ahead:
                todo.pop()
                on ^= 1 << path.pop()
                continue
            low = ahead & -ahead
            todo[-1] = ahead ^ low
            w = low.bit_length() - 1
            path.append(w)
            on |= low
            if adj[w] >> root & 1 and len(path) >= 3 and path[1] < w:
                out.append(tuple(path))
                if len(out) > limit:
                    raise SizeLimitError(f"more than {limit} cycles; raise the limit to keep going")
            todo.append(adj[w] & above)
    return out
