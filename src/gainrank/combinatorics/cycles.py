"""Cycle enumeration and per-cycle gain products.

A cycle is stored in canonical traversal order: least vertex first, then the
smaller of its two neighbours. The gain product depends on direction, but
its real part does not (reversal conjugates it), and everything downstream
only consumes the canonical direction or the real part.
"""
from __future__ import annotations

from dataclasses import dataclass

from ..errors import SizeLimitError
from ..gains import Gain
from ..graphs import GainGraph, SimpleGraph, underlying

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

    Rooted search: a cycle is reported at its least vertex, walking only
    through larger vertices, with the direction fixed by path[1] < path[-1].
    Raises SizeLimitError when more than `limit` cycles exist.
    """
    if isinstance(G, GainGraph):
        G = underlying(G)
    n = G.n
    adj = [sorted(ws) for ws in G.neighbors()]
    out: list[tuple[int, ...]] = []
    in_path = [False] * n
    for root in range(n):
        stack = [iter(adj[root])]
        path = [root]
        in_path[root] = True
        while stack:
            it = stack[-1]
            advanced = False
            for w in it:
                if w == root:
                    if len(path) >= 3 and path[1] < path[-1]:
                        out.append(tuple(path))
                        if len(out) > limit:
                            raise SizeLimitError(
                                f"more than {limit} cycles; raise the limit to keep going"
                            )
                elif w > root and not in_path[w]:
                    path.append(w)
                    in_path[w] = True
                    stack.append(iter(adj[w]))
                    advanced = True
                    break
            if not advanced:
                stack.pop()
                in_path[path.pop()] = False
    return out
