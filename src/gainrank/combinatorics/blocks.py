"""Block (biconnected component) structure, and the cycle facts read off it.

Blocks partition the edge set. A block is either a bridge (single edge) or a
2-connected piece. The cycles of a graph are pairwise vertex-disjoint exactly
when every non-bridge block is a single cycle and no two of those blocks
share a cut vertex; `cycle_structure` decides that in one walk over the
blocks and returns either the cycles or a witness of their overlap.
"""
from __future__ import annotations

from typing import TYPE_CHECKING

from ..graphs import SimpleGraph

if TYPE_CHECKING:  # annotations only; structure is read through underlying()
    from ..graphs import GainGraph

Edge = tuple[int, int]


def block_decomposition(G: SimpleGraph) -> tuple[tuple[Edge, ...], ...]:
    """Edges of each block, sorted within a block, blocks in the order
    Tarjan's search closes them (Hopcroft & Tarjan, CACM 16, 1973)."""
    G = G.underlying()
    n = G.n
    # adjacency with edge indices so parallel traversal can skip the tree edge
    adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for ei, (u, v) in enumerate(G.edges):
        adj[u].append((v, ei))
        adj[v].append((u, ei))

    disc = [-1] * n
    low = [0] * n
    estack: list[int] = []
    blocks: list[tuple[Edge, ...]] = []
    timer = 0

    for root in range(n):
        if disc[root] != -1:
            continue
        disc[root] = low[root] = timer
        timer += 1
        # frame: (vertex, parent edge index, cursor into adj[vertex])
        frames: list[list[int]] = [[root, -1, 0]]
        while frames:
            v, pe, i = frames[-1]
            if i < len(adj[v]):
                frames[-1][2] += 1
                w, ei = adj[v][i]
                if ei == pe:
                    continue
                if disc[w] == -1:
                    estack.append(ei)
                    disc[w] = low[w] = timer
                    timer += 1
                    frames.append([w, ei, 0])
                elif disc[w] < disc[v]:
                    estack.append(ei)
                    if disc[w] < low[v]:
                        low[v] = disc[w]
            else:
                frames.pop()
                if not frames:
                    continue
                u = frames[-1][0]
                if low[v] < low[u]:
                    low[u] = low[v]
                if low[v] >= disc[u]:
                    # edges above pe on the stack form one block
                    cut = estack.index(pe)
                    blocks.append(tuple(sorted(G.edges[ei] for ei in estack[cut:])))
                    del estack[cut:]
    assert not estack
    return tuple(blocks)


def cyclomatic_number(G: SimpleGraph | GainGraph) -> int:
    G = G.underlying()
    return len(G.edges) - G.n + len(G.component_vertex_sets())


def _block_as_cycle(block: tuple[Edge, ...]) -> tuple[int, ...]:
    """Vertex order of a block known to be a single cycle, canonical form.

    Canonical: starts at the least vertex, second entry is the smaller of its
    two neighbours.
    """
    nbr: dict[int, list[int]] = {}
    for u, v in block:
        nbr.setdefault(u, []).append(v)
        nbr.setdefault(v, []).append(u)
    start = min(nbr)
    a, b = sorted(nbr[start])
    order = [start, a]
    while True:
        x, y = order[-2], order[-1]
        z = nbr[y][0] if nbr[y][1] == x else nbr[y][1]
        if z == start:
            break
        order.append(z)
    return tuple(order)


def cycle_structure(
    G: SimpleGraph | GainGraph,
) -> tuple[tuple[tuple[int, ...], ...] | None, tuple[int, ...] | None]:
    """(cycles, None) when no two cycles share a vertex, else (None, witness).

    The cycles are in canonical vertex order, sorted by least vertex. The
    witness is the sorted vertex set of the first block, in Tarjan's order,
    that is neither a bridge nor a single cycle. When every such block is a
    cycle, it is the first cycle block that meets an earlier cycle block in
    a cut vertex, joined with the earliest cycle block it meets.
    """
    G = G.underlying()
    cycles: list[tuple[int, ...]] = []
    owner: dict[int, int] = {}  # vertex -> index of the first cycle through it
    overlap = None
    for blk in block_decomposition(G):
        if len(blk) == 1:
            continue
        verts = {v for e in blk for v in e}
        if len(verts) != len(blk):
            return None, tuple(sorted(verts))
        met = [owner[v] for v in verts if v in owner]
        if met and overlap is None:
            overlap = tuple(sorted(verts.union(cycles[min(met)])))
        for v in verts:
            owner.setdefault(v, len(cycles))
        cycles.append(_block_as_cycle(blk))
    if overlap is not None:
        return None, overlap
    cycles.sort(key=lambda c: c[0])
    return tuple(cycles), None


def cycles_pairwise_disjoint(
    G: SimpleGraph | GainGraph,
) -> tuple[bool, tuple[tuple[int, ...], ...] | None]:
    """(True, cycles) when no two cycles share a vertex, else (False, None);
    the cycles as in `cycle_structure`."""
    cycles, _ = cycle_structure(G)
    return cycles is not None, cycles


def contract_cycles(
    G: SimpleGraph | GainGraph, cycles: tuple[tuple[int, ...], ...] | None = None
) -> tuple[SimpleGraph, tuple[int, ...], frozenset[int]]:
    """Shrink each cycle to a single vertex; only valid when cycles are disjoint.

    Returns (contracted graph, old-to-new vertex map, new ids that came from
    cycles). New ids follow the original vertex order, a cycle taking the slot
    of its least vertex. A caller that already holds the disjoint cycles of G
    passes them as `cycles`, which skips the block decomposition.
    """
    G = G.underlying()
    if cycles is None:
        ok, cycles = cycles_pairwise_disjoint(G)
        if not ok:
            raise ValueError("cycle contraction requires pairwise vertex-disjoint cycles")
    cycle_of = {}
    for ci, cyc in enumerate(cycles):
        for v in cyc:
            cycle_of[v] = ci
    new_id = [-1] * G.n
    cycle_new: dict[int, int] = {}
    nxt = 0
    for v in range(G.n):
        ci = cycle_of.get(v)
        if ci is None:
            new_id[v] = nxt
            nxt += 1
        elif ci not in cycle_new:
            cycle_new[ci] = nxt
            new_id[v] = nxt
            nxt += 1
        else:
            new_id[v] = cycle_new[ci]
    edges = set()
    for u, v in G.edges:
        a, b = new_id[u], new_id[v]
        if a == b:
            continue
        edges.add((min(a, b), max(a, b)))
    contracted = SimpleGraph.build(nxt, sorted(edges))
    return contracted, tuple(new_id), frozenset(cycle_new.values())


def cycle_matching_condition(
    G: SimpleGraph | GainGraph, cycles: tuple[tuple[int, ...], ...] | None = None
) -> tuple[bool, int, int]:
    """Compare matchings of the cycle-contracted graph and of G minus cycle vertices.

    Returns (equal, contracted value, deleted value). Only meaningful when
    cycles are pairwise vertex-disjoint; raises ValueError otherwise. As in
    contract_cycles, `cycles` may carry the disjoint cycles already known.
    """
    from .matching import matching_number

    G = G.underlying()
    contracted, new_id, from_cycles = contract_cycles(G, cycles)
    m_contracted = matching_number(contracted)
    without, _ = G.delete_vertices(v for v in range(G.n) if new_id[v] in from_cycles)
    m_deleted = matching_number(without)
    return m_contracted == m_deleted, m_contracted, m_deleted
