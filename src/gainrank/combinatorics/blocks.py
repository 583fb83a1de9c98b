"""Block (biconnected component) structure of an undirected graph.

Blocks partition the edge set. A block is either a bridge (single edge) or a
2-connected piece; in the graphs this package targets most non-bridge blocks
are single cycles, and several downstream checks hinge on exactly that.
"""
from __future__ import annotations

from dataclasses import dataclass

from ..graphs import GainGraph, SimpleGraph, underlying

Edge = tuple[int, int]


@dataclass(frozen=True)
class BlockDecomposition:
    n: int
    block_edges: tuple[tuple[Edge, ...], ...]

    @property
    def blocks(self) -> tuple[frozenset[int], ...]:
        """Vertex set of each block, in discovery order."""
        return tuple(frozenset(v for e in blk for v in e) for blk in self.block_edges)

    @property
    def bridges(self) -> frozenset[Edge]:
        return frozenset(blk[0] for blk in self.block_edges if len(blk) == 1)

    def cycle_block_indices(self) -> tuple[int, ...]:
        out = []
        for i, blk in enumerate(self.block_edges):
            verts = set(v for e in blk for v in e)
            if len(blk) >= 3 and len(blk) == len(verts):
                out.append(i)
        return tuple(out)

    @property
    def cycle_blocks(self) -> tuple[tuple[Edge, ...], ...]:
        return tuple(self.block_edges[i] for i in self.cycle_block_indices())

    def disjoint_cycles(self) -> tuple[tuple[int, ...], ...] | None:
        """The cycles when no two share a vertex, else None.

        Requires every non-bridge block to be a single cycle, and on top of
        that the cycle blocks must not meet even in a cut vertex (two cycles
        through one shared vertex live in distinct blocks, so the block test
        alone is not enough). Each cycle is in canonical vertex order, and
        they are sorted by least vertex.
        """
        cyc_idx = set(self.cycle_block_indices())
        cycles = []
        for i, blk in enumerate(self.block_edges):
            if len(blk) == 1:
                continue
            if i not in cyc_idx:
                return None
            cycles.append(_block_as_cycle(blk))
        seen: set[int] = set()
        for cyc in cycles:
            if seen.intersection(cyc):
                return None
            seen.update(cyc)
        cycles.sort(key=lambda c: c[0])
        return tuple(cycles)

    def overlap_witness(self) -> tuple[int, ...]:
        """Vertices showing that cycles are not pairwise disjoint: a block
        that is not a single cycle, or two cycle blocks meeting in a vertex."""
        cyc_idx = set(self.cycle_block_indices())
        for i, blk in enumerate(self.block_edges):
            if len(blk) > 1 and i not in cyc_idx:
                return tuple(sorted({v for e in blk for v in e}))
        # all non-bridge blocks are cycles, so two of them meet in a cut vertex
        owner: dict[int, int] = {}
        vsets = self.blocks
        for i in cyc_idx:
            for v in vsets[i]:
                if v in owner:
                    return tuple(sorted(vsets[owner[v]] | vsets[i]))
                owner[v] = i
        raise ValueError("cycles are pairwise disjoint; there is no overlap")

    def is_cactus(self) -> bool:
        """Every block is a bridge or a single cycle."""
        cyc = set(self.cycle_block_indices())
        return all(len(blk) == 1 or i in cyc for i, blk in enumerate(self.block_edges))


def block_decomposition(G: SimpleGraph) -> BlockDecomposition:
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
    return BlockDecomposition(n=n, block_edges=tuple(blocks))


def cyclomatic_number(G: SimpleGraph | GainGraph) -> int:
    if isinstance(G, GainGraph):
        G = underlying(G)
    return len(G.edges) - G.n + len(G.component_vertex_sets())


def cycle_vertex_set(G: SimpleGraph | GainGraph) -> frozenset[int]:
    """Vertices lying on at least one cycle: union of non-bridge blocks."""
    if isinstance(G, GainGraph):
        G = underlying(G)
    dec = block_decomposition(G)
    out: set[int] = set()
    for blk in dec.block_edges:
        if len(blk) > 1:
            out.update(v for e in blk for v in e)
    return frozenset(out)


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


def cycles_pairwise_disjoint(
    G: SimpleGraph | GainGraph,
) -> tuple[bool, tuple[tuple[int, ...], ...] | None]:
    """Whether no two cycles share a vertex; if so, also the cycles themselves
    (see BlockDecomposition.disjoint_cycles). Returns (True, cycles) or
    (False, None).
    """
    if isinstance(G, GainGraph):
        G = underlying(G)
    cycles = block_decomposition(G).disjoint_cycles()
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
    if isinstance(G, GainGraph):
        G = underlying(G)
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

    if isinstance(G, GainGraph):
        G = underlying(G)
    contracted, new_id, from_cycles = contract_cycles(G, cycles)
    m_contracted = matching_number(contracted)
    without, _ = G.delete_vertices(v for v in range(G.n) if new_id[v] in from_cycles)
    m_deleted = matching_number(without)
    return m_contracted == m_deleted, m_contracted, m_deleted
