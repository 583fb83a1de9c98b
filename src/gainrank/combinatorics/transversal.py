"""Vertex deletion searches: odd cycle transversal, acyclic deletion.

Both are exact searches over small graphs, on vertex bitmasks. The
transversal walks subsets of the 2-core by size upward, so the first hit is
a minimum.

The acyclic-deletion search partitions the feedback vertex sets by
branching on one cycle C = (c_1, ..., c_k) of what remains: branch i
deletes c_i and keeps c_1..c_(i-1) for good (Schwikowski & Speckenmeyer,
Discrete Appl. Math. 117, 2002). Every set whose removal leaves a forest
lies in exactly one branch, so no leaf is reached twice and every forest
G - V0 is scored. A forest on k vertices has matching number at most
k // 2, so a node with no more than 2 * best + 1 vertices left cannot
improve the best matching and is cut.
"""
from __future__ import annotations

from itertools import combinations

from ..errors import SizeLimitError
from ..graphs import GainGraph, SimpleGraph
from .cycles import cover_walk, neighbour_masks, two_core, vertices

TRANSVERSAL_LIMIT = 20


def _bipartite(adj: list[int], alive: int) -> bool:
    """Whether the subgraph induced on `alive` has no odd cycle."""
    side = [0, 0]  # vertices coloured 0 and 1 so far
    unseen = alive
    while unseen:
        frontier = unseen & -unseen
        colour = 0
        while frontier:
            side[colour] |= frontier
            unseen &= ~frontier
            reach = 0
            for v in vertices(frontier):
                reach |= adj[v]
            if reach & side[colour]:
                return False
            colour ^= 1
            frontier = reach & unseen
    return True


def _core_cycle(adj: list[int], core: int) -> list[int]:
    """A cycle of a nonempty 2-core: walk without stepping back until a
    vertex repeats. Every core vertex has two core neighbours, so the walk
    never stalls."""
    v = (core & -core).bit_length() - 1
    back = 0
    at: dict[int, int] = {}
    walk: list[int] = []
    while v not in at:
        at[v] = len(walk)
        walk.append(v)
        ahead = adj[v] & core & ~back
        back = 1 << v
        v = (ahead & -ahead).bit_length() - 1
    return walk[at[v]:]


def odd_cycle_transversal(G: SimpleGraph | GainGraph) -> tuple[int, frozenset[int]]:
    """Minimum vertex set meeting every odd cycle, with one witness.

    A vertex on no cycle is never part of a minimum transversal, and every
    vertex on a cycle lies in the 2-core, so the subset search runs over
    the 2-core. Witness is the lexicographically first minimum set.
    """
    adj = neighbour_masks(G)
    n = len(adj)
    if n > TRANSVERSAL_LIMIT:
        raise SizeLimitError(f"transversal search limited to n <= {TRANSVERSAL_LIMIT}, got n={n}")
    full = (1 << n) - 1
    if _bipartite(adj, full):
        return 0, frozenset()
    candidates = list(vertices(two_core(adj, full)))
    for s in range(1, len(candidates) + 1):
        for sub in combinations(candidates, s):
            if _bipartite(adj, full & ~sum(1 << v for v in sub)):
                return s, frozenset(sub)
    raise AssertionError("unreachable: deleting the 2-core leaves a forest")


def max_acyclic_deletion_matching(G: SimpleGraph | GainGraph) -> tuple[int, frozenset[int]]:
    """Largest matching number among forests G - V0, with a witness V0.

    V0 ranges over vertex sets whose removal leaves a forest (the empty set
    included when G already is one). The search is a stack of (removed,
    kept for good) pairs: a node whose 2-core is empty is a leaf, scored by
    the number of cover_walk picks on its forest; otherwise it branches on a
    cycle of the core, branch i deleting the i-th free cycle vertex and
    keeping the free ones before it. The witness is the first V0 the search reaches at the
    maximum: G - V0 is a forest whose matching number is the value. V0 is
    not promised to be minimal or lexicographically first.
    """
    adj = neighbour_masks(G)
    n = len(adj)
    if n > TRANSVERSAL_LIMIT:
        raise SizeLimitError(f"acyclic deletion search limited to n <= {TRANSVERSAL_LIMIT}, got n={n}")
    full = (1 << n) - 1
    best, witness = -1, 0
    stack = [(0, 0)]
    while stack:
        removed, kept = stack.pop()
        alive = full & ~removed
        if alive.bit_count() // 2 <= best:
            continue  # no forest on these vertices can beat the best matching
        core = two_core(adj, alive)
        if not core:  # a forest, whose cover walk picks a maximum matching
            value = sum(1 for _ in cover_walk(adj, alive))
            if value > best:
                best, witness = value, removed
            continue
        for v in _core_cycle(adj, core):
            if not kept >> v & 1:
                stack.append((removed | 1 << v, kept))
                kept |= 1 << v
    return best, frozenset(vertices(witness))
