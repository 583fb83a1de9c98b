"""Vertex deletion searches: odd cycle transversal, acyclic deletion.

Both are exact searches over small graphs. The transversal walks subset
sizes upward, so the first hit is a minimum; the acyclic-deletion search
branches on cycles, which reaches every minimal feedback set, and removing
fewer vertices never shrinks a matching, so minimal sets carry the maximum.
"""
from __future__ import annotations

from itertools import combinations

from ..errors import SizeLimitError
from ..graphs import GainGraph, SimpleGraph, underlying
from .blocks import cycle_vertex_set
from .matching import matching_number

TRANSVERSAL_LIMIT = 20


def _as_simple(G: SimpleGraph | GainGraph) -> SimpleGraph:
    return underlying(G) if isinstance(G, GainGraph) else G


def is_bipartite(G: SimpleGraph | GainGraph) -> bool:
    G = _as_simple(G)
    adj = G.neighbors()
    color = [-1] * G.n
    for root in range(G.n):
        if color[root] != -1:
            continue
        color[root] = 0
        queue = [root]
        while queue:
            v = queue.pop()
            for w in adj[v]:
                if color[w] == -1:
                    color[w] = 1 - color[v]
                    queue.append(w)
                elif color[w] == color[v]:
                    return False
    return True


def find_cycle(G: SimpleGraph | GainGraph) -> list[int] | None:
    """Vertices of some cycle, or None in a forest."""
    G = _as_simple(G)
    adj = G.neighbors()
    parent = [-1] * G.n
    state = [0] * G.n  # 0 new, 1 on stack, 2 done
    for root in range(G.n):
        if state[root]:
            continue
        state[root] = 1
        stack = [(root, iter(adj[root]))]
        while stack:
            v, it = stack[-1]
            advanced = False
            for w in it:
                if w == parent[v]:
                    continue
                if state[w] == 1:
                    cyc = [v]
                    x = v
                    while x != w:
                        x = parent[x]
                        cyc.append(x)
                    return cyc
                if state[w] == 0:
                    parent[w] = v
                    state[w] = 1
                    stack.append((w, iter(adj[w])))
                    advanced = True
                    break
            if not advanced:
                state[v] = 2
                stack.pop()
    return None


def odd_cycle_transversal(G: SimpleGraph | GainGraph) -> tuple[int, frozenset[int]]:
    """Minimum vertex set meeting every odd cycle, with one witness.

    Only vertices lying on cycles can be part of a minimum transversal, so
    the subset search runs over those. Witness is the lexicographically
    first minimum set.
    """
    G = _as_simple(G)
    if G.n > TRANSVERSAL_LIMIT:
        raise SizeLimitError(f"transversal search limited to n <= {TRANSVERSAL_LIMIT}, got n={G.n}")
    if is_bipartite(G):
        return 0, frozenset()
    candidates = sorted(cycle_vertex_set(G))
    for s in range(1, len(candidates) + 1):
        for sub in combinations(candidates, s):
            H, _ = G.delete_vertices(sub)
            if is_bipartite(H):
                return s, frozenset(sub)
    raise AssertionError("unreachable: deleting all cycle vertices leaves a forest")


def max_acyclic_deletion_matching(G: SimpleGraph | GainGraph) -> tuple[int, frozenset[int]]:
    """Largest matching number among forests G - V0, with a witness V0.

    V0 ranges over vertex sets whose removal leaves a forest (the empty set
    included when G already is one). Branching on a remaining cycle visits
    every minimal such set, and supersets never do better. Ties prefer the
    lexicographically smallest witness.
    """
    G = _as_simple(G)
    if G.n > TRANSVERSAL_LIMIT:
        raise SizeLimitError(f"acyclic deletion search limited to n <= {TRANSVERSAL_LIMIT}, got n={G.n}")
    best: tuple[int, tuple[int, ...]] | None = None
    seen: set[frozenset[int]] = set()

    def consider(removed: frozenset[int], forest: SimpleGraph) -> None:
        nonlocal best
        key = (matching_number(forest), tuple(sorted(removed)))
        if best is None or key[0] > best[0] or (key[0] == best[0] and key[1] < best[1]):
            best = key

    def rec(removed: frozenset[int]) -> None:
        if removed in seen:
            return
        seen.add(removed)
        H, kept = G.delete_vertices(removed)
        cyc = find_cycle(H)
        if cyc is None:
            consider(removed, H)
            return
        for p in cyc:
            rec(removed | {kept[p]})

    rec(frozenset())
    assert best is not None
    return best[0], frozenset(best[1])
