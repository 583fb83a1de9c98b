"""Maximum matching: blossom algorithm plus an exhaustive oracle.

The blossom implementation is the classic array formulation (BFS alternating
forest, base[] pointers, contraction by marking the blossom path through the
least common ancestor). The oracle enumerates independent edge sets by
branching on the lowest uncovered vertex and is limited to small graphs.
"""
from __future__ import annotations

from collections import deque

from ..errors import SizeLimitError
from ..graphs import SimpleGraph
from .cycles import neighbour_masks

BRUTEFORCE_LIMIT = 12


def maximum_matching(G: SimpleGraph) -> list[tuple[int, int]]:
    """One maximum matching, as a list of (u, v) edges with u < v."""
    G = G.underlying()
    n = G.n
    adj = G.neighbors()
    match = [-1] * n
    # greedy seed cuts the number of augmenting phases roughly in half
    for u, v in G.edges:
        if match[u] == -1 and match[v] == -1:
            match[u], match[v] = v, u

    p = [-1] * n
    base = list(range(n))
    used = [False] * n

    def lca(a: int, b: int) -> int:
        seen = [False] * n
        while True:
            a = base[a]
            seen[a] = True
            if match[a] == -1:
                break
            a = p[match[a]]
        while True:
            b = base[b]
            if seen[b]:
                return b
            b = p[match[b]]

    def mark_path(v: int, b: int, child: int, in_blossom: list[bool]) -> None:
        while base[v] != b:
            in_blossom[base[v]] = True
            in_blossom[base[match[v]]] = True
            p[v] = child
            child = match[v]
            v = p[match[v]]

    def find_path(root: int) -> bool:
        for i in range(n):
            used[i] = False
            p[i] = -1
            base[i] = i
        used[root] = True
        queue = deque([root])
        while queue:
            v = queue.popleft()
            for to in adj[v]:
                if base[v] == base[to] or match[v] == to:
                    continue
                if to == root or (match[to] != -1 and p[match[to]] != -1):
                    # odd cycle: contract the blossom around the common base
                    cur = lca(v, to)
                    in_blossom = [False] * n
                    mark_path(v, cur, to, in_blossom)
                    mark_path(to, cur, v, in_blossom)
                    for i in range(n):
                        if in_blossom[base[i]]:
                            base[i] = cur
                            if not used[i]:
                                used[i] = True
                                queue.append(i)
                elif p[to] == -1:
                    p[to] = v
                    if match[to] == -1:
                        # augmenting path found; flip it
                        while to != -1:
                            pv = p[to]
                            ppv = match[pv]
                            match[to], match[pv] = pv, to
                            to = ppv
                        return True
                    used[match[to]] = True
                    queue.append(match[to])
        return False

    for v in range(n):
        if match[v] == -1:
            find_path(v)
    return sorted((min(u, match[u]), max(u, match[u])) for u in range(n) if match[u] > u)


def matching_number(G: SimpleGraph) -> int:
    return len(maximum_matching(G))


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
