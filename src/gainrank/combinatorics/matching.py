"""Maximum matching: the blossom algorithm.

The classic array formulation (BFS alternating forest, base[] pointers,
contraction by marking the blossom path through the least common ancestor).
The tests hold it against an exhaustive search over independent edge sets.
"""
from __future__ import annotations

from collections import deque

from ..graphs import SimpleGraph


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
