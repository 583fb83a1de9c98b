"""Seeded instance generation: random graphs, gain assignment, exhaustive
streams, and constructors that target the extremal families.

Everything is deterministic given its seed; streams have a fixed order so
runs are reproducible and shardable by index.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import partial
from itertools import chain, combinations, compress, permutations, repeat
from typing import Iterator, NamedTuple

import numpy as np

from .errors import SizeLimitError
from .gains import Gain
from .graphs import GainGraph, SimpleGraph
from .theorems import verify_equivalence

GRAPH_ENUM_LIMIT = 8
_UNIFORM_REAL_BAND = 1e-6
_MASK_BLOCK = 1 << 20  # edge masks tested for connectivity at once
_TREE_BLOCK = 1 << 15  # Pruefer heads decoded at once: one block up to n = 7, eight at n = 8
_ORDERS = {"trivial": 1, "signed": 2, "gaussian": 4}


@dataclass(frozen=True)
class GainSetSpec:
    """Which gain alphabet to draw from, and the seed that fixes the draws.

    kinds: trivial (only 1), signed (+-1), gaussian (+-1, +-i), roots (all
    q-th roots of unity), uniform (modulus-1 floats). Only uniform is
    infinite; the others expose their full value list.
    """

    kind: str
    q: int | None = None
    seed: int = 0

    def __post_init__(self):
        if self.kind not in ("trivial", "signed", "gaussian", "roots", "uniform"):
            raise ValueError(f"unknown gain set kind {self.kind!r}")
        if self.kind == "roots":
            if self.q is None or self.q < 1:
                raise ValueError("roots gain set needs q >= 1")
        elif self.q is not None:
            raise ValueError(f"q only applies to roots, not {self.kind!r}")

    @classmethod
    def parse(cls, text: str, seed: int = 0) -> "GainSetSpec":
        if text.startswith("roots:"):
            return cls("roots", q=int(text.split(":", 1)[1]), seed=seed)
        return cls(text, seed=seed)

    @property
    def order(self) -> int | None:
        """q for the group of q-th roots of unity drawn from, None for uniform."""
        return self.q if self.kind == "roots" else _ORDERS.get(self.kind)

    def values(self) -> tuple[Gain, ...] | None:
        """The finite alphabet, or None for uniform."""
        q = self.order
        return None if q is None else tuple(Gain.from_angle(j, q) for j in range(q))

    def sample(self, rng: random.Random) -> Gain:
        q = self.order
        if q is not None:
            return Gain.from_angle(rng.randrange(q), q)
        # uniform floats; stay clear of the purely-imaginary axis so cycle
        # classification never sits on the Type-E boundary by accident
        while True:
            theta = rng.random()
            z = complex(math.cos(2 * math.pi * theta), math.sin(2 * math.pi * theta))
            if abs(z.real) >= _UNIFORM_REAL_BAND:
                return Gain.from_complex(z)


def _prufer_decode(n: int, seq) -> list[tuple[int, int]]:
    """Edges of the labeled tree with the given length n-2 sequence, each
    as (min, max), in decode order.

    Leaf stripping: deg holds 1 + remaining occurrences, and consumed leaves
    are marked 0. The pointer only moves forward: a vertex can drop to
    degree one below it only through the current decrement, and that case
    is caught immediately."""
    deg = [1] * n
    for a in seq:
        deg[a] += 1
    ptr = 0
    leaf = -1
    edges = []
    for a in seq:
        if leaf == -1:
            while deg[ptr] != 1:
                ptr += 1
            leaf = ptr
        edges.append((leaf, a) if leaf < a else (a, leaf))
        deg[leaf] = 0
        deg[a] -= 1
        leaf = a if deg[a] == 1 and a < ptr else -1
    edges.append((deg.index(1), n - 1))  # the largest vertex is never the smallest leaf
    return edges


def random_tree(n: int, rng: random.Random) -> list[tuple[int, int]]:
    if n <= 1:
        return []
    return _prufer_decode(n, [rng.randrange(n) for _ in range(n - 2)])


def random_connected_graph(n: int, extra_edges: int, seed: int) -> SimpleGraph:
    """Uniform labeled spanning tree plus `extra_edges` distinct non-tree edges."""
    if n < 1:
        raise ValueError("need at least one vertex")
    slack = n * (n - 1) // 2 - (n - 1)
    if not 0 <= extra_edges <= slack:
        raise ValueError(f"extra_edges={extra_edges} infeasible for n={n} (max {slack})")
    rng = random.Random(seed)
    edges = set(random_tree(n, rng))
    non_tree = [e for e in combinations(range(n), 2) if e not in edges]
    edges.update(rng.sample(non_tree, extra_edges))
    return SimpleGraph.build(n, sorted(edges))


def assign_gains(G: SimpleGraph, spec: GainSetSpec) -> GainGraph:
    rng = random.Random(spec.seed)
    return GainGraph.build(G.n, [(u, v, spec.sample(rng)) for u, v in G.edges])


def make_cycle(l: int, target_gain) -> GainGraph:
    """Cycle 0-1-...-(l-1)-0 whose canonical gain product is target_gain.

    The whole product sits on the first edge; every other edge carries 1.
    """
    if l < 3:
        raise ValueError(f"cycle length must be at least 3, got {l}")
    gain = Gain.coerce(target_gain)
    edges = [(0, 1, gain)]
    edges += [(i, i + 1, Gain.one()) for i in range(1, l - 1)]
    edges.append((0, l - 1, Gain.one()))
    return GainGraph.build(l, edges)


def _extremal_candidate(
    kind: str, cycle_lengths: list[int], rng: random.Random
) -> GainGraph:
    k = len(cycle_lengths)
    edges: list[tuple[int, int, Gain]] = []
    offsets = []
    pos = 0
    for l in cycle_lengths:
        offsets.append(pos)
        if kind == "lower":
            target = Gain.from_angle(0) if (l // 2) % 2 == 0 else Gain.from_angle(1, 2)
        else:
            # +-1 keeps the real part of the product away from zero and keeps
            # the verification on the exact rank backend
            target = Gain.from_angle(0) if rng.random() < 0.5 else Gain.from_angle(1, 2)
        edges.append((pos, pos + 1, target))
        edges += [(pos + i, pos + i + 1, Gain.one()) for i in range(1, l - 1)]
        edges.append((pos, pos + l - 1, Gain.one()))
        pos += l
    if k >= 2:
        # each cycle gets a pendant 2-path through a fresh midpoint; the
        # midpoints are then joined by a random tree, so every cycle-to-cycle
        # connection passes through at least two fresh vertices
        mids = []
        for i, l in enumerate(cycle_lengths):
            attach = offsets[i] + rng.randrange(l)
            mid, tip = pos, pos + 1
            pos += 2
            mids.append(mid)
            edges.append((attach, mid, Gain.one()))
            edges.append((mid, tip, Gain.one()))
        for a, b in random_tree(k, rng):
            edges.append((mids[a], mids[b], Gain.one()))
    return GainGraph.build(pos, edges)


def make_extremal(
    kind: str, num_cycles: int, cycle_lengths: list[int], tree_glue_seed: int = 0
) -> GainGraph:
    """Graph that provably attains the lower (2m-2c) or upper (2m+c) rank bound.

    Builds disjoint cycles of the requested lengths with appropriate gains
    and glues them through fresh vertices. The gains on the first cycle
    edges fix the cycle types, and condition (iii) holds by construction:
    G - V(C) is the midpoints with their tips, and every edge of G/C uses a
    midpoint, so both matching numbers equal the number of cycles.
    `verify_equivalence` checks the structural predicate and the spectral
    equality, and a failure raises. A single cycle is returned bare.
    """
    if kind not in ("lower", "upper"):
        raise ValueError(f"kind must be lower or upper, got {kind!r}")
    if num_cycles != len(cycle_lengths):
        raise ValueError(f"num_cycles={num_cycles} but {len(cycle_lengths)} lengths given")
    if num_cycles < 1:
        raise ValueError("need at least one cycle")
    for l in cycle_lengths:
        if l < 3:
            raise ValueError(f"cycle length {l} too short")
        if kind == "lower" and l % 2:
            raise ValueError(f"lower kind needs even lengths, got {l}")
        if kind == "upper" and l % 2 == 0:
            raise ValueError(f"upper kind needs odd lengths, got {l}")
    g = _extremal_candidate(kind, list(cycle_lengths), random.Random(tree_glue_seed))
    verdict = verify_equivalence(g)
    spectral = verdict.spectral_lower if kind == "lower" else verdict.spectral_upper
    structural = verdict.structural_lower if kind == "lower" else verdict.structural_upper
    if not (spectral and structural.holds and verdict.consistent):
        raise RuntimeError(f"extremal construction failed on {g.n} vertices: {g.edges!r}")
    return g


class _EdgeMasks:
    """Edge sets on n vertices as bitmasks over combinations(range(n), 2).

    That pair order is sorted order, so a mask's pairs taken by increasing
    bit are its canonical edge tuple; the tuple is looked up in two halves.
    """

    def __init__(self, n: int):
        pairs = list(combinations(range(n), 2))
        self.n = n
        self.bit = {p: 1 << i for i, p in enumerate(pairs)}
        self.half = (len(pairs) + 1) // 2
        self.low, self.high = _subsets(pairs[: self.half]), _subsets(pairs[self.half :])

    def edges(self, m: int) -> tuple[tuple[int, int], ...]:
        return self.low[m & ((1 << self.half) - 1)] + self.high[m >> self.half]


def _subsets(items: list) -> list[tuple]:
    """Every subsequence of items, indexed by its bitmask."""
    k = len(items)
    return [tuple(compress(items, [(b >> i) & 1 for i in range(k)])) for b in range(1 << k)]


def _connected_masks(em: _EdgeMasks, masks: np.ndarray) -> np.ndarray:
    """The masks whose graph is connected: neighbour bitmasks per vertex,
    then n-1 rounds of frontier OR from vertex 0."""
    n = em.n
    adj = np.zeros((n, masks.size), dtype=np.uint8)
    for (u, v), b in em.bit.items():
        bit = ((masks & b) != 0).astype(np.uint8)
        adj[u] |= bit << v
        adj[v] |= bit << u
    reach = np.ones(masks.size, dtype=np.uint8)
    for _ in range(n - 1):
        for v in range(n):
            reach |= adj[v] & -((reach >> v) & 1)
    return masks[reach == (1 << n) - 1]


def enumerate_connected_graphs(n_max: int) -> Iterator[SimpleGraph]:
    """All connected labeled graphs on 2..n_max vertices, no isomorphism
    reduction, in a fixed order (by n, then by edge-subset index)."""
    if n_max > GRAPH_ENUM_LIMIT:
        raise SizeLimitError(f"exhaustive enumeration limited to n <= {GRAPH_ENUM_LIMIT}")
    for n in range(2, n_max + 1):
        em = _EdgeMasks(n)
        total = 1 << len(em.bit)
        for lo in range(0, total, _MASK_BLOCK):
            masks = np.arange(lo, min(lo + _MASK_BLOCK, total))
            masks = _connected_masks(em, masks[np.bitwise_count(masks) >= n - 1])
            for m in masks.tolist():
                yield SimpleGraph(n, em.edges(m))


class CactusStructure(NamedTuple):
    """A connected graph with pairwise vertex-disjoint cycles, plus the
    cycles themselves (known from construction, not re-derived)."""

    n: int
    cycles: tuple[tuple[int, ...], ...]
    mask: int  # the edge set: bit i for the i-th pair of combinations(range(n), 2)

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """The edge tuple, decoded from mask bit by bit; pairs come in sorted order."""
        m = self.mask
        return tuple(e for i, e in enumerate(combinations(range(self.n), 2)) if m >> i & 1)


def _decode_forests(
    n: int, roots: tuple[int, ...], part: slice = slice(None)
) -> tuple[np.ndarray, np.ndarray]:
    """Every forest on range(n) in which each tree holds exactly one root,
    as (leaf, seq) arrays: row i's edge j joins leaf[i, j] to seq[i, j].

    A sequence holds the stripped leaves' neighbours in smallest-leaf order,
    the last a root: the head in product(range(n)) order, then the root.
    Each decodes to a distinct forest, k * n^(n-k-1) in all. Roots (n-1,)
    give the labeled trees in Pruefer order. part slices the head order."""
    L = n - len(roots)
    head = np.arange(*part.indices(n ** (L - 1)))[:, None] // n ** np.arange(L - 2, -1, -1) % n
    seq = np.hstack([np.repeat(head, len(roots), axis=0), np.tile(roots, len(head))[:, None]])
    rows = np.arange(len(seq))
    deg = 1 + (seq[:, :, None] == np.arange(n)).sum(axis=1, dtype=np.int8)  # 1 + occurrences left
    deg[:, list(roots)] = n + 2  # roots are never stripped, however often they occur
    leaf = np.empty_like(seq)
    for j, a in enumerate(seq.T):
        leaf[:, j] = v = (deg == 1).argmax(axis=1)
        deg[rows, v] = 0
        deg[rows, a] -= 1
    return leaf, seq


def _pair_bits(n: int) -> np.ndarray:
    """Symmetric (n, n) table: the bit of pair {u, v} in an edge mask."""
    pairbit = np.zeros((n, n), dtype=np.int64)
    for i, (u, v) in enumerate(combinations(range(n), 2)):
        pairbit[u, v] = pairbit[v, u] = 1 << i
    return pairbit


def _cycle_mask(pairbit: np.ndarray, order: tuple[int, ...]) -> int:
    return int(pairbit[order, order[1:] + order[:1]].sum())


def _cycle_orders(K: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    """Distinct cycles on vertex set K: fix the least vertex first and break
    the direction symmetry, giving (|K|-1)!/2 arrangements."""
    for p in permutations(K[1:]):
        if p[0] < p[-1]:
            yield (K[0],) + p


def _attachments(n: int, k1: int, k2: int) -> tuple[np.ndarray, np.ndarray]:
    """Every way to join a k1-cycle, a k2-cycle and the n - k1 - k2 other
    vertices into one tree, each cycle contracted to a node, as edge ends
    (x, y) in local labels: the other vertices, then each cycle's.

    Each contracted-tree edge at a cycle node fans out over that cycle's
    vertices; rows follow the Pruefer sequence, then the fan-out choices
    with the first decoded edge most significant."""
    M = n - k1 - k2 + 2
    size = np.array([1] * (M - 2) + [k1, k2])
    first = np.cumsum(size) - size  # local label of each node's first vertex
    leaf, seq = _decode_forests(M, (M - 1,))
    a, b = np.minimum(leaf, seq), np.maximum(leaf, seq)
    choices = size[a] * size[b]
    count = choices.prod(axis=1)
    t = np.repeat(np.arange(len(count)), count)
    index = np.arange(int(count.sum())) - np.repeat(np.cumsum(count) - count, count)
    later = np.cumprod(choices[:, :0:-1], axis=1)[:, ::-1]  # product of later edges' choices
    d = index[:, None] // np.pad(later, ((0, 0), (0, 1)), constant_values=1)[t] % choices[t]
    return first[a[t]] + d // size[b[t]], first[b[t]] + d % size[b[t]]


def _families(pairbit: np.ndarray) -> Iterator[tuple[list[int], tuple]]:
    """The stream's edge masks, one list per cycles tuple: the trees, in
    blocks of _TREE_BLOCK, then one cycle on each vertex set K with every
    forest rooted in K, then two cycles joined by every attachment."""
    n = len(pairbit)
    for lo in range(0, n ** (n - 2), _TREE_BLOCK):
        trees = _decode_forests(n, (n - 1,), slice(lo, lo + _TREE_BLOCK))
        yield pairbit[trees].sum(axis=1).tolist(), ()
    for k in range(3, n + 1):
        for K in combinations(range(n), k):
            forests = pairbit[_decode_forests(n, K)].sum(axis=1) if k < n else np.zeros(1, int)
            for order in _cycle_orders(K):
                yield (_cycle_mask(pairbit, order) | forests).tolist(), (order,)
    for k1 in range(3, n - 2):
        for k2 in range(k1, n - k1 + 1):
            x, y = _attachments(n, k1, k2)
            for K1 in combinations(range(n), k1):
                rest = tuple(v for v in range(n) if v not in K1)
                for K2 in combinations(rest, k2):
                    if k1 == k2 and K2[0] < K1[0]:
                        continue
                    label = np.array([v for v in rest if v not in K2] + list(K1 + K2))
                    attachments = pairbit[label[x], label[y]].sum(axis=1)
                    for order1 in _cycle_orders(K1):
                        cyc1 = _cycle_mask(pairbit, order1)
                        for order2 in _cycle_orders(K2):
                            base = cyc1 | _cycle_mask(pairbit, order2)
                            yield (base | attachments).tolist(), (order1, order2)


def enumerate_connected_cacti(n: int) -> Iterator[CactusStructure]:
    """All connected labeled graphs on exactly n vertices whose cycles are
    pairwise vertex-disjoint, built constructively (trees, then one cycle,
    then two cycles; three disjoint cycles need n >= 9).

    Order is fixed: trees by sequence, then unicyclic, then bicyclic. Each
    family's forests or attachments are decoded in numpy at once, as edge
    masks that the cycle masks are ORed onto. A structure holds its mask;
    its edge tuple is decoded only when read.
    """
    if n > GRAPH_ENUM_LIMIT:
        raise SizeLimitError(f"cactus enumeration limited to n <= {GRAPH_ENUM_LIMIT}")
    if n < 2:
        return iter(())
    new = partial(tuple.__new__, CactusStructure)  # from a 3-tuple, without a Python frame
    families = _families(_pair_bits(n))
    return chain.from_iterable(
        map(new, zip(repeat(n), repeat(cycles), masks)) for masks, cycles in families
    )


def double_square_pendant() -> SimpleGraph:
    """Two 4-cycles sharing one vertex, plus a pendant edge at that vertex."""
    return SimpleGraph.build(
        8,
        [(0, 1), (1, 2), (2, 3), (0, 3), (0, 4), (4, 5), (5, 6), (0, 6), (0, 7)],
    )
