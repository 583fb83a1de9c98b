"""Batch certification of the extremality equivalences at desk scale.

Two engines, sized to what they must cover on a single core:

* Alphabet engine: every connected labeled graph up to a small n, gains from
  the group of q-th roots of unity. Switching by a diagonal unitary D maps
  H to D*HD, which keeps the spectrum and every cycle gain, so the engine
  ranks one representative per switching class: gain 1 on a spanning tree
  and a choice on each of the c cotree edges, each class standing for
  q^(n-1) labeled assignments. A per-graph cap bounds the classes solved:
  all q^c of them when they fit, else a sample of distinct classes fixed by
  the seed and the edge set. A switched copy of one representative per
  graph, solved in the same batch, must reproduce its spectrum and
  structural flags. Ranks come from batched Hermitian eigensolves. For q in
  {1, 2, 3, 4, 6} the characteristic polynomial has integer coefficients,
  so nonzero eigenvalues are bounded away from zero by 1/deg^(n-1) and a
  threshold decides rank exactly. Other alphabets fall back to a guard band
  plus per-representative escalation to the exact modular rank.

* Cactus engine: every connected graph with pairwise vertex-disjoint cycles
  up to n=8 (built constructively, cycles known), gains from the eighth
  roots of unity. The spectrum of such an instance depends only on the real
  parts of its cycle gains, and the characteristic coefficients decompose
  as matching counts of vertex-deleted subgraphs weighted by those real
  parts. Matching counts for all induced subgraphs at once come from a
  subset-mask dynamic program vectorized across graphs, and coefficients
  land on the lattice (p + q*sqrt(2))/2 whose nonzero values stay above
  1.6e-4, so a 1e-6 threshold decides rank exactly. A real part takes one
  of five values, so the coefficient sweep ranks at most 5^c <= 25
  real-part classes per graph, and each sampled gain assignment reads its
  rank and structural flags from its class. The same table gives
  condition (iii); spot checks compare it, the matching number and the
  rank with the blossom and oracle routes. Trees are instead certified by
  a direct eigensolve against a greedy leaf matching, exact on forests and
  vectorized over the packed adjacency bitmasks, and both against the
  table's matching number: three routes, which keep the two sides of the
  equivalence independent where the coefficient route would be circular.

Both engines check, per instance (per class representative in the
alphabet engine): rank == 2m-2c exactly when the lower structural
conditions hold, and rank == 2m+c exactly when the upper ones hold. Any
counterexample is serialized for replay.
"""
from __future__ import annotations

import os
import random
import time
from dataclasses import dataclass, field
from itertools import chain, islice
from typing import Iterable, NamedTuple

import numpy as np

from .combinatorics import (
    cycle_matching_condition,
    cycles_pairwise_disjoint,
    cyclomatic_number,
    matching_number,
    rank_combinatorial,
)
from .errors import SizeLimitError, TheoremViolation
from .gains import Gain
from .generators import CactusStructure, enumerate_connected_cacti, enumerate_connected_graphs
from .graphs import GainGraph, SimpleGraph, serialize_gain_graph
from .spectral import exact_rank

COEFF_RANK_TOL = 1e-6
_ESCALATE_LO = 1e-9
_ESCALATE_HI = 1e-3
_SOLVE_ROWS = 1 << 16  # matrices per eigensolve call

# real parts of the eighth roots of unity, indexed by octant
_COS8 = np.array([1.0, np.sqrt(0.5), 0.0, -np.sqrt(0.5), -1.0, -np.sqrt(0.5), 0.0, np.sqrt(0.5)])
# octant -> r with _COS8[octant] == _COS8[r], r in 0..4: the real-part class
_COS_CLASS = np.array([0, 1, 2, 3, 4, 3, 2, 1], dtype=np.int8)
_ALPHABET_STAGES = ("enumerate", "facts", "eigensolve", "checks")
_CACTUS_STAGES = ("enumerate", "pack", "matching_dp", "sweep", "trees", "spot_checks")


@dataclass
class Failure:
    message: str
    graph_text: str


@dataclass
class SliceReport:
    name: str
    graphs: int = 0
    instances: int = 0
    classes: int = 0  # switching-class representatives eigensolved
    switching_checks: int = 0  # switched copies compared with their representative
    cross_checks: int = 0
    elapsed: float = 0.0
    failures: list[Failure] = field(default_factory=list)
    timings: dict[str, float] = field(default_factory=dict)  # seconds per stage

    @property
    def ok(self) -> bool:
        return not self.failures


@dataclass
class CertificationResult:
    slices: dict[str, SliceReport]

    @property
    def instances(self) -> int:
        return sum(s.instances for s in self.slices.values())

    @property
    def failures(self) -> list[Failure]:
        return [f for s in self.slices.values() for f in s.failures]

    @property
    def elapsed(self) -> float:
        return sum(s.elapsed for s in self.slices.values())

    @property
    def ok(self) -> bool:
        return not self.failures

    def require_ok(self) -> "CertificationResult":
        """Escalate any collected counterexample; drivers never swallow one."""
        if self.failures:
            first = self.failures[0]
            raise TheoremViolation(
                f"{len(self.failures)} certification failure(s); first: {first.message}",
                instance=first.graph_text,
            )
        return self


def worker_count() -> int:
    """Worker budget for batch drivers, from GAINRANK_WORKERS or the host."""
    env = os.environ.get("GAINRANK_WORKERS")
    if env:
        w = int(env)
        if w < 1:
            raise ValueError("GAINRANK_WORKERS must be at least 1")
        return w
    return os.cpu_count() or 1


@dataclass
class _Static:
    """Assignment-independent facts about one graph."""

    m: int
    c: int
    disjoint: bool
    cond_iii: bool  # meaningful only when disjoint
    cycle_cols: list[np.ndarray]  # edge column indices per cycle
    cycle_conj: list[np.ndarray]  # edge traversed against storage order
    cycle_lens: list[int]


def _static_facts(G: SimpleGraph) -> _Static:
    m = matching_number(G)
    c = cyclomatic_number(G)
    ok, cycles = cycles_pairwise_disjoint(G)
    cond = False
    cols: list[np.ndarray] = []
    conjs: list[np.ndarray] = []
    lens: list[int] = []
    if ok:
        cond = cycle_matching_condition(G, cycles)[0]
        col_of = {e: i for i, e in enumerate(G.edges)}
        for cyc in cycles:
            idx = []
            conj = []
            for a, b in zip(cyc, cyc[1:] + cyc[:1]):
                idx.append(col_of[(min(a, b), max(a, b))])
                conj.append(a > b)
            cols.append(np.array(idx, dtype=np.int64))
            conjs.append(np.array(conj, dtype=bool))
            lens.append(len(cyc))
    return _Static(
        m=m, c=c, disjoint=ok, cond_iii=cond,
        cycle_cols=cols, cycle_conj=conjs, cycle_lens=lens,
    )


def _rank_threshold(n: int, max_degree: int) -> float:
    """Safe cut between true zeros and true nonzeros, integer-coefficient case.

    The product of nonzero eigenvalues is a nonzero integer and every
    |lambda| is at most the max degree, so the smallest nonzero |lambda| is
    at least deg^-(n-1). Half of that still towers over eigensolver noise
    (~1e-12 at these sizes).
    """
    if max_degree <= 1:
        return 0.5
    return 0.5 * float(max_degree) ** (-(n - 1))


def _build_instance(G: SimpleGraph, alphabet: tuple[Gain, ...], idx_row: np.ndarray) -> GainGraph:
    return GainGraph.build(
        G.n, [(u, v, alphabet[int(idx_row[e])]) for e, (u, v) in enumerate(G.edges)]
    )


def _structural_flags(st: _Static, gvals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(lower, upper) structural booleans per assignment row of gvals."""
    A = gvals.shape[0]
    if not st.disjoint:
        flags = np.zeros(A, dtype=bool)
        return flags, flags
    lower = np.full(A, st.cond_iii, dtype=bool)
    upper = np.full(A, st.cond_iii, dtype=bool)
    for cols, conj, l in zip(st.cycle_cols, st.cycle_conj, st.cycle_lens):
        sel = gvals[:, cols]
        prod = np.where(conj[None, :], np.conj(sel), sel).prod(axis=1)
        if l % 2 == 0:
            target = 1.0 if (l // 2) % 2 == 0 else -1.0
            lower &= np.abs(prod - target) <= 1e-9
            upper[:] = False
        else:
            lower[:] = False
            upper &= np.abs(prod.real) > 1e-9
    return lower, upper


def _group_positions(alphabet: tuple[Gain, ...]) -> np.ndarray:
    """pos[k] is the alphabet index of exp(2*pi*i*k/q), q = len(alphabet).

    The class reduction needs the alphabet to be the whole group of q-th
    roots of unity: gauge-fixed representatives and switched copies must
    stay inside it.
    """
    q = len(alphabet)
    pos = np.full(q, -1, dtype=np.int64)
    for i, g in enumerate(alphabet):
        if g.angle is None or (g.angle * q).denominator != 1:
            raise ValueError(f"gain {g!r} is not a {q}-th root of unity")
        pos[int(g.angle * q)] = i
    if q == 0 or (pos < 0).any():
        raise ValueError(f"alphabet of {q} gains is not the group of {q}-th roots of unity")
    return pos


def _cotree_columns(G: SimpleGraph) -> list[int]:
    """Edge columns outside the spanning forest union-find grows in edge order."""
    parent = list(range(G.n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    cotree = []
    for e, (u, v) in enumerate(G.edges):
        ru, rv = find(u), find(v)
        if ru == rv:
            cotree.append(e)
        else:
            parent[ru] = rv
    return cotree


def _edge_set_hash(G: SimpleGraph) -> int:
    """Deterministic 61-bit hash of n and the edge set. Per-graph choices
    come from it, so how graphs are split into shards never changes them."""
    h = G.n
    for u, v in G.edges:
        h = (h * 1_000_003 + u * G.n + v + 1) % (1 << 61)
    return h


def _switched_copy(
    G: SimpleGraph, ends: np.ndarray, expo: np.ndarray, q: int
) -> tuple[int, np.ndarray]:
    """One representative, picked by the graph alone, and a switched copy.

    ends is G.edges as an (E, 2) array and expo holds the representatives'
    gain exponents, one row each. The copy is phi'(u,v) = s_u phi(u,v) s_v^-1
    with s_v = exp(2*pi*i*k_v/q), which is D H D* for D = diag(s): the same
    spectrum and cycle gains.
    """
    h = _edge_set_hash(G)
    r = h % expo.shape[0]
    k = np.array([(h // q**v) % q for v in range(G.n)], dtype=np.int64)
    if q > 1 and (k == k[0]).all():  # a scalar switching changes nothing
        k[-1] = (k[-1] + 1) % q
    return r, (expo[r] + k[ends[:, 0]] - k[ends[:, 1]]) % q


def _class_indices(total: int, count: int, seed: str) -> np.ndarray:
    """count distinct indices out of range(total), in increasing order, by
    Floyd's sampling from seed. Python ints, so q^c never overflows."""
    if count == total:
        return np.arange(total, dtype=np.int64)
    rng = random.Random(seed)
    picked: set[int] = set()
    for j in range(total - count, total):
        t = rng.randrange(j + 1)
        picked.add(j if t in picked else t)
    return np.array(sorted(picked), dtype=np.int64 if total <= 1 << 62 else object)


def _stage(timings: dict[str, float], name: str, t: float) -> float:
    """Charge the time since t to stage name; returns the new start."""
    now = time.perf_counter()
    timings[name] = timings.get(name, 0.0) + now - t
    return now


def run_alphabet_slice(
    graphs: Iterable[SimpleGraph],
    alphabet: tuple[Gain, ...],
    cap: int | None = None,
    seed: int = 0,
    name: str = "alphabet",
    max_failures: int = 5,
) -> SliceReport:
    """Certify both equivalences on every graph, one switching class at a time.

    alphabet must be the full group of q-th roots of unity, in any order. A
    class representative has gain 1 on a spanning forest and any gain on
    each of the c cotree edges. All q^c classes are solved when cap is None
    or they fit in cap (at most 2^20 per graph), else cap distinct ones
    drawn from seed and the edge set; each counts as its q^(E-c) labeled
    instances. One switched copy per graph must match its representative.

    report.timings splits the run into the stages enumerate (pulling the
    next graph), facts (static facts, cotree and class rows), eigensolve
    and checks (structural flags, switching compare, ranks, escalation and
    failures), in seconds.
    """
    t0 = time.perf_counter()
    rep = SliceReport(name=name, timings=dict.fromkeys(_ALPHABET_STAGES, 0.0))
    q = len(alphabet)
    pos = _group_positions(alphabet)
    # characteristic coefficients are real algebraic integers of Q(zeta_q),
    # so integers when that field meets the reals in Q alone
    exact = q in (1, 2, 3, 4, 6)
    roots = np.real_if_close(np.array([g.value for g in alphabet])[pos])  # real: symmetric H

    t = time.perf_counter()
    for G in graphs:
        t = _stage(rep.timings, "enumerate", t)
        st = _static_facts(G)
        E = len(G.edges)
        ends = np.array(G.edges, dtype=np.int64).reshape(E, 2)
        cot = _cotree_columns(G)
        assert len(cot) == st.c, (len(cot), st.c)
        total = q**st.c
        A = total if cap is None else min(total, cap)
        if A > 1 << 20:
            raise SizeLimitError(f"{A} switching classes on one graph; pass a smaller cap")
        index = _class_indices(total, A, f"{seed}/{_edge_set_hash(G)}")
        expo = np.zeros((A + 1, E), dtype=np.min_scalar_type(q))
        for j, e in enumerate(cot):
            expo[:A, e] = (index // q**j) % q
        switched, expo[A] = _switched_copy(G, ends, expo[:A], q)  # the copy is row A
        t = _stage(rep.timings, "facts", t)

        w = np.empty((A + 1, G.n))
        s_lower = np.empty(A + 1, dtype=bool)
        s_upper = np.empty(A + 1, dtype=bool)
        for lo in range(0, A + 1, _SOLVE_ROWS):
            hi = min(lo + _SOLVE_ROWS, A + 1)
            gvals = roots[expo[lo:hi]]
            H = np.zeros((hi - lo, G.n, G.n), dtype=roots.dtype)
            H[:, ends[:, 0], ends[:, 1]] = gvals
            H[:, ends[:, 1], ends[:, 0]] = np.conj(H[:, ends[:, 0], ends[:, 1]])
            w[lo:hi] = np.linalg.eigvalsh(H)
            t = _stage(rep.timings, "eigensolve", t)
            s_lower[lo:hi], s_upper[lo:hi] = _structural_flags(st, gvals)
            t = _stage(rep.timings, "checks", t)

        gap = float(np.abs(w[A] - w[switched]).max(initial=0.0))
        same_flags = (s_lower[A], s_upper[A]) == (s_lower[switched], s_upper[switched])
        if (gap > 1e-9 or not same_flags) and len(rep.failures) < max_failures:
            rep.failures.append(
                Failure(
                    message=(
                        f"switching check failed: spectra differ by {gap:.3g}, "
                        f"structural flags {'agree' if same_flags else 'differ'}, "
                        f"against class representative {switched}"
                    ),
                    graph_text=serialize_gain_graph(_build_instance(G, alphabet, pos[expo[A]])),
                )
            )

        aw, s_lower, s_upper = np.abs(w[:A]), s_lower[:A], s_upper[:A]
        if exact:
            ranks = (aw > _rank_threshold(G.n, max(G.degrees(), default=0))).sum(axis=1)
        else:
            ranks = (aw > COEFF_RANK_TOL).sum(axis=1)
            shaky = ((aw > _ESCALATE_LO) & (aw < _ESCALATE_HI)).any(axis=1)
            for i in np.nonzero(shaky)[0]:
                inst = _build_instance(G, alphabet, pos[expo[i]])
                ranks[i] = exact_rank(inst)
                rep.cross_checks += 1

        want_lower = ranks == 2 * st.m - 2 * st.c
        want_upper = ranks == 2 * st.m + st.c
        bad = (want_lower != s_lower) | (want_upper != s_upper)
        if bad.any():
            for i in np.nonzero(bad)[0][: max(0, max_failures - len(rep.failures))]:
                inst = _build_instance(G, alphabet, pos[expo[i]])
                rep.failures.append(
                    Failure(
                        message=(
                            f"equivalence failed: rank={int(ranks[i])} m={st.m} c={st.c} "
                            f"spectral=({bool(want_lower[i])},{bool(want_upper[i])}) "
                            f"structural=({bool(s_lower[i])},{bool(s_upper[i])})"
                        ),
                        graph_text=serialize_gain_graph(inst),
                    )
                )
        rep.graphs += 1
        rep.classes += A
        rep.switching_checks += 1
        rep.instances += A * q ** (E - st.c)
        t = _stage(rep.timings, "checks", t)
    rep.elapsed = time.perf_counter() - t0
    return rep


def run_signed_slice(n_max: int = 6, name: str = "signed-exhaustive") -> SliceReport:
    """All connected labeled graphs to n_max, all sign assignments."""
    signed = (Gain.from_angle(0), Gain.from_angle(1, 2))
    return run_alphabet_slice(enumerate_connected_graphs(n_max), signed, cap=None, name=name)


# ---------------------------------------------------------------------------
# cactus engine


_PACK_SHIFT = 12  # per-level matching counts stay far below 2^12 at n=8
_PACK_MASK = (1 << _PACK_SHIFT) - 1


def _batched_matching_counts(adjmask: np.ndarray, n: int) -> np.ndarray:
    """Packed matching polynomials of every induced subgraph, per graph.

    adjmask is (B, n) with adjmask[i, v] the neighbour bitmask of v in graph
    i. Returns p of shape (2^n, B) int64 where p[S, i] packs the number of
    j-matchings of graph i restricted to vertex set S in bits [12j, 12j+12).
    Recurrence on the lowest vertex of S: leave it uncovered, or match it to
    a neighbour inside S. Shifting cannot overflow: a set missing two
    vertices has matchings at least one level below the top field.
    """
    B = adjmask.shape[0]
    p = np.zeros((1 << n, B), dtype=np.int64)
    p[0] = 1
    for mask in range(1, 1 << n):
        v = (mask & -mask).bit_length() - 1
        rest = mask ^ (1 << v)
        acc = p[rest].copy()
        others = rest
        while others:
            u = (others & -others).bit_length() - 1
            others ^= 1 << u
            acc += (p[rest ^ (1 << u)] << _PACK_SHIFT) * ((adjmask[:, v] >> u) & 1)
        p[mask] = acc
    return p


def _unpack_counts(packed: np.ndarray, levels: int) -> np.ndarray:
    """(B,) packed -> (B, levels) per-size matching counts."""
    out = np.empty((packed.shape[0], levels), dtype=np.int64)
    for j in range(levels):
        out[:, j] = (packed >> (_PACK_SHIFT * j)) & _PACK_MASK
    return out


def _max_index_positive(counts: np.ndarray) -> np.ndarray:
    """Largest j with counts[:, j] > 0, per row."""
    B, L = counts.shape
    best = np.zeros(B, dtype=np.int64)
    for j in range(1, L):
        best = np.where(counts[:, j] > 0, j, best)
    return best


def _leaf_matching(adjmask: np.ndarray) -> np.ndarray:
    """Matching number of each forest in adjmask, (B, n) neighbour bitmasks.

    Greedy leaf matching: match the lowest leaf to its neighbour and delete
    both. Some maximum matching of a forest holds any given leaf edge, so
    this is exact on forests. Each round matches one edge in every row that
    has one left, so n // 2 rounds finish.
    """
    B, n = adjmask.shape
    rows = np.arange(B)
    bits = 1 << np.arange(n, dtype=adjmask.dtype)
    alive = np.full(B, (1 << n) - 1, dtype=adjmask.dtype)
    m = np.zeros(B, dtype=np.int64)
    for _ in range(n // 2):
        nb = adjmask & alive[:, None]
        leaf = (np.bitwise_count(nb) == 1) & ((alive[:, None] & bits) != 0)
        has = leaf.any(axis=1)
        v = leaf.argmax(axis=1)
        alive &= ~np.where(has, bits[v] | nb[rows, v], 0)
        m += has
    return m


def _group_offsets(sizes: np.ndarray) -> np.ndarray:
    """Position of each element inside its group, for groups of the given
    sizes laid end to end in one flat array."""
    return np.arange(int(sizes.sum())) - np.repeat(np.cumsum(sizes) - sizes, sizes)


@dataclass
class _CactusChunk:
    """Same-n cactus structures packed column-wise, one row per graph."""

    n: int
    structs: list[CactusStructure]
    adjmask: np.ndarray  # (B, n) neighbour bitmasks
    ecount: np.ndarray  # (B,) edge count
    cyc_mask: np.ndarray  # (B, 2) cycle vertex bitmasks
    cyc_len: np.ndarray  # (B, 2), 0 for an absent cycle slot
    # (B, 2, n+1) int8: +1/-1 when the edge column sits on cycle k, signed by
    # whether the cycle walk agrees with the stored low-to-high edge
    # direction; a backward edge contributes its conjugate, so its octant
    # enters the cycle sum negated
    memb: np.ndarray
    ncyc: np.ndarray  # (B,) number of cycles


def _pack_cacti(n: int, structs: list[CactusStructure]) -> _CactusChunk:
    """Pack a chunk in one pass over flat edge and cycle-vertex arrays."""
    B = len(structs)
    rows = np.arange(B)
    ecount = np.fromiter((len(st.edges) for st in structs), np.int64, B)
    flat = chain.from_iterable(chain.from_iterable(st.edges for st in structs))
    ends = np.fromiter(flat, np.int64, 2 * int(ecount.sum())).reshape(-1, 2)
    erow = np.repeat(rows, ecount)
    adjmask = np.zeros((B, n), dtype=np.int64)
    np.add.at(adjmask, (erow, ends[:, 0]), 1 << ends[:, 1])
    np.add.at(adjmask, (erow, ends[:, 1]), 1 << ends[:, 0])
    codes = np.full((B, n + 1), -1, dtype=np.int64)  # stored edge (u, v) as u*n + v
    codes[erow, _group_offsets(ecount)] = ends[:, 0] * n + ends[:, 1]

    ncyc = np.fromiter((len(st.cycles) for st in structs), np.int64, B)
    clen = np.fromiter((len(c) for st in structs for c in st.cycles), np.int64, int(ncyc.sum()))
    crow, cslot = np.repeat(rows, ncyc), _group_offsets(ncyc)
    cyc_len = np.zeros((B, 2), dtype=np.int64)
    cyc_len[crow, cslot] = clen
    # every cycle walk step a -> b, b the successor of a on its cycle
    verts = chain.from_iterable(c for st in structs for c in st.cycles)
    a = np.fromiter(verts, np.int64, int(clen.sum()))
    w = _group_offsets(clen)
    b = a[np.arange(a.size) - w + (w + 1) % np.repeat(clen, clen)]
    vrow, vslot = np.repeat(crow, clen), np.repeat(cslot, clen)
    cyc_mask = np.zeros((B, 2), dtype=np.int64)
    np.add.at(cyc_mask, (vrow, vslot), 1 << a)
    code = np.minimum(a, b) * n + np.maximum(a, b)
    hit = codes[vrow] == code[:, None]
    if not hit.any(axis=1).all():
        raise ValueError("a cycle edge is missing from its structure's edge list")
    col = hit.argmax(axis=1)
    memb = np.zeros((B, 2, n + 1), dtype=np.int8)
    memb[vrow, vslot, col] = np.where(a < b, 1, -1)
    return _CactusChunk(n, structs, adjmask, ecount, cyc_mask, cyc_len, memb, ncyc)


def _slot_flags(l: np.ndarray, re_k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-class (lower, upper) contribution of one cycle slot.

    An absent slot (l == 0) is neutral. Present: lower demands an even
    length with gain exactly the alternating sign, upper an odd length with
    a nonvanishing real part. Real parts come from the exact cosine table
    so equality compares are sound.
    """
    has = (l > 0)[:, None]
    even = (l % 2 == 0)[:, None]
    tgt = np.where((l // 2) % 2 == 0, 1.0, -1.0)[:, None]
    low = ~has | (even & (re_k == tgt))
    up = ~has | (~even & (re_k != 0.0))
    return low, up


class _ClassTable(NamedTuple):
    """Per-graph facts and per-class results of one packed chunk.

    Column r0 + 5*r1 is the class with Re phi(C_k) = _COS8[r_k]; an absent
    cycle reads class 0. A chunk whose graphs have at most c cycles has 5^c
    columns.
    """

    m: np.ndarray  # (B,) matching number
    cond_iii: np.ndarray  # (B,) bool
    rank: np.ndarray  # (B, 5^c)
    lower: np.ndarray  # (B, 5^c) bool, structural lower conditions
    upper: np.ndarray  # (B, 5^c) bool, structural upper conditions


def _cactus_class_table(chunk: _CactusChunk, timings: dict[str, float]) -> _ClassTable:
    """Matching DP, condition (iii) and the rank of every real-part class.

    The spectrum depends on the gains only through Re phi(C_1) and
    Re phi(C_2), each one of the five eighth-root real parts, so the
    coefficient sweep runs over at most 25 classes per graph.
    """
    t = time.perf_counter()
    B, n = len(chunk.structs), chunk.n
    full = (1 << n) - 1
    levels = n // 2 + 1
    rows = np.arange(B)

    p = _batched_matching_counts(chunk.adjmask, n)
    counts_full = _unpack_counts(p[full], levels)
    m_dp = _max_index_positive(counts_full)

    # condition (iii): matching number of the cycle-contracted graph against
    # the graph with all cycle vertices deleted. m(G/C) is the largest m of
    # G - V(C) plus one kept vertex per cycle, and a packed entry grows with
    # its top nonzero level, so the largest entry carries it.
    cyc0, cyc1 = chunk.cyc_mask[:, 0], chunk.cyc_mask[:, 1]
    no_cyc_idx = full ^ (cyc0 | cyc1)
    best = p[no_cyc_idx, rows]
    for a1 in range(n):
        for a2 in range(n):
            kept = (cyc0 & (1 << a1)) | (cyc1 & (1 << a2))
            best = np.maximum(best, p[no_cyc_idx | kept, rows])
    m_contracted = _max_index_positive(_unpack_counts(best, levels))
    N_both = _unpack_counts(p[no_cyc_idx, rows], levels)
    cond_iii = m_contracted == _max_index_positive(N_both)
    N_sub = [_unpack_counts(p[full ^ chunk.cyc_mask[:, k], rows], levels) for k in range(2)]
    t = _stage(timings, "matching_dp", t)

    c = chunk.ncyc
    l1, l2 = chunk.cyc_len[:, 0], chunk.cyc_len[:, 1]
    K = 5 ** int(c.max(initial=0))
    re = _COS8[np.arange(K) % 5], _COS8[np.arange(K) // 5]

    # characteristic coefficients, highest nonzero index gives the rank:
    # a_k = sum over cycle subsets T of (-2)^|T| prod(Re) (-1)^j N_j(G - V(T))
    # with 2j = k - total length of T
    rank = np.zeros((B, K), dtype=np.int64)
    settled = np.zeros((B, K), dtype=bool)
    for k in range(n, 0, -1):
        ak = np.zeros((B, K))
        if k % 2 == 0:
            j0 = k // 2
            sgn = 1.0 if j0 % 2 == 0 else -1.0
            ak += (sgn * counts_full[:, j0])[:, None]
        for s in range(2):
            lt = chunk.cyc_len[:, s]
            jj = k - lt
            valid = (lt > 0) & (jj >= 0) & (jj % 2 == 0)
            j = np.clip(jj // 2, 0, levels - 1)
            coef = -2.0 * np.where(j % 2 == 0, 1.0, -1.0) * N_sub[s][rows, j]
            ak += np.where(valid, coef, 0.0)[:, None] * re[s]
        jj = k - l1 - l2
        valid = (c == 2) & (jj >= 0) & (jj % 2 == 0)
        j = np.clip(jj // 2, 0, levels - 1)
        coef = 4.0 * np.where(j % 2 == 0, 1.0, -1.0) * N_both[rows, j]
        ak += np.where(valid, coef, 0.0)[:, None] * (re[0] * re[1])
        hit = ~settled & (np.abs(ak) > COEFF_RANK_TOL)
        rank[hit] = k
        settled |= hit

    low1, up1 = _slot_flags(l1, re[0])
    low2, up2 = _slot_flags(l2, re[1])
    lower = low1 & low2 & cond_iii[:, None]
    upper = up1 & up2 & cond_iii[:, None]
    _stage(timings, "sweep", t)
    return _ClassTable(m_dp, cond_iii, rank, lower, upper)


def _instance_classes(chunk: _CactusChunk, octs: np.ndarray) -> np.ndarray:
    """(B, cap) class column of each sampled octant assignment.

    Cycle octant sums accumulate per edge column in int8: a wrap mod 256 is
    harmless mod 8.
    """
    cls = np.zeros(octs.shape[:2], dtype=np.int8)
    for k in range(2):
        s = np.zeros(octs.shape[:2], dtype=np.int8)
        for e in range(octs.shape[2]):
            sign = chunk.memb[:, k, e]
            if sign.any():
                s += octs[:, :, e] * sign[:, None]
        cls += _COS_CLASS[s & 7] * np.int8(5**k)
    return cls


def _flush_cactus_chunk(
    chunk: _CactusChunk,
    cap: int,
    rng: np.random.Generator,
    rep: SliceReport,
    max_failures: int,
    check_every: int,
) -> None:
    B, n = len(chunk.structs), chunk.n
    c = chunk.ncyc
    table = _cactus_class_table(chunk, rep.timings)
    m_dp, cond_iii, rank = table.m, table.cond_iii, table.rank

    # trees: eigensolve vs leaf matching, independent of the matching-count table
    t = time.perf_counter()
    tree_rows = np.nonzero(c == 0)[0]
    if tree_rows.size:
        adj = chunk.adjmask[tree_rows]
        Ht = ((adj[:, :, None] & (1 << np.arange(n))) != 0).astype(float)
        wt = np.linalg.eigvalsh(Ht)
        r_eig = (np.abs(wt) > _rank_threshold(n, n - 1)).sum(axis=1)
        m_leaf = _leaf_matching(adj)
        bad = (r_eig != 2 * m_leaf) | (m_dp[tree_rows] != m_leaf)
        for j in np.nonzero(bad)[0][: max(0, max_failures - len(rep.failures))]:
            i = tree_rows[j]
            rep.failures.append(
                Failure(
                    message=(
                        f"tree certification failed: eig rank {int(r_eig[j])}, "
                        f"leaf matching m {int(m_leaf[j])}, table m {int(m_dp[i])}"
                    ),
                    graph_text=serialize_gain_graph(
                        GainGraph.build(n, [(u, v, Gain.one()) for u, v in chunk.structs[i].edges])
                    ),
                )
            )
        rank[tree_rows] = r_eig[:, None]
    t = _stage(rep.timings, "trees", t)

    want_lower = rank == (2 * m_dp - 2 * c)[:, None]
    want_upper = rank == (2 * m_dp + c)[:, None]
    bad_class = (want_lower != table.lower) | (want_upper != table.upper)

    # deterministic subsample of octant assignments; tiny assignment spaces
    # only repeat instances, which verifies the same thing twice
    octs = rng.integers(0, 8, size=(B, cap, n + 1), dtype=np.int8)
    space = np.minimum(8.0 ** chunk.ecount, float(cap)).astype(np.int64)
    cls = _instance_classes(chunk, octs)
    bad = np.take_along_axis(bad_class, cls, axis=1)
    for i, a in zip(*np.nonzero(bad)):
        if len(rep.failures) >= max_failures:
            break
        st = chunk.structs[i]
        r = cls[i, a]
        inst = GainGraph.build(
            st.n,
            [(u, v, Gain.from_angle(int(octs[i, a, e]), 8)) for e, (u, v) in enumerate(st.edges)],
        )
        rep.failures.append(
            Failure(
                message=(
                    f"cactus equivalence failed: rank={int(rank[i, r])} "
                    f"m={int(m_dp[i])} c={int(c[i])} "
                    f"structural=({bool(table.lower[i, r])},{bool(table.upper[i, r])})"
                ),
                graph_text=serialize_gain_graph(inst),
            )
        )
    t = _stage(rep.timings, "sweep", t)

    # spot checks tie the vectorized tables back to the scalar engines on a
    # deterministic lattice of cyclic instances
    for i in range(0, B, check_every):
        if c[i] == 0:
            continue
        st = chunk.structs[i]
        G = SimpleGraph.build(st.n, st.edges)
        mb = matching_number(G)
        inst = GainGraph.build(
            st.n,
            [(u, v, Gain.from_angle(int(octs[i, 0, e]), 8)) for e, (u, v) in enumerate(st.edges)],
        )
        ro = rank_combinatorial(inst)
        cond = cycle_matching_condition(G, st.cycles)[0]
        r0 = int(rank[i, cls[i, 0]])
        mismatch = mb != int(m_dp[i]) or ro != r0 or cond != bool(cond_iii[i])
        if mismatch and len(rep.failures) < max_failures:
            rep.failures.append(
                Failure(
                    message=(
                        f"spot check mismatch: blossom m {mb} vs table {int(m_dp[i])}, "
                        f"oracle rank {ro} vs table {r0}, "
                        f"blossom cond (iii) {cond} vs table {bool(cond_iii[i])}"
                    ),
                    graph_text=serialize_gain_graph(inst),
                )
            )
        rep.cross_checks += 1
    _stage(rep.timings, "spot_checks", t)

    rep.graphs += B
    rep.instances += int(space.sum())


def run_cactus_slice(
    n_max: int = 8,
    cap: int = 50,
    seed: int = 20260821,
    chunk: int = 20000,
    name: str = "cactus-roots8",
    max_failures: int = 5,
    check_every: int = 997,
) -> SliceReport:
    """All disjoint-cycle connected graphs to n_max, eighth-root gains.

    report.timings splits the run into the stages enumerate, pack,
    matching_dp, sweep, trees and spot_checks (seconds).
    """
    t0 = time.perf_counter()
    rep = SliceReport(name=name, timings=dict.fromkeys(_CACTUS_STAGES, 0.0))
    rng = np.random.Generator(np.random.PCG64(seed))
    for n in range(2, n_max + 1):
        structs = enumerate_connected_cacti(n)
        while True:
            t = time.perf_counter()
            batch = list(islice(structs, chunk))
            t = _stage(rep.timings, "enumerate", t)
            if not batch:
                break
            packed = _pack_cacti(n, batch)
            _stage(rep.timings, "pack", t)
            _flush_cactus_chunk(packed, cap, rng, rep, max_failures, check_every)
    rep.elapsed = time.perf_counter() - t0
    return rep


def certify_equivalences(
    signed_n_max: int = 6,
    cactus_n_max: int = 8,
    cap: int = 50,
    seed: int = 20260821,
) -> CertificationResult:
    """The full two-family certification used by the acceptance run."""
    signed = run_signed_slice(signed_n_max)
    cactus = run_cactus_slice(cactus_n_max, cap=cap, seed=seed)
    return CertificationResult(slices={signed.name: signed, cactus.name: cactus})
