"""Batch certification of the extremality equivalences at desk scale.

Two engines, sized to what they must cover on a single core:

* Alphabet engine: every connected labeled graph up to n = 8, the packed
  matching table's reach (SizeLimitError past it), gains from the group of
  q-th roots of unity. Switching by a diagonal unitary D maps H to D*HD,
  which keeps the spectrum and every cycle gain, so the engine ranks one
  representative per switching class: gain 1 on a spanning tree and a
  choice on each of the c cotree edges, each class standing for q^(n-1)
  labeled assignments, all q^c classes or a sample fixed by the seed and
  the edge set. Per chunk of same-n graphs, the cactus engine's matching
  DP gives m and condition (iii), fundamental cycles decide disjointness,
  cycle-gain exponent sums decide the structural flags in integers, a rank
  kernel per slice of rows ranks every representative and a switched copy
  per graph, which must agree, and the blossom route re-checks every 97th
  graph. Signed and trivial gains (q <= 2) make H an integer matrix: the
  kernel computes its characteristic coefficients exactly in float64,
  every integer it forms below 2^53, from power traces by Newton's
  identities, and the rank is the highest index of a nonzero one; the
  switched copy must reproduce its representative's coefficients.
  Otherwise the kernel is one eigensolve per slice, and the rank the count
  of eigenvalues above half the proven bound beta(n, deg, q) on nonzero
  ones (spectral.nonzero_eigenvalue_bound); a representative with an
  eigenvalue within eigvalsh's error of both 0 and beta goes to the exact
  modular rank. Up to n = 7 that can happen only for q = 11 from n = 6,
  q = 13 from n = 5, or q in {15, 16, 20, 24} at n = 7.

* Cactus engine: every connected graph with pairwise vertex-disjoint cycles
  up to n=8 (built constructively, cycles known), gains from the eighth
  roots of unity. Chunks are packed from the structures' edge masks into
  neighbour bitmasks, edge counts and cycle vertex masks. The
  spectrum of such an instance depends only on the real parts of its cycle
  gains, and the characteristic coefficients decompose as matching counts of
  vertex-deleted subgraphs weighted by those real parts. Matching counts for
  all induced subgraphs at once come from a subset-mask dynamic program
  vectorized across graphs, and each coefficient is an integer table
  A[k, T] over the cycle subsets T times weights (-2)^|T| prod(Re) that lie
  in Z[sqrt(2)], so it is P + Q*sqrt(2) with integers P and Q, and zero
  exactly when both are: no threshold decides a rank. A real part takes
  one of five values, so the coefficient sweep, one term per subset of the
  c cycle slots, ranks 5^c real-part classes per graph; every class is
  checked, so no failure depends on the draws. Each graph counts
  min(8^E, cap) instances, cap assignments drawn as their c cycle octant
  sums (a surjective homomorphism from edge octants onto (Z/8)^c keeps
  them uniform and independent); the draws fix only that count and the
  random stream. A failure is serialized as its class's representative:
  the class octant on the first edge of each cycle, gain 1 elsewhere. The
  same table gives condition (iii); spot checks draw an octant on every
  edge, find the class by walking the cycles, and compare the matching
  number, condition (iii) and the rank with the blossom and oracle routes.
  Trees are instead certified by a direct eigensolve against a greedy
  leaf matching, exact on forests and vectorized over the packed adjacency
  bitmasks, and both against the table's matching number: three routes,
  which keep the two sides of the equivalence independent where the
  coefficient route would be circular.

Both engines check, per instance (per class representative in the
alphabet engine): rank == 2m-2c exactly when the lower structural
conditions hold, and rank == 2m+c exactly when the upper ones hold. Both
also check every class against the theorems' bounds: 2m-2c <= rank <= 2m+c
in the alphabet engine, 2m-2c <= rank <= min(2m+c, 2m+b) with b the number
of odd cycles in the cactus engine. Any counterexample is serialized for
replay.
"""
from __future__ import annotations

import os
import random
import time
from collections import namedtuple
from dataclasses import dataclass, field
from itertools import chain, combinations, groupby, islice, product
from operator import attrgetter
from typing import Iterable, NamedTuple

import numpy as np

from .combinatorics import (
    cycle_matching_condition,
    cycle_record,
    matching_number,
    rank_combinatorial,
)
from .errors import SizeLimitError, TheoremViolation
from .gains import Gain
from .generators import GRAPH_ENUM_LIMIT, CactusStructure, enumerate_connected_cacti
from .generators import enumerate_connected_graphs
from .graphs import GainGraph, SimpleGraph, serialize_gain_graph
from .spectral import exact_rank, nonzero_eigenvalue_bound

_EIG_ERROR = 1e3  # eigvalsh on H with ||H||_2 <= deg errs by at most _EIG_ERROR*n*eps*deg
_SOLVE_ROWS = 1 << 12  # rows per slice of every batched array in both engines: bounds memory
_DP_N_MAX = 8  # largest n the packed matching table, and so the alphabet engine, serves
_SPOT_EVERY = 97  # the blossom route re-derives m and condition (iii) on 1 graph in 97
_CACTUS_CHUNK = 20000  # cactus structures per chunk: fixes the draws and spot-check lattice
_CACTUS_SPOT_EVERY = 997  # the scalar engines re-derive every 997th graph of a cactus chunk

# octant j -> r in 0..4 with cos(pi j/4) == cos(pi r/4): the real-part class
_COS_CLASS = np.array([0, 1, 2, 3, 4, 3, 2, 1], dtype=np.int8)
# -2 cos(pi r/4) for the real-part classes r = 0..4, as a + b*sqrt(2): rows a, b
_MINUS_2COS8 = np.array([[-2, 0, 0, 0, 2], [0, -1, 0, 1, 0]], dtype=np.int64)
_ALPHABET_STAGES = ("enumerate", "facts", "eigensolve", "checks")
_CACTUS_STAGES = ("enumerate", "pack", "matching_dp", "sweep", "trees", "draws", "spot_checks")


@dataclass
class Failure:
    message: str
    graph_text: str
    position: int | None = None  # the graph's index in run_alphabet_slice's input


@dataclass
class SliceReport:
    name: str
    graphs: int = 0
    instances: int = 0
    classes: int = 0  # switching-class representatives ranked
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
        try:
            w = int(env)
        except ValueError:
            raise ValueError(f"GAINRANK_WORKERS must be an integer, got {env!r}") from None
        if w < 1:
            raise ValueError("GAINRANK_WORKERS must be at least 1")
        return w
    return os.cpu_count() or 1


def _rank_by_cut(aw: np.ndarray, deg: np.ndarray, q: int) -> tuple[np.ndarray, np.ndarray]:
    """Rank of each row of eigenvalue magnitudes aw (rows, n), of graphs
    with maximum degree deg (rows,) and q-th-root gains, and the rows the
    cut leaves undecided.

    A true |lambda| is 0 or at least beta = nonzero_eigenvalue_bound, and
    eigvalsh is backward stable with ||H||_2 <= deg, so a computed one lies
    within floor = _EIG_ERROR*n*eps*deg of it: above floor it is nonzero,
    below beta - floor zero. The cut beta/2 therefore ranks every row
    exactly, except a row with a value in [beta - floor, floor], a band that
    is empty unless beta < 2*floor.
    """
    n = aw.shape[1]
    beta = np.array([nonzero_eigenvalue_bound(n, d, q) for d in range(n)])[deg, None]
    floor = _EIG_ERROR * n * np.finfo(float).eps * deg[:, None]
    rank = (aw > beta / 2).sum(axis=1)
    if (beta - floor > floor).all():
        return rank, np.zeros(len(aw), dtype=bool)
    return rank, ((aw >= beta - floor) & (aw <= floor)).any(axis=1)


def _char_coeffs(H: np.ndarray) -> np.ndarray:
    """Characteristic coefficients of integer symmetric matrices, exactly.

    H is (rows, n, n) float64 with integer entries. Returns c (rows, n+1)
    with det(xI - H) = sum_k c[:, k] x^(n-k), c[:, 0] = 1: the power traces
    p_k = tr H^k = <H^floor(k/2), H^ceil(k/2)> (H is symmetric) give
    k c_k = -sum_{i=1..k} c_{k-i} p_i (Newton's identities), each division
    exact. H is Hermitian, so its rank is the largest k with c_k != 0.

    float64 holds every integer formed here exactly for n <= 11, so BLAS
    may sum in any order: every eigenvalue has |lambda| <= deg <= n - 1, so
    |p_i| <= n deg^i and |c_j| = |e_j(lambda)| <= C(n, j) deg^j, and every
    partial sum of the identity is at most
    k C(n, n//2) n deg^k <= 11*462*11*10^11 < 5.6e15 < 2^53; an entry of a
    power H^a, or a partial sum of one, counts signed walks, at most deg^a.
    """
    rows, n, _ = H.shape
    powers = [None, H]
    for _ in range(2, -(-n // 2) + 1):
        powers.append(powers[-1] @ H)
    p = [None, np.trace(H, axis1=1, axis2=2)]
    p += [np.einsum("rij,rij->r", powers[k // 2], powers[k - k // 2]) for k in range(2, n + 1)]
    c = np.zeros((n + 1, rows))
    c[0] = 1
    for k in range(1, n + 1):
        c[k] = -sum(c[k - i] * p[i] for i in range(1, k + 1)) / k
    return c.T


def _build_instance(G: SimpleGraph, alphabet: tuple[Gain, ...], idx_row: np.ndarray) -> GainGraph:
    return GainGraph.build(
        G.n, [(u, v, alphabet[int(idx_row[e])]) for e, (u, v) in enumerate(G.edges)]
    )


def _group_positions(alphabet: tuple[Gain, ...]) -> np.ndarray:
    """pos[k] is the alphabet index of exp(2*pi*i*k/q), q = len(alphabet).

    The class reduction needs the alphabet to be the whole group of q-th
    roots of unity: gauge-fixed representatives and switched copies must
    stay inside it.
    """
    q = len(alphabet)
    pos = np.full(q, -1, dtype=np.int64)
    for i, g in enumerate(alphabet):
        if g.q is None or q % g.q:
            raise ValueError(f"gain {g!r} is not a {q}-th root of unity")
        pos[g.k * (q // g.q)] = i
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


def _fundamental_cycles(G: SimpleGraph, cotree: list[int]) -> list[tuple[int, list[int]]] | None:
    """The cycle each cotree column closes in the spanning forest, as a
    vertex bitmask and a signed edge row (+1/-1 as the cycle walk agrees
    with the stored low-to-high edge direction), or None when two share a
    vertex. The cycles of G are pairwise vertex-disjoint exactly
    when these are: a sum of two or more disjoint cycles is never a cycle."""
    if 3 * len(cotree) > G.n:  # c disjoint cycles need 3c vertices
        return None
    tree = [(e, u, v) for e, (u, v) in enumerate(G.edges) if e not in cotree]
    anc, up = [0] * G.n, [(0, 0)] * G.n  # root-path vertex bitmask, (parent, edge column)
    for root in (r for r in range(G.n) if not anc[r]):
        anc[root], stack = 1 << root, [root]
        while stack:
            x = stack.pop()
            for e, u, v in tree:
                y = v if u == x else u if v == x else x
                if not anc[y]:
                    anc[y], up[y] = anc[x] | 1 << y, (x, e)
                    stack.append(y)
    cycles: list[tuple[int, list[int]]] = []
    for e in cotree:
        u, v = G.edges[e]
        mask, memb = 0, [0] * len(G.edges)
        memb[e] = -1  # the walk runs up from u, down to v and back along e, u < v
        for x in range(G.n):
            if (anc[u] ^ anc[v]) >> x & 1:
                p, col = up[x]
                mask |= 1 << x | 1 << p
                memb[col] = (1 if x < p else -1) * (1 if anc[u] >> x & 1 else -1)
        if any(mask & other for other, _ in cycles):
            return None
        cycles.append((mask, memb))
    return cycles


def _cycle_flags(l: np.ndarray, s: np.ndarray, q: int) -> tuple[np.ndarray, np.ndarray]:
    """(lower, upper) conditions on a cycle of length l (0: absent, neutral)
    with gain exp(2*pi*i*s/q), decided in integers: lower needs it even with
    gain (-1)^(l/2), 2s = q*(l/2) (mod 2q); upper needs it odd with a
    nonzero real part, 4s mod 4q not in {q, 3q}."""
    has, even, s4 = l > 0, l % 2 == 0, 4 * s % (4 * q)
    low = ~has | (even & ((2 * s - q * (l // 2)) % (2 * q) == 0))
    return low, ~has | (~even & (s4 != q) & (s4 != 3 * q))


def _edge_set_hashes(n: int, codes: np.ndarray, ecount: np.ndarray) -> np.ndarray:
    """Deterministic 61-bit hash of n and the edge set of every graph of a
    chunk, from its edge codes u*n + v (B, E) and edge counts (B,): h = n,
    then h = h * 1_000_003 + code + 1 per edge, mod 2^61. Per-graph choices
    come from it, so how graphs are split into shards or chunks never
    changes them. The recurrence runs in wrapping uint64 arithmetic, exact
    modulo 2^61 because 2^61 divides 2^64."""
    h = np.full(len(codes), n, dtype=np.uint64)
    for e, code in enumerate(codes.T.astype(np.uint64)):
        h = np.where(e < ecount, h * np.uint64(1_000_003) + code + np.uint64(1), h)
    return (h & np.uint64((1 << 61) - 1)).astype(np.int64)


def _switched_copies(
    h: np.ndarray, n: int, codes: np.ndarray, expo: np.ndarray, start: np.ndarray,
    counts: np.ndarray, q: int,
) -> tuple[np.ndarray, np.ndarray]:
    """One representative per graph of a chunk, picked by the graph alone,
    and a switched copy of it.

    Graph g's counts[g] representatives are the expo rows from start[g]. The
    copy is phi'(u,v) = s_u phi(u,v) s_v^-1 with s_v = exp(2*pi*i*k_v/q), k_v
    the base-q digits of the edge-set hash h[g]: D H D* for D = diag(s), the
    same spectrum and cycle gains. Returns the offsets h mod counts[g] and
    the copies' exponents (B, E), q past each graph's last edge, where its
    code is 0.
    """
    k, rest = np.empty((len(h), n), dtype=np.int64), h
    for v in range(n):  # digit by digit, so no power of q overflows
        rest, k[:, v] = np.divmod(rest, q)
    if q > 1:  # a scalar switching changes nothing
        scalar = (k == k[:, :1]).all(axis=1)
        k[scalar, -1] = (k[scalar, -1] + 1) % q
    r = h % counts
    rows = np.arange(len(h))[:, None]
    copy = (expo[start + r].astype(np.int64) + k[rows, codes // n] - k[rows, codes % n]) % q
    return r, np.where(codes > 0, copy, q)


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


# per chunk row: graph, exponents (q past its last edge), rank, flags; per graph: the rest
_AlphabetRows = namedtuple("_AlphabetRows", "gid expo rank lower upper m c cond_iii")


def _blossom_facts(G: SimpleGraph, cycles: list | None) -> tuple[int, bool]:
    """m and condition (iii) by the blossom route; the condition reads True
    where cycles meet, as the packed table's does."""
    verts = tuple(tuple(v for v in range(G.n) if mask >> v & 1) for mask, _ in cycles or ())
    return matching_number(G), cycles is None or cycle_matching_condition(G, verts)[0]


def _flush_alphabet_chunk(
    entries: list, alphabet: tuple[Gain, ...], pos: np.ndarray, seed: int, rep: SliceReport,
    max_failures: int,
) -> _AlphabetRows:
    """Certify one chunk of same-n graphs; an entry is (G, cotree columns,
    fundamental cycles, classes solved). A graph solving fewer than its q^c
    classes solves a sample drawn from seed and its edge-set hash."""
    t = time.perf_counter()
    graphs, cotrees, cycles, counts = zip(*entries)
    B, n, q = len(graphs), graphs[0].n, len(alphabet)
    edges = [G.edges for G in graphs]
    adjmask, ecount, codes = _pack_edges(n, edges, max(map(len, edges)))
    E = codes.shape[1]
    h = _edge_set_hashes(n, codes, ecount)
    sampled = [a < q ** len(cot) for a, cot in zip(counts, cotrees)]
    c = np.fromiter(map(len, cotrees), np.int64, B)
    A = np.array(counts, dtype=np.int64)
    start = np.cumsum(A + 1) - (A + 1)
    gid = np.repeat(np.arange(B), A + 1)

    # gain 1 on the forest and the class index's base-q digits on the
    # cotree; a graph solving all q^c classes reads its index off the row
    expo = np.full((len(gid), E), q, dtype=np.min_scalar_type(q))
    expo[np.arange(E) < ecount[gid, None]] = 0
    cot = np.zeros((B, int(c.max(initial=0))), dtype=np.int64)
    cot[np.repeat(np.arange(B), c), _group_offsets(c)] = list(chain.from_iterable(cotrees))
    digits, index_of_row = np.where(sampled, 0, c)[gid], _group_offsets(A + 1)
    for j in range(int(digits.max(initial=0))):
        on = np.nonzero(digits > j)[0]
        expo[on, cot[gid[on], j]] = index_of_row[on] // q**j % q
    for g in np.flatnonzero(sampled).tolist():
        s, a = start[g], counts[g]
        index = _class_indices(q ** len(cotrees[g]), a, f"{seed}/{h[g]}")
        for j, col in enumerate(cotrees[g]):
            expo[s : s + a, col] = index // q**j % q
    switched, expo[start + A] = _switched_copies(h, n, codes, expo, start, A, q)
    # the disjoint cycles' vertex masks and signed edge rows, laid out by slot
    found = [cyc or () for cyc in cycles]
    ncyc = np.fromiter(map(len, found), np.int64, B)
    cg, ck = np.repeat(np.arange(B), ncyc), _group_offsets(ncyc)
    cyc_mask = np.zeros((B, int(ncyc.max(initial=0))), dtype=np.int64)
    memb = np.zeros((*cyc_mask.shape, E), dtype=np.int8)
    cyc_mask[cg, ck], e = [mask for cyc in found for mask, _ in cyc], ecount[cg]
    signs = chain.from_iterable(row for cyc in found for _, row in cyc)
    memb[np.repeat(cg, e), np.repeat(ck, e), _group_offsets(e)] = np.fromiter(signs, np.int8)
    p = _batched_matching_counts(adjmask, n)
    m = _max_index_positive(_unpack_counts(p[(1 << n) - 1], n // 2 + 1))
    cond = _condition_iii(p, cyc_mask, n)
    t = _stage(rep.timings, "facts", t)

    # the lower triangle H[v, u] = conj(phi(u, v)) for an edge u < v, 0
    # past a graph's last edge, is all eigvalsh reads; real values, real H
    values = np.real_if_close(np.array([g.value for g in alphabet])[pos])
    lower_values, lower_codes = np.append(values, 0).conj(), codes % n * n + codes // n
    deg = np.bitwise_count(adjmask).max(axis=1)
    copy, src = start + A, start + switched
    # signed and trivial gains make H an integer matrix, ranked exactly by
    # its characteristic coefficients; other alphabets take the eigenvalue cut
    exact = q <= 2
    # each slice is ranked as it is solved; only the switching pairs keep
    # their spectra, or their coefficient rows
    kept_rows = np.stack([src, copy], axis=1).ravel()
    kept = np.empty((2 * B, n + exact))
    R = len(gid)
    rank = np.empty(R, dtype=np.int64)
    for lo in range(0, R, _SOLVE_ROWS):
        rows = np.arange(lo, min(lo + _SOLVE_ROWS, R))
        at, entries = (rows - lo)[:, None], lower_values[expo[rows]]
        H = np.zeros((len(rows), n * n), dtype=lower_values.dtype)
        H[at, lower_codes[gid[rows]]] = entries
        if exact:  # the kernel reads both triangles
            H[at, codes[gid[rows]]] = entries
            w = _char_coeffs(H.reshape(-1, n, n))
            rank[rows] = n - (w[:, ::-1] != 0).argmax(axis=1)
            t = _stage(rep.timings, "eigensolve", t)
        else:
            w = np.linalg.eigvalsh(H.reshape(-1, n, n))
            t = _stage(rep.timings, "eigensolve", t)
            rank[rows], shaky = _rank_by_cut(np.abs(w), deg[gid[rows]], q)
            shaky &= rows != copy[gid[rows]]  # switched copies are compared, not ranked
            for i in rows[shaky]:
                G = graphs[gid[i]]
                rank[i] = exact_rank(_build_instance(G, alphabet, pos[expo[i, : len(G.edges)]]))
                rep.cross_checks += 1
        k0, k1 = np.searchsorted(kept_rows, [lo, lo + len(rows)])
        kept[k0:k1] = w[kept_rows[k0:k1] - lo]
        t = _stage(rep.timings, "checks", t)

    # every row's cycle gains, the switched copy's included, as exponent sums
    on = np.nonzero(np.array([cyc is not None for cyc in cycles])[gid])[0]
    g = gid[on]
    s = (memb[g] * expo[on, None, :].astype(np.int64)).sum(axis=2)
    low, up = _cycle_flags(np.bitwise_count(cyc_mask[g]).astype(np.int64), s, q)
    lower, upper = np.zeros(R, dtype=bool), np.zeros(R, dtype=bool)
    lower[on], upper[on] = low.all(axis=1) & cond[g], up.all(axis=1) & cond[g]

    gap = np.abs(kept[1::2] - kept[::2]).max(axis=1, initial=0)
    compared = "characteristic coefficients" if exact else "spectra"
    same_flags = (lower[copy] == lower[src]) & (upper[copy] == upper[src])
    least, most = (2 * m - 2 * c)[gid], (2 * m + c)[gid]
    want_lower, want_upper = rank == least, rank == most
    bad = (want_lower != lower) | (want_upper != upper)
    # a row must also obey the bounds 2m - 2c <= rank <= 2m + c; one that
    # fails the equivalence is reported as that
    failed = bad | (rank < least) | (rank > most)
    failed[copy] = False
    # failures graph by graph: spot check, switching check, then class rows;
    # the blossom route re-derives m and condition (iii) on the graphs whose
    # edge-set hash it divides, so sharding never changes which are checked
    events = []
    for k in np.flatnonzero(h % _SPOT_EVERY == 0).tolist():
        mb, cb = _blossom_facts(graphs[k], cycles[k])
        if mb != m[k] or cb != cond[k]:
            message = f"blossom m {mb} vs table {m[k]}, blossom cond (iii) {cb} vs table {cond[k]}"
            events.append((k, 0, start[k], f"spot check mismatch: {message}"))
    events += [(k, 1, copy[k], "") for k in np.nonzero((gap > 1e-9) | ~same_flags)[0]]
    events += [(gid[i], 2, i, "") for i in np.nonzero(failed)[0]]
    for k, kind, i, message in sorted(events)[: max(0, max_failures - len(rep.failures))]:
        if kind == 1:
            message = (
                f"switching check failed: {compared} differ by {gap[k]:.3g}, "
                f"structural flags {'agree' if same_flags[k] else 'differ'}, "
                f"against class representative {switched[k]}"
            )
        elif kind == 2 and bad[i]:
            message = (
                f"equivalence failed: rank={rank[i]} m={m[k]} c={c[k]} "
                f"spectral=({want_lower[i]},{want_upper[i]}) structural=({lower[i]},{upper[i]})"
            )
        elif kind == 2:
            message = (
                f"alphabet bound failed: rank={rank[i]} outside [{least[i]}, {most[i]}], "
                f"m={m[k]} c={c[k]}"
            )
        inst = _build_instance(graphs[k], alphabet, pos[expo[i, : len(graphs[k].edges)]])
        rep.failures.append(Failure(message, serialize_gain_graph(inst), int(rep.graphs + k)))

    rep.graphs += B
    rep.classes += sum(counts)
    rep.switching_checks += B
    rep.instances += sum(a * q ** (len(G.edges) - k) for G, a, k in zip(graphs, counts, c.tolist()))
    _stage(rep.timings, "checks", t)
    return _AlphabetRows(gid, expo, rank, lower, upper, m, c, cond)


def run_alphabet_slice(
    graphs: Iterable[SimpleGraph],
    alphabet: tuple[Gain, ...],
    cap: int | None = None,
    seed: int = 0,
    name: str = "alphabet",
    max_failures: int = 5,
) -> SliceReport:
    """Certify both equivalences on every graph, a chunk of graphs at a time.

    alphabet must be the full group of q-th roots of unity, in any order. A
    class representative has gain 1 on a spanning forest and any gain on
    each of the c cotree edges. All q^c classes are solved when cap is None
    or they fit in cap (at most 2^20 per graph), else cap distinct ones
    drawn from seed and the edge set; a cap below 1 raises ValueError. Each
    class counts as its q^(E-c) labeled instances. One switched copy per
    graph must match its representative, and every representative's rank
    must lie in [2m - 2c, 2m + c].
    A chunk is a run of same-n graphs whose rows fit in _SOLVE_ROWS, or one
    larger graph; failures follow the input order. A graph with more than
    _DP_N_MAX = 8 vertices raises SizeLimitError.

    report.timings splits the run into the stages enumerate (pulling the
    next graph), facts (cotree, cycles, class rows and matching DP),
    eigensolve (the rank kernel: characteristic coefficients for q <= 2,
    else the eigensolve) and checks (structural flags, ranks, escalation,
    switching compare, spot checks and failures), in seconds.
    """
    if cap is not None and cap < 1:
        raise ValueError(f"infeasible cap {cap}")
    t0 = time.perf_counter()
    rep = SliceReport(name=name, timings=dict.fromkeys(_ALPHABET_STAGES, 0.0))
    pos = _group_positions(alphabet)
    chunk: list[tuple] = []
    rows = 0
    t = time.perf_counter()
    for G in graphs:
        t = _stage(rep.timings, "enumerate", t)
        if G.n > _DP_N_MAX:
            raise SizeLimitError(f"the alphabet engine is limited to n <= {_DP_N_MAX}")
        cot = _cotree_columns(G)
        total = len(alphabet) ** len(cot)
        A = total if cap is None else min(total, cap)
        if A > 1 << 20:
            raise SizeLimitError(f"{A} switching classes on one graph; pass a smaller cap")
        cycles = _fundamental_cycles(G, cot)
        t = _stage(rep.timings, "facts", t)
        if chunk and (G.n != chunk[0][0].n or rows + A + 1 > _SOLVE_ROWS):
            _flush_alphabet_chunk(chunk, alphabet, pos, seed, rep, max_failures)
            chunk, rows, t = [], 0, time.perf_counter()
        chunk.append((G, cot, cycles, A))
        rows += A + 1
    if chunk:
        _flush_alphabet_chunk(chunk, alphabet, pos, seed, rep, max_failures)
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
    # the step to the next level where u is adjacent to v, else 0; v is the
    # lowest vertex of every set it serves, so only pairs u > v are needed
    step = {(v, u): (adjmask[:, v] >> u & 1) << _PACK_SHIFT for v, u in combinations(range(n), 2)}
    p = np.zeros((1 << n, B), dtype=np.int64)
    p[0] = 1
    term = np.empty(B, dtype=np.int64)
    for mask in range(1, 1 << n):
        v = (mask & -mask).bit_length() - 1
        rest = mask ^ (1 << v)
        acc = p[mask]
        acc[:] = p[rest]
        others = rest
        while others:
            u = (others & -others).bit_length() - 1
            others ^= 1 << u
            acc += np.multiply(p[rest ^ (1 << u)], step[v, u], out=term)
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


def _condition_iii(p: np.ndarray, cyc_mask: np.ndarray, n: int) -> np.ndarray:
    """m(G/C) == m(G - V(C)) per graph, from the packed table p and the
    disjoint cycles' vertex bitmasks (B, K), 0 in an absent slot. m(G/C) is
    the largest m of G - V(C) plus one kept vertex per cycle, and a packed
    entry grows with its top nonzero level, so the largest entry carries it."""
    B, K = cyc_mask.shape
    rows = np.arange(B)
    rest = ((1 << n) - 1) ^ np.bitwise_or.reduce(cyc_mask, axis=1)
    best = p[rest, rows]
    # a slot keeps one vertex that some row's cycle in it holds; a slot no
    # row uses adds nothing and is left out
    held = [int(x) for x in np.bitwise_or.reduce(cyc_mask, axis=0)]
    slots = [k for k in range(K) if held[k]]
    for kept in product(*([1 << a for a in range(n) if held[k] >> a & 1] for k in slots)):
        sub = rest | sum(cyc_mask[:, k] & bit for k, bit in zip(slots, kept))
        best = np.maximum(best, p[sub, rows])
    levels = n // 2 + 1
    return _max_index_positive(_unpack_counts(best, levels)) == _max_index_positive(
        _unpack_counts(p[rest, rows], levels)
    )


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


def _pack_edges(n: int, edge_lists: list, width: int) -> tuple[np.ndarray, ...]:
    """Neighbour bitmasks (B, n), edge counts (B,) and edge codes u*n + v
    (B, width) of same-n graphs; code 0, the diagonal entry no edge has,
    past each graph's last edge."""
    B = len(edge_lists)
    ecount = np.fromiter(map(len, edge_lists), np.int64, B)
    flat = chain.from_iterable(chain.from_iterable(edge_lists))
    ends = np.fromiter(flat, np.int64, 2 * int(ecount.sum())).reshape(-1, 2)
    erow = np.repeat(np.arange(B), ecount)
    adjmask = np.zeros((B, n), dtype=np.int64)
    np.add.at(adjmask, (erow, ends[:, 0]), 1 << ends[:, 1])
    np.add.at(adjmask, (erow, ends[:, 1]), 1 << ends[:, 0])
    codes = np.zeros((B, width), dtype=np.int64)
    codes[erow, _group_offsets(ecount)] = ends[:, 0] * n + ends[:, 1]
    return adjmask, ecount, codes


@dataclass
class _CactusChunk:
    """Same-n cactus structures packed column-wise, one row per graph."""

    n: int
    structs: list[CactusStructure]
    adjmask: np.ndarray  # (B, n) neighbour bitmasks
    ecount: np.ndarray  # (B,) edge count
    cyc_mask: np.ndarray  # (B, slots) cycle vertex bitmasks, 0 for an absent cycle slot
    cyc_len: np.ndarray  # (B, slots), 0 for an absent cycle slot
    ncyc: np.ndarray  # (B,) number of cycles


def _pack_cacti(n: int, structs: list[CactusStructure]) -> _CactusChunk:
    """Pack a chunk from the structures' edge masks. Cycle vertex masks are
    built once per run of structures that share one cycles tuple, then
    gathered; cycle lengths and counts are their popcounts. There is one
    cycle slot per three vertices the enumeration reaches: c disjoint cycles
    need n >= 3c."""
    B = len(structs)
    masks = np.fromiter(map(attrgetter("mask"), structs), np.int64, B)
    adjmask = np.zeros((B, n), dtype=np.int64)
    for i, (u, v) in enumerate(combinations(range(n), 2)):
        bit = masks >> i & 1
        adjmask[:, u] |= bit << v
        adjmask[:, v] |= bit << u

    runs = [(cyc, len(list(same))) for cyc, same in groupby(structs, attrgetter("cycles"))]
    run_masks = np.zeros((len(runs), GRAPH_ENUM_LIMIT // 3), dtype=np.int64)
    for r, (cyc, _) in enumerate(runs):
        run_masks[r, : len(cyc)] = [sum(1 << a for a in c) for c in cyc]
    cyc_mask = np.repeat(run_masks, [size for _, size in runs], axis=0)
    cyc_len = np.bitwise_count(cyc_mask).astype(np.int64)
    ecount = np.bitwise_count(masks).astype(np.int64)
    return _CactusChunk(n, structs, adjmask, ecount, cyc_mask, cyc_len, (cyc_len > 0).sum(axis=1))


class _ClassTable(NamedTuple):
    """Per-graph facts and per-class results of one packed chunk.

    Column sum_k r_k * 5^k is the class with Re phi(C_k) = cos(pi r_k/4) in
    cycle slot k; an absent cycle reads class 0. A chunk whose graphs have at
    most c cycles has 5^c columns.
    """

    m: np.ndarray  # (B,) matching number
    cond_iii: np.ndarray  # (B,) bool
    rank: np.ndarray  # (B, 5^c)
    lower: np.ndarray  # (B, 5^c) bool, structural lower conditions
    upper: np.ndarray  # (B, 5^c) bool, structural upper conditions


def _subset_coefficients(
    p: np.ndarray, cyc_mask: np.ndarray, cyc_len: np.ndarray, at: np.ndarray, n: int
) -> np.ndarray:
    """A[k, i, T] = (-1)^j N_j(G_i - V(T)) with 2j = k - |V(T)|, 0 where
    k - |V(T)| is odd or negative, for the graphs at (B,) of the packed
    table p, each with the c cycles cyc_mask, cyc_len (B, c); cycle subset T
    is the bitmask sum 2^k over its slots k. (n+1, B, 2^c) int64."""
    B, c = cyc_mask.shape
    levels = n // 2 + 1
    A = np.zeros((n + 1, B, 1 << c), dtype=np.int64)
    for T in range(1 << c):
        slots = [k for k in range(c) if T >> k & 1]
        rest = ((1 << n) - 1) ^ np.bitwise_or.reduce(cyc_mask[:, slots], axis=1)
        N = _unpack_counts(p[rest, at], levels)
        length = cyc_len[:, slots].sum(axis=1)
        for j in range(levels):
            k = length + 2 * j
            on = np.nonzero(k <= n)[0]
            A[k[on], on, T] = (-1) ** j * N[on, j]
    return A


def _cactus_class_table(chunk: _CactusChunk, timings: dict[str, float]) -> _ClassTable:
    """Matching DP, condition (iii) and the rank of every real-part class.

    The spectrum depends on the gains only through Re phi(C_k) of the c
    occupied cycle slots, each one of the five eighth-root real parts, so
    the coefficient sweep runs over 5^c classes per graph, for each c at
    that width. A chunk whose graphs have at most C cycles tiles each
    graph's columns to 5^C: a digit in an empty slot changes nothing.
    Every step runs on slices of _SOLVE_ROWS graphs, so the packed table p
    holds 2^n x _SOLVE_ROWS entries whatever the chunk's size.
    """
    B, n = len(chunk.structs), chunk.n
    K = 5 ** int(chunk.ncyc.max(initial=0))
    m, cond_iii = np.empty(B, dtype=np.int64), np.empty(B, dtype=bool)
    rank = np.empty((B, K), dtype=np.int64)
    lower, upper = np.empty((B, K), dtype=bool), np.empty((B, K), dtype=bool)
    for lo in range(0, B, _SOLVE_ROWS):
        t = time.perf_counter()
        part = slice(lo, lo + _SOLVE_ROWS)
        p = _batched_matching_counts(chunk.adjmask[part], n)
        cond_iii[part] = _condition_iii(p, chunk.cyc_mask[part], n)
        m[part] = _max_index_positive(_unpack_counts(p[-1], n // 2 + 1))
        t = _stage(timings, "matching_dp", t)

        ncyc = chunk.ncyc[part]
        for c in np.unique(ncyc).tolist():
            at = np.flatnonzero(ncyc == c)  # columns of p; rows of the chunk from lo
            rows, cyc_len = lo + at, chunk.cyc_len[lo + at, :c]
            digit = np.arange(5**c) // 5 ** np.arange(c)[:, None] % 5  # (c, 5^c) class octants
            # characteristic coefficients in Z[sqrt(2)], the highest nonzero
            # index giving the rank: a_k = sum over cycle subsets T of
            # A[k, T] (-2)^|T| prod(Re), where (-2)^|T| prod(Re) = P_T + Q_T
            # sqrt(2) with integers |P_T|, |Q_T| <= 2^c, so a_k = 0 exactly
            # when A[k] P = A[k] Q = 0. Every product and partial sum of
            # those matmuls is an integer of magnitude below 2^12 * 4^c <
            # 2^53, so float64 (BLAS) computes them exactly
            A = _subset_coefficients(p, chunk.cyc_mask[rows, :c], cyc_len, at, n)
            P = np.ones((1 << c, 5**c), dtype=np.int64)
            Q = np.zeros_like(P)
            for T in range(1 << c):
                for a, b in (_MINUS_2COS8[:, digit[i]] for i in range(c) if T >> i & 1):
                    P[T], Q[T] = P[T] * a + 2 * Q[T] * b, P[T] * b + Q[T] * a
            P, Q = P.astype(float), Q.astype(float)
            rank_c = np.zeros((len(at), 5**c), dtype=np.int64)
            for k in range(1, n + 1):
                A_k = A[k].astype(float)
                rank_c[((A_k @ P) != 0) | ((A_k @ Q) != 0)] = k

            low_c = up_c = cond_iii[rows, None]
            for l_k, digit_k in zip(cyc_len.T, digit):
                low, up = _cycle_flags(l_k[:, None], digit_k, 8)
                low_c, up_c = low_c & low, up_c & up
            tile = (1, K // 5**c)
            rank[rows], lower[rows], upper[rows] = (np.tile(a, tile) for a in (rank_c, low_c, up_c))
        del p  # before the next slice's table is built beside it
        _stage(timings, "sweep", t)
    return _ClassTable(m, cond_iii, rank, lower, upper)


def _class_instance(st: CactusStructure, col: int) -> GainGraph:
    """The deterministic representative of class column col: its octant r_k
    on the first edge of cycle k, gain 1 elsewhere. Re phi(C_k) is then
    cos(pi r_k/4) whichever way that edge is stored."""
    octant = {tuple(sorted(cyc[:2])): col // 5**k % 5 for k, cyc in enumerate(st.cycles)}
    return GainGraph.build(
        st.n, [(u, v, Gain.from_angle(octant.get((u, v), 0), 8)) for u, v in st.edges]
    )


def _flush_cactus_chunk(
    chunk: _CactusChunk,
    cap: int,
    rng: np.random.Generator,
    rep: SliceReport,
    max_failures: int,
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
        r_eig = np.empty(len(adj), dtype=np.int64)
        for lo in range(0, len(adj), _SOLVE_ROWS):
            part = adj[lo : lo + _SOLVE_ROWS]
            wt = np.linalg.eigvalsh(((part[:, :, None] >> np.arange(n)) & 1).astype(float))
            deg = np.bitwise_count(part).max(axis=1)
            # at q = 1 the band is empty through n = 11, past GRAPH_ENUM_LIMIT
            r_eig[lo : lo + _SOLVE_ROWS] = _rank_by_cut(np.abs(wt), deg, 1)[0]
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
                    graph_text=serialize_gain_graph(_class_instance(chunk.structs[i], 0)),
                )
            )
        rank[tree_rows] = r_eig[:, None]
    t = _stage(rep.timings, "trees", t)

    want_lower = rank == (2 * m_dp - 2 * c)[:, None]
    want_upper = rank == (2 * m_dp + c)[:, None]
    bad_class = (want_lower != table.lower) | (want_upper != table.upper)
    # every class a graph has, its first 5^c columns, must satisfy the
    # equivalence and both theorems' bounds 2m - 2c <= r <= min(2m + c,
    # 2m + b), b the odd cycles, which hold for every unit gain: one failure
    # per failing (graph, class), reported as the equivalence if it fails both
    K = rank.shape[1]
    odd = (chunk.cyc_len % 2).sum(axis=1)
    least, most = 2 * m_dp - 2 * c, 2 * m_dp + np.minimum(c, odd)
    out_of_bounds = (rank < least[:, None]) | (rank > most[:, None])
    own = np.arange(K) < (5**c)[:, None]
    failing = np.flatnonzero((bad_class | out_of_bounds) & own)  # keys i * K + r, ascending

    # the draws, cap octant assignments per graph as their cycle octant
    # sums, fix only the instance count, min(8^E, cap) per graph: every
    # class is checked above, so no failure depends on them. They still
    # run, so every spot check after them reads the same stream
    rng.integers(0, 8, size=(chunk.cyc_mask.shape[1], B, cap), dtype=np.int8)
    space = np.minimum(8.0 ** chunk.ecount, float(cap)).astype(np.int64)
    # each failure is serialized as its class's representative
    for key in failing[: max(0, max_failures - len(rep.failures))].tolist():
        i, r = divmod(key, K)
        if bad_class[i, r]:
            message = (
                f"cactus equivalence failed: rank={int(rank[i, r])} "
                f"m={int(m_dp[i])} c={int(c[i])} "
                f"structural=({bool(table.lower[i, r])},{bool(table.upper[i, r])})"
            )
        else:
            message = (
                f"cactus bound failed: rank={int(rank[i, r])} outside "
                f"[{int(least[i])}, {int(most[i])}], m={int(m_dp[i])} c={int(c[i])} "
                f"odd cycles={int(odd[i])}"
            )
        rep.failures.append(
            Failure(message, serialize_gain_graph(_class_instance(chunk.structs[i], r)))
        )
    t = _stage(rep.timings, "draws", t)

    # spot checks tie the vectorized tables back to the scalar engines on a
    # deterministic lattice of cyclic instances: a random octant on every
    # edge, classified by walking its cycles
    for i in range(0, B, _CACTUS_SPOT_EVERY):
        if c[i] == 0:
            continue
        st = chunk.structs[i]
        G = SimpleGraph.build(st.n, st.edges)  # the edges decoded once, in the same order
        mb = matching_number(G)
        octs = rng.integers(0, 8, len(G.edges))
        inst = GainGraph.build(
            st.n, [(u, v, Gain.from_angle(int(o), 8)) for (u, v), o in zip(G.edges, octs)]
        )
        walks = (cycle_record(inst, cyc).gain for cyc in st.cycles)
        col = sum(int(_COS_CLASS[g.k * (8 // g.q)]) * 5**k for k, g in enumerate(walks))
        ro = rank_combinatorial(inst)
        cond = cycle_matching_condition(G, st.cycles)[0]
        r0 = int(rank[i, col])
        mismatch = mb != int(m_dp[i]) or ro != r0 or cond != bool(cond_iii[i])
        if mismatch and len(rep.failures) < max_failures:
            rep.failures.append(
                Failure(
                    message=(
                        f"spot check mismatch: blossom m {mb} vs table {int(m_dp[i])}, "
                        f"oracle rank {ro} vs table {r0} (class {col}), "
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
    name: str = "cactus-roots8",
    max_failures: int = 5,
) -> SliceReport:
    """All disjoint-cycle connected graphs to n_max, eighth-root gains.

    Structures are certified in chunks of _CACTUS_CHUNK, which fix the
    draws (cap per graph, at least 1) and the spot-check lattice; each
    chunk's batched arrays run in slices of _SOLVE_ROWS graphs, which bound
    memory and change no output.

    report.timings splits the run into the stages enumerate, pack,
    matching_dp, sweep (the class table), trees, draws (the equivalence and
    bound check of every class, the sampled assignments and the failures)
    and spot_checks (seconds).
    """
    if n_max > GRAPH_ENUM_LIMIT:  # refused before any work, not after n_max - 1 is done
        raise SizeLimitError(f"cactus enumeration limited to n <= {GRAPH_ENUM_LIMIT}")
    if cap < 1:
        raise ValueError(f"infeasible cap {cap}")
    t0 = time.perf_counter()
    rep = SliceReport(name=name, timings=dict.fromkeys(_CACTUS_STAGES, 0.0))
    rng = np.random.Generator(np.random.PCG64(seed))
    for n in range(2, n_max + 1):
        structs = enumerate_connected_cacti(n)
        while True:
            t = time.perf_counter()
            batch = list(islice(structs, _CACTUS_CHUNK))
            t = _stage(rep.timings, "enumerate", t)
            if not batch:
                break
            packed = _pack_cacti(n, batch)
            _stage(rep.timings, "pack", t)
            _flush_cactus_chunk(packed, cap, rng, rep, max_failures)
    rep.elapsed = time.perf_counter() - t0
    return rep


def certify_equivalences(
    signed_n_max: int = 6,
    cactus_n_max: int = 8,
    cap: int = 50,
    seed: int = 20260821,
) -> CertificationResult:
    """The full two-family certification used by the acceptance run."""
    if cactus_n_max > GRAPH_ENUM_LIMIT:  # refused before the signed slice runs
        raise SizeLimitError(f"cactus enumeration limited to n <= {GRAPH_ENUM_LIMIT}")
    if cap < 1:
        raise ValueError(f"infeasible cap {cap}")
    signed = run_signed_slice(signed_n_max)
    cactus = run_cactus_slice(cactus_n_max, cap=cap, seed=seed)
    return CertificationResult(slices={signed.name: signed, cactus.name: cactus})
