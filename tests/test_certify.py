"""The batch certification engines and their low-level kernels."""

import hashlib
import math
import random
import re
import tracemalloc
from itertools import combinations, islice, product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gainrank import certify
from gainrank.certify import (
    _COS_CLASS,
    _ALPHABET_STAGES,
    _CACTUS_CHUNK,
    _CACTUS_STAGES,
    _CactusChunk,
    _batched_matching_counts,
    _cactus_class_table,
    _class_instance,
    _cotree_columns,
    _cycle_flags,
    _fundamental_cycles,
    _group_positions,
    _leaf_matching,
    _max_index_positive,
    _pack_cacti,
    _unpack_counts,
    certify_equivalences,
    run_alphabet_slice,
    run_cactus_slice,
    run_signed_slice,
    worker_count,
)
from gainrank.combinatorics import (
    cycle_matching_condition,
    cycle_record,
    cycles_pairwise_disjoint,
    enumerate_cycles,
    matching_number,
)
from gainrank.errors import SizeLimitError, TheoremViolation
from gainrank.gains import Gain
from gainrank.generators import (
    CactusStructure,
    GainSetSpec,
    enumerate_connected_cacti,
    enumerate_connected_graphs,
    random_tree,
)
from gainrank.graphs import GainGraph, SimpleGraph, parse_gain_graph, serialize_gain_graph
from gainrank.spectral import exact_rank, nonzero_eigenvalue_bound, rank as spectral_rank
from gainrank.theorems import (
    CycleType,
    classify_cycle,
    lower_optimal_structural,
    upper_optimal_structural,
)

from conftest import simple_graphs
from twins import matching_number_bruteforce


def adjacency_masks(G):
    masks = np.zeros((1, G.n), dtype=np.int64)
    for u, v in G.edges:
        masks[0, u] |= 1 << v
        masks[0, v] |= 1 << u
    return masks


@settings(max_examples=50)
@given(simple_graphs(max_n=7))
def test_packed_matching_dp_matches_bruteforce(G):
    p = _batched_matching_counts(adjacency_masks(G), G.n)
    full = p[(1 << G.n) - 1]
    levels = G.n // 2 + 1
    counts = _unpack_counts(full, levels)
    assert counts[0, 0] == 1
    assert int(_max_index_positive(counts)[0]) == matching_number_bruteforce(G)
    # level 1 counts the edges
    if levels > 1:
        assert counts[0, 1] == len(G.edges)


def _matching_counts_by_multiplying(adjmask, n):
    """The packed recurrence with a 0/1 multiply per neighbour, as first written."""
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
            acc += (p[rest ^ (1 << u)] << certify._PACK_SHIFT) * ((adjmask[:, v] >> u) & 1)
        p[mask] = acc
    return p


def test_matching_dp_equals_the_multiplying_recurrence():
    rng = np.random.default_rng(8)
    for n in range(1, 9):
        for density in (0.2, 0.5, 0.8, 1.0):  # 1.0 gives the complete graph
            upper = np.triu(rng.random((40, n, n)) < density, 1)
            adjmask = ((upper | upper.transpose(0, 2, 1)) << np.arange(n)).sum(axis=2)
            assert np.array_equal(
                _batched_matching_counts(adjmask, n), _matching_counts_by_multiplying(adjmask, n)
            ), (n, density)


def test_packed_dp_induced_subsets():
    G = SimpleGraph.build(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    p = _batched_matching_counts(adjacency_masks(G), 4)
    # subset {0, 1}: one edge, one 1-matching
    counts = _unpack_counts(p[0b0011], 2)
    assert counts[0].tolist() == [1, 1]
    # subset {0, 2}: no edges
    counts = _unpack_counts(p[0b0101], 2)
    assert counts[0].tolist() == [1, 0]
    # full square: 1 empty, 4 single edges, 2 perfect matchings
    counts = _unpack_counts(p[0b1111], 3)
    assert counts[0].tolist() == [1, 4, 2]


def _cos8(octants):
    """Re of the eighth roots of unity at the given octants: cos(pi r/4)."""
    return [math.cos(math.pi * r / 4) for r in octants]


def test_cos_table():
    for k in range(8):
        assert _cos8([_COS_CLASS[k]]) == pytest.approx(_cos8([k]), abs=1e-12)
        assert 0 <= _COS_CLASS[k] <= 4


def test_rank_threshold_monotone():
    # at degree d = 1 (q in {1, 2, 3, 4, 6}) the cut beta/2 is 0.5 * deg^-(n-1)
    for q in (1, 2, 3, 4, 6):
        for n in range(1, 9):
            for deg in range(n):
                old = 0.5 if deg <= 1 else 0.5 * float(deg) ** (-(n - 1))
                assert nonzero_eigenvalue_bound(n, deg, q) / 2 == old, (q, n, deg)
    t = nonzero_eigenvalue_bound(6, 3, 2) / 2
    assert 0 < t < 0.5
    assert nonzero_eigenvalue_bound(8, 4, 2) / 2 < t
    # a larger field degree only lowers the bound
    assert nonzero_eigenvalue_bound(6, 3, 7) < nonzero_eigenvalue_bound(6, 3, 5) < 2 * t


def test_worker_count_env(monkeypatch):
    monkeypatch.setenv("GAINRANK_WORKERS", "3")
    assert worker_count() == 3
    monkeypatch.setenv("GAINRANK_WORKERS", "0")
    with pytest.raises(ValueError):
        worker_count()
    monkeypatch.delenv("GAINRANK_WORKERS")
    assert worker_count() >= 1


def test_signed_slice_tiny():
    rep = run_signed_slice(3)
    assert rep.ok
    assert rep.graphs == 5
    # one graph per sign assignment of each edge set: 2 + 3*4 + 8
    assert rep.instances == 22


def test_alphabet_slice_gaussian_exhaustive():
    gaussian = tuple(Gain.from_angle(j, 4) for j in range(4))
    rep = run_alphabet_slice(
        enumerate_connected_graphs(3), gaussian, cap=None, name="tiny-gaussian"
    )
    assert rep.ok
    assert rep.graphs == 5
    assert rep.instances == sum(4 ** len(G.edges) for G in enumerate_connected_graphs(3))


def test_alphabet_slice_subsample_cap():
    signed = (Gain.from_angle(0), Gain.from_angle(1, 2))
    graphs = list(enumerate_connected_graphs(4))
    rep = run_alphabet_slice(graphs, signed, cap=3, seed=9, name="capped")
    assert rep.ok
    # cap counts switching classes: min(2^c, 3) per graph, each standing
    # for its 2^(n-1) labeled assignments
    assert (rep.graphs, rep.classes, rep.instances) == (43, 73, 558)
    assert rep.classes == sum(min(2 ** (len(G.edges) - G.n + 1), 3) for G in graphs)
    assert rep.switching_checks == rep.graphs


def test_alphabet_slice_gaussian_n5_is_exhaustive_at_the_default_cap():
    gaussian = GainSetSpec.parse("gaussian").values()
    graphs = list(enumerate_connected_graphs(5))
    rep = run_alphabet_slice(graphs, gaussian, cap=4096)
    assert rep.ok
    assert (rep.graphs, rep.switching_checks) == (771, 771)
    assert rep.classes == sum(4 ** (len(G.edges) - G.n + 1) for G in graphs) == 38073
    assert rep.instances == sum(4 ** len(G.edges) for G in graphs) == 9699444


def test_alphabet_slice_rejects_unbounded_product():
    big = SimpleGraph.build(8, list(combinations(range(8), 2)))
    signed = (Gain.from_angle(0), Gain.from_angle(1, 2))
    with pytest.raises(SizeLimitError):
        run_alphabet_slice([big], signed, cap=None)  # 2^21 classes


def test_alphabet_slice_size_limit_counts_classes():
    # K8 less the path 0-1-...-7 is connected with 21 edges: 2^21 labeled
    # sign assignments but 2^14 classes, all solved though 2^21 would not be
    path = {(v, v + 1) for v in range(7)}
    G = SimpleGraph.build(8, [e for e in combinations(range(8), 2) if e not in path])
    assert len(G.edges) == 21
    rep = run_alphabet_slice([G], GainSetSpec.parse("signed").values(), cap=None)
    assert rep.ok
    assert (rep.classes, rep.instances, rep.switching_checks) == (1 << 14, 1 << 21, 1)


def test_alphabet_slice_refuses_a_graph_past_the_matching_table():
    path = SimpleGraph.build(9, [(v, v + 1) for v in range(8)])
    for kind in ("signed", "roots:3"):
        with pytest.raises(SizeLimitError):
            run_alphabet_slice([path], GainSetSpec.parse(kind).values())


def test_class_sample_is_distinct_and_needs_no_int64():
    for total, count in ((10, 10), (10, 9), (1000, 7), (12**21, 5)):
        index = certify._class_indices(total, count, "0")
        picked = [int(x) for x in index]
        assert len(set(picked)) == count and picked == sorted(picked)
        assert 0 <= picked[0] and picked[-1] < total
    # K8 has 8^21 = 2^63 switching classes over the eighth roots of unity
    k8 = SimpleGraph.build(8, list(combinations(range(8), 2)))
    roots8 = GainSetSpec.parse("roots:8").values()
    rep = run_alphabet_slice([k8], roots8, cap=2, seed=5)
    assert rep.ok
    assert (rep.classes, rep.instances, rep.switching_checks) == (2, 2 * 8**7, 1)


@pytest.mark.parametrize("kind", ["trivial", "signed", "roots:3", "gaussian", "roots:6"])
def test_integer_coefficient_alphabets_take_the_proven_threshold(kind, monkeypatch):
    alphabet = GainSetSpec.parse(kind).values()
    q = len(alphabet)
    graphs = list(enumerate_connected_graphs(4))
    cuts = set()

    def bound(n, max_degree, q):
        cuts.add((n, max_degree, q))
        return nonzero_eigenvalue_bound(n, max_degree, q)

    monkeypatch.setattr(certify, "nonzero_eigenvalue_bound", bound)
    rep = run_alphabet_slice(graphs, alphabet, cap=None)
    assert rep.ok and rep.cross_checks == 0  # nothing escalated
    if q <= 2:  # an integer H is ranked by its characteristic coefficients: no cut
        assert cuts == set()
    else:  # the proven cut alone, for this q and every degree
        assert cuts == {(n, d, q) for n in range(2, 5) for d in range(n)}
    values = np.array([g.value for g in alphabet])[_group_positions(alphabet)]
    for G in graphs:
        cot = _cotree_columns(G)
        E = len(G.edges)
        expo = np.zeros((q ** len(cot), E), dtype=np.int64)
        for j, e in enumerate(cot):
            expo[:, e] = (np.arange(q ** len(cot)) // q**j) % q
        w = np.linalg.eigvalsh(_hermitian(G, values[expo]))
        ranks = (np.abs(w) > nonzero_eigenvalue_bound(G.n, max(G.degrees()), q) / 2).sum(axis=1)
        for row, r in zip(expo, ranks):
            edges = [(u, v, Gain.from_angle(int(k), q)) for (u, v), k in zip(G.edges, row)]
            assert exact_rank(GainGraph.build(G.n, edges)) == r


def test_guard_band_escalates_to_the_exact_rank(monkeypatch):
    # an error floor above every eigenvalue puts each roots:5 representative
    # in the band, so each goes to exact_rank; the float-tolerance oracle is
    # never used
    def no_oracle(g):
        raise AssertionError("rank_combinatorial called")

    monkeypatch.setattr(certify, "_EIG_ERROR", 1e30)
    monkeypatch.setattr(certify, "rank_combinatorial", no_oracle)
    rep = run_alphabet_slice(enumerate_connected_graphs(4), GainSetSpec.parse("roots:5").values())
    assert rep.ok
    assert rep.cross_checks == rep.classes > 0


@pytest.mark.parametrize("q,n_max", [(5, 5), (7, 4), (8, 4), (12, 4)])
def test_nonzero_eigenvalues_clear_the_galois_bound(q, n_max):
    # on every switching-class representative each |lambda| is a float zero
    # or at least beta(n, deg, q)
    values = np.exp(2j * np.pi * np.arange(q) / q)
    for G in enumerate_connected_graphs(n_max):
        cot = _cotree_columns(G)
        expo = np.zeros((q ** len(cot), len(G.edges)), dtype=np.int64)
        for j, e in enumerate(cot):
            expo[:, e] = np.arange(q ** len(cot)) // q**j % q
        aw = np.abs(np.linalg.eigvalsh(_hermitian(G, values[expo])))
        beta = nonzero_eigenvalue_bound(G.n, max(G.degrees()), q)
        assert ((aw < 1e-9) | (aw >= beta)).all(), G


def test_a_cut_above_the_smallest_nonzero_eigenvalue_is_a_serialized_failure(monkeypatch):
    # the smallest nonzero |lambda| of roots:5 at n <= 5 is about 2 beta, so
    # ten times the bound puts the cut at 5 beta, above it
    def too_high(n, max_degree, q):
        return 10 * nonzero_eigenvalue_bound(n, max_degree, q)

    monkeypatch.setattr(certify, "nonzero_eigenvalue_bound", too_high)
    graphs = enumerate_connected_graphs(5)
    rep = run_alphabet_slice(graphs, GainSetSpec.parse("roots:5").values(), max_failures=10**9)
    assert rep.failures and rep.cross_checks == 0
    for f in rep.failures[:: max(1, len(rep.failures) // 50)]:
        reported = int(re.match(r"equivalence failed: rank=(\d+)", f.message).group(1))
        assert exact_rank(parse_gain_graph(f.graph_text)) > reported, f


GROUPS = ("signed", "gaussian", "roots:3")


@pytest.mark.parametrize("kind", GROUPS)
def test_alphabet_slice_solves_one_representative_per_class(kind):
    alphabet = GainSetSpec.parse(kind).values()
    q = len(alphabet)
    graphs = list(enumerate_connected_graphs(4))
    rep = run_alphabet_slice(graphs, alphabet, cap=None, name=kind)
    assert rep.ok
    assert rep.graphs == 43
    assert rep.instances == sum(q ** len(G.edges) for G in graphs)
    assert rep.classes == sum(q ** (len(G.edges) - G.n + 1) for G in graphs)
    assert rep.switching_checks == rep.graphs


def _gauge_fixed(G, expo, q):
    """Switch each labeled exponent row so that every spanning-forest edge
    carries exponent 0: phi'(u,v) = s_u phi(u,v) s_v^-1, solved vertex by
    vertex along the forest."""
    cotree = set(_cotree_columns(G))
    tree = [e for e in range(len(G.edges)) if e not in cotree]
    k = np.zeros((expo.shape[0], G.n), dtype=np.int64)
    done = [False] * G.n
    while not all(done):
        root = done.index(False)
        done[root] = True
        grown = True
        while grown:
            grown = False
            for e in tree:
                u, v = G.edges[e]
                if done[u] != done[v]:
                    if done[u]:
                        k[:, v] = k[:, u] + expo[:, e]
                    else:
                        k[:, u] = k[:, v] - expo[:, e]
                    done[u] = done[v] = grown = True
    ends = np.array(G.edges, dtype=np.int64).reshape(-1, 2)
    return (expo + k[:, ends[:, 0]] - k[:, ends[:, 1]]) % q, tree


def _hermitian(G, gvals):
    H = np.zeros((gvals.shape[0], G.n, G.n), dtype=np.complex128)
    for e, (u, v) in enumerate(G.edges):
        H[:, u, v] = gvals[:, e]
        H[:, v, u] = np.conj(gvals[:, e])
    return H


@pytest.mark.parametrize("kind", GROUPS)
def test_every_labeled_assignment_matches_its_class_representative(kind):
    alphabet = GainSetSpec.parse(kind).values()
    q = len(alphabet)
    values = np.array([g.value for g in alphabet])[_group_positions(alphabet)]
    for G in enumerate_connected_graphs(4):
        E = len(G.edges)
        expo = (np.arange(q**E)[:, None] // q ** np.arange(E)[None, :]) % q
        reps, tree = _gauge_fixed(G, expo, q)
        assert not reps[:, tree].any()
        _, sizes = np.unique(reps, axis=0, return_counts=True)
        assert len(sizes) == q ** (E - G.n + 1)
        assert (sizes == q ** (G.n - 1)).all()
        labeled, gauged = values[expo], values[reps]
        assert (
            np.linalg.matrix_rank(_hermitian(G, labeled), hermitian=True)
            == np.linalg.matrix_rank(_hermitian(G, gauged), hermitian=True)
        ).all()
        cycles = _fundamental_cycles(G, _cotree_columns(G))
        if cycles is None:
            continue  # cycles meet: both flags are false for every assignment
        for mask, memb in cycles:  # each cycle's flags, from its exponent sum
            length = np.full(len(expo), mask.bit_count())
            labeled_flags = _cycle_flags(length, expo @ memb, q)
            gauged_flags = _cycle_flags(length, reps @ memb, q)
            for flags, rep_flags in zip(labeled_flags, gauged_flags):
                assert (flags == rep_flags).all()


def test_corrupted_switched_copy_is_a_serialized_failure(monkeypatch):
    switched_copies = certify._switched_copies

    def corrupted(h, n, codes, expo, start, counts, q):
        r, copy = switched_copies(h, n, codes, expo, start, counts, q)
        last = np.arange(len(copy)), (codes > 0).sum(axis=1) - 1
        copy[last] = (copy[last] + 1) % q  # one edge moves alone: not a switching
        return r, copy

    monkeypatch.setattr(certify, "_switched_copies", corrupted)
    signed = GainSetSpec.parse("signed").values()
    triangle = SimpleGraph.build(3, [(0, 1), (1, 2), (0, 2)])
    path = SimpleGraph.build(3, [(0, 1), (1, 2)])
    rep = run_alphabet_slice([path, triangle], signed, cap=None)
    # on a tree every edge change is a switching; on the triangle it flips
    # the cycle gain, and the spectrum with it
    assert rep.switching_checks == 2
    assert len(rep.failures) == 1
    failure = rep.failures[0]
    assert failure.message.startswith("switching check failed")
    g = parse_gain_graph(failure.graph_text)
    assert (g.n, len(g.edges)) == (3, 3)


def test_char_coeffs_equal_numpy_poly_on_every_representative(monkeypatch):
    seen = []
    char_coeffs = certify._char_coeffs

    def recorded(H):
        c = char_coeffs(H)
        seen.append((H, c))
        return c

    monkeypatch.setattr(certify, "_char_coeffs", recorded)
    k8 = SimpleGraph.build(8, list(combinations(range(8), 2)))
    for kind in ("trivial", "signed"):
        alphabet = GainSetSpec.parse(kind).values()
        assert run_alphabet_slice(enumerate_connected_graphs(5), alphabet, cap=None).ok
    assert run_alphabet_slice([k8], GainSetSpec.parse("signed").values(), cap=256, seed=3).ok
    assert {H.shape[1] for H, _ in seen} == {2, 3, 4, 5, 8}
    for H, c in seen:
        want = [np.round(np.poly(H[r])).astype(np.int64) for r in range(len(H))]
        assert np.array_equal(c, want)


def _char_poly_by_faddeev_leverrier(H):
    """det(xI - H) as Python ints, highest power first: M_k = H M_{k-1} +
    c_{k-1} I, c_k = -tr(H M_k) / k."""
    n = len(H)
    c, M = [1], [[0] * n for _ in range(n)]
    for k in range(1, n + 1):
        M = [[sum(H[i][t] * M[t][j] for t in range(n)) + (c[-1] if i == j else 0)
              for j in range(n)] for i in range(n)]
        HM_trace = sum(H[i][t] * M[t][i] for i in range(n) for t in range(n))
        c.append(-HM_trace // k)
    return c


def test_char_coeffs_stay_exact_at_the_size_limit():
    # n = 11 is the largest n whose float64 bound holds, and K11 reaches
    # its largest degree and coefficient magnitudes: all gains 1 give
    # (x - 10)(x + 1)^10, and random signs are checked against Python ints
    n = 11
    rng = np.random.default_rng(11)
    upper = np.triu(np.ones((n, n), dtype=np.int64), 1)[None] * rng.choice([-1, 1], (5, n, n))
    H = np.concatenate([np.triu(np.ones((1, n, n), dtype=np.int64), 1), upper])
    H += H.transpose(0, 2, 1)
    c = certify._char_coeffs(H.astype(float))
    ones = [math.comb(n - 1, k) for k in range(n)]  # (x + 1)^10
    assert c[0].tolist() == [a - 10 * b for a, b in zip(ones + [0], [0] + ones)]
    for h, row in zip(H, c):
        assert row.tolist() == _char_poly_by_faddeev_leverrier(h.tolist())


def test_signed_runs_neither_eigensolve_nor_escalate(monkeypatch):
    calls = []

    def refuse(*args, **kwargs):
        calls.append(args[0].shape)
        raise RuntimeError("eigvalsh called")

    def no_exact_rank(g):
        raise AssertionError("exact_rank called")

    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    monkeypatch.setattr(certify, "exact_rank", no_exact_rank)
    rep = run_signed_slice(5)
    assert rep.ok and rep.cross_checks == 0 and not calls
    k8 = SimpleGraph.build(8, list(combinations(range(8), 2)))
    rep = run_alphabet_slice([k8], GainSetSpec.parse("signed").values(), cap=256)
    assert rep.ok and rep.cross_checks == 0 and not calls
    # the cactus trees keep their eigensolve, the third route beside the
    # leaf matching and the matching table
    with pytest.raises(RuntimeError, match="eigvalsh called"):
        run_cactus_slice(5)
    assert calls


def test_corrupted_switched_coefficient_is_a_serialized_failure(monkeypatch):
    char_coeffs = certify._char_coeffs

    def corrupted(H):
        c = char_coeffs(H).copy()
        c[-1, -1] += 1  # the block's last row: the last graph's switched copy
        return c

    monkeypatch.setattr(certify, "_char_coeffs", corrupted)
    signed = GainSetSpec.parse("signed").values()
    triangle = SimpleGraph.build(3, [(0, 1), (1, 2), (0, 2)])
    path = SimpleGraph.build(3, [(0, 1), (1, 2)])
    rep = run_alphabet_slice([path, triangle], signed, cap=None)
    assert rep.switching_checks == 2
    assert [f.message.split(",")[0] for f in rep.failures] == [
        "switching check failed: characteristic coefficients differ by 1"
    ]
    g = parse_gain_graph(rep.failures[0].graph_text)
    assert (g.n, len(g.edges)) == (3, 3)


@pytest.mark.parametrize("side", ["lower", "upper"])
def test_an_alphabet_rank_outside_the_bounds_is_a_serialized_bound_failure(monkeypatch, side):
    # the kernel is pinned to rank 0 (lower) or n (upper) on every row, the
    # switched copies included; a representative whose flags agree with that
    # rank but which lies outside [2m - 2c, 2m + c] fails only the bounds.
    # Rank n > 2m + c needs few matchings: the unicyclic n = 6 graphs with m = 2
    def pinned(H):
        coeffs = np.zeros((H.shape[0], H.shape[1] + 1))
        coeffs[:, 0] = 1
        coeffs[:, 1:] = side == "upper"
        return coeffs

    monkeypatch.setattr(certify, "_char_coeffs", pinned)
    signed = GainSetSpec.parse("signed").values()
    pos = _group_positions(signed)
    graphs = [
        G for G in enumerate_connected_graphs(6)
        if G.n < 5 or G.n == 6 and len(G.edges) == 6 and matching_number(G) == 2
    ]
    rep = run_alphabet_slice(graphs, signed, cap=None, max_failures=10**9)
    want = []  # graph by graph, class index by class index
    for G in graphs:
        m, cotree = matching_number(G), _cotree_columns(G)
        c, r = len(cotree), 0 if side == "lower" else G.n
        for index in range(2**c):
            expo = [0] * len(G.edges)
            for j, col in enumerate(cotree):
                expo[col] = index >> j & 1
            g = GainGraph.build(G.n, [(u, v, signed[pos[x]]) for (u, v), x in zip(G.edges, expo)])
            flags = lower_optimal_structural(g).holds, upper_optimal_structural(g).holds
            if flags != (r == 2 * m - 2 * c, r == 2 * m + c):
                want.append(("equivalence failed", serialize_gain_graph(g)))
            elif not 2 * m - 2 * c <= r <= 2 * m + c:
                message = f"alphabet bound failed: rank={r} outside [{2 * m - 2 * c}, {2 * m + c}]"
                want.append((f"{message}, m={m} c={c}", serialize_gain_graph(g)))
    # an equivalence failure's details are pinned elsewhere; only its kind here
    got = [(f.message, f.graph_text) for f in rep.failures]
    got = [(m.split(":")[0] if m.startswith("equivalence") else m, g) for m, g in got]
    assert got == want
    assert sum(message.startswith("alphabet bound") for message, _ in got) > 10


def _edge_set_hash(G):
    """The edge-set hash graph by graph, as first written."""
    h = G.n
    for u, v in G.edges:
        h = (h * 1_000_003 + u * G.n + v + 1) % (1 << 61)
    return h


def _switched_copy(G, expo, q):
    """The switched copy graph by graph, as first written: representative
    h mod rows of expo, switched by the base-q digits of h."""
    h = _edge_set_hash(G)
    r = h % expo.shape[0]
    k = np.array([(h // q**v) % q for v in range(G.n)], dtype=np.int64)
    if q > 1 and (k == k[0]).all():  # a scalar switching changes nothing
        k[-1] = (k[-1] + 1) % q
    u, v = np.array(G.edges).T
    return r, (expo[r] + k[u] - k[v]) % q


@pytest.mark.parametrize("kind", ["signed", "roots:3", "roots:1000003"])
def test_switched_copies_are_the_per_graph_switchings(kind):
    q = GainSetSpec.parse(kind).order
    graphs = [G for G in enumerate_connected_graphs(5) if G.n == 5]
    _, ecount, codes = certify._pack_edges(5, [G.edges for G in graphs], 10)
    counts = np.arange(len(graphs)) % 4 + 1
    start = np.cumsum(counts) - counts
    expo = np.random.default_rng(0).integers(0, q, size=(counts.sum(), 10))
    h = certify._edge_set_hashes(5, codes, ecount)
    r, copy = certify._switched_copies(h, 5, codes, expo, start, counts, q)
    potentials = np.array(list(product(range(min(q, 3)), repeat=5)))
    for g, G in enumerate(graphs):
        E = len(G.edges)
        rows = expo[start[g] : start[g] + counts[g], :E]
        want_r, want_copy = _switched_copy(G, rows, q)
        assert (r[g], copy[g, :E].tolist()) == (want_r, want_copy.tolist()), G
        assert (copy[g, E:] == q).all()
        moved = (copy[g, :E] - rows[r[g]]) % q
        assert moved.any(), G  # a scalar switching would change nothing
        if q <= 3:  # moved(u, v) = k_u - k_v for some vertex potentials k
            u, v = np.array(G.edges).T
            assert ((potentials[:, u] - potentials[:, v]) % q == moved).all(axis=1).any(), G


def test_chunk_hashes_equal_the_per_graph_hash():
    graphs = list(enumerate_connected_graphs(6))
    assert len(graphs) == 27475
    for n in range(2, 7):
        same = [G for G in graphs if G.n == n]
        _, ecount, codes = certify._pack_edges(n, [G.edges for G in same], n * (n - 1) // 2)
        got = certify._edge_set_hashes(n, codes, ecount)
        assert got.tolist() == [_edge_set_hash(G) for G in same], n


def _reference_flags(G, gvals):
    """(lower, upper) per row of gain values, one graph at a time: blossom
    condition (iii), block-decomposition cycles and float cycle products."""
    lower = np.zeros(gvals.shape[0], dtype=bool)
    ok, cycles = cycles_pairwise_disjoint(G)
    if not ok:
        return lower, lower
    cond = cycle_matching_condition(G, cycles)[0]
    lower, upper = np.full_like(lower, cond), np.full_like(lower, cond)
    col_of = {e: i for i, e in enumerate(G.edges)}
    for cyc in cycles:
        prod = np.ones(gvals.shape[0], dtype=complex)
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            g = gvals[:, col_of[(min(a, b), max(a, b))]]
            prod *= np.conj(g) if a > b else g
        if len(cyc) % 2 == 0:
            lower &= np.abs(prod - (1 if len(cyc) // 2 % 2 == 0 else -1)) <= 1e-9
            upper[:] = False
        else:
            lower[:] = False
            upper &= np.abs(prod.real) > 1e-9
    return lower, upper


@pytest.mark.parametrize("kind,cap", [
    ("signed", None), ("gaussian", None), ("roots:3", None), ("roots:8", 64),
])
def test_chunk_rows_match_a_per_graph_reference(kind, cap, monkeypatch):
    alphabet = GainSetSpec.parse(kind).values()
    q = len(alphabet)
    pos = _group_positions(alphabet)
    values = np.array([g.value for g in alphabet])[pos]
    chunks = []

    def flush(entries, *args):
        chunks.append(([entry[0] for entry in entries], flush_chunk(entries, *args)))

    flush_chunk = certify._flush_alphabet_chunk
    monkeypatch.setattr(certify, "_flush_alphabet_chunk", flush)
    rep = run_alphabet_slice(enumerate_connected_graphs(5), alphabet, cap=cap)
    assert rep.ok and rep.graphs == sum(len(graphs) for graphs, _ in chunks) == 771
    assert rep.cross_checks == 0  # the band is empty for these q at n <= 5
    for graphs, table in chunks:
        n = graphs[0].n
        for g, G in enumerate(graphs):
            E = len(G.edges)
            rows = (table.gid == g).nonzero()[0]
            gvals = values[table.expo[rows, :E]]
            cut = nonzero_eigenvalue_bound(n, max(G.degrees()), q) / 2
            ranks = (np.abs(np.linalg.eigvalsh(_hermitian(G, gvals))) > cut).sum(axis=1)
            assert table.rank[rows[:-1]].tolist() == ranks[:-1].tolist()  # the last is the copy
            lower, upper = _reference_flags(G, gvals)
            assert table.lower[rows].tolist() == lower.tolist(), G
            assert table.upper[rows].tolist() == upper.tolist(), G
            assert (int(table.m[g]), int(table.c[g])) == (matching_number(G), E - n + 1)
            ok, cycles = cycles_pairwise_disjoint(G)
            if ok:
                assert bool(table.cond_iii[g]) == cycle_matching_condition(G, cycles)[0]


def test_fundamental_cycles_decide_disjointness_like_the_block_decomposition():
    graphs = list(enumerate_connected_graphs(6))
    assert len(graphs) == 27475
    for G in graphs:
        fundamental = _fundamental_cycles(G, _cotree_columns(G))
        ok, cycles = cycles_pairwise_disjoint(G)
        assert (fundamental is not None) == ok, G
        if ok:
            got = sorted((mask, np.abs(memb).sum()) for mask, memb in fundamental)
            assert got == sorted((sum(1 << v for v in cyc), len(cyc)) for cyc in cycles), G


def _condition_iii_full_product(p, cyc_mask, n):
    """_condition_iii as first written: a gather for every kept-vertex tuple."""
    B, K = cyc_mask.shape
    rows = np.arange(B)
    rest = ((1 << n) - 1) ^ np.bitwise_or.reduce(cyc_mask, axis=1)
    best = p[rest, rows]
    for kept in product(range(n), repeat=K):
        sub = rest | sum(cyc_mask[:, k] & (1 << a) for k, a in enumerate(kept))
        best = np.maximum(best, p[sub, rows])
    levels = n // 2 + 1
    return _max_index_positive(_unpack_counts(best, levels)) == _max_index_positive(
        _unpack_counts(p[rest, rows], levels)
    )


def test_condition_iii_equals_the_full_product_on_every_chunk(monkeypatch):
    seen = []
    real = certify._condition_iii

    def checked(p, cyc_mask, n):
        got = real(p, cyc_mask, n)
        assert np.array_equal(got, _condition_iii_full_product(p, cyc_mask, n)), n
        seen.append(n)
        return got

    monkeypatch.setattr(certify, "_condition_iii", checked)
    assert run_cactus_slice(n_max=7, cap=1).ok
    cactus_chunks = len(seen)
    trivial = GainSetSpec.parse("trivial").values()
    assert run_alphabet_slice(enumerate_connected_graphs(6), trivial).ok
    assert set(seen[:cactus_chunks]) == set(range(2, 8))
    assert set(seen[cactus_chunks:]) == set(range(2, 7))


def _report_fields(rep):
    failures = [(f.message, f.graph_text) for f in rep.failures]
    fields = (rep.graphs, rep.instances, rep.classes, rep.switching_checks, rep.cross_checks)
    return fields, failures


# sha256 of the report fields and failure lists below: roots:5 as the
# per-graph switched copies first produced it, signed as the integer rank
# kernel first produced it
TINY_CHUNK_SHA256 = {
    "signed": "58764e57aab3ea3cdcc5ea7cb29f1fc752645f39e2430d63fc7edb3ebaafec4c",
    "roots:5": "ca533e4fe9912d3683ff500ba3c40c1167efb5797f0249124f75046713a9f855",
}


@pytest.mark.parametrize("kind", ["signed", "roots:5"])
def test_tiny_chunks_keep_the_report_and_the_failure_list(kind, monkeypatch):
    # a cut of 0.9 misranks many roots:5 classes, so there are failures to
    # keep in order, and an error floor of 0.05*n*deg opens the band
    # [0.8, 1.0] on K5, so roots:5 escalates some of its rows; signed gains
    # take the integer kernel, which misranks many classes when it drops
    # every characteristic coefficient of magnitude at most 2
    monkeypatch.setattr(certify, "nonzero_eigenvalue_bound", lambda n, d, q: 1.8)
    monkeypatch.setattr(certify, "_EIG_ERROR", 0.05 / np.finfo(float).eps)
    char_coeffs = certify._char_coeffs

    def drop_small(H):
        c = char_coeffs(H).copy()
        c[:, 1:][np.abs(c[:, 1:]) <= 2] = 0
        return c

    monkeypatch.setattr(certify, "_char_coeffs", drop_small)
    alphabet = GainSetSpec.parse(kind).values()
    graphs = list(enumerate_connected_graphs(5))
    k5 = [G for G in graphs if len(G.edges) == 10]  # alone, its rows span nine slices of 8

    def run():
        return [
            _report_fields(run_alphabet_slice(some, alphabet, cap=70, max_failures=10**9))
            for some in (graphs, k5)
        ]

    wide = run()
    monkeypatch.setattr(certify, "_SOLVE_ROWS", 8)
    narrow = run()
    assert narrow == wide
    assert hashlib.sha256(repr(wide).encode()).hexdigest() == TINY_CHUNK_SHA256[kind]
    (fields, failures), (k5_fields, _) = wide
    assert failures and k5_fields[2] > 8  # failures, and K5's 64 classes outgrow a chunk
    assert kind == "signed" or (fields[4] > 0 and k5_fields[4] > 0)


def test_shuffled_mixed_n_input_gives_the_sorted_counts():
    graphs = list(enumerate_connected_graphs(5))
    shuffled = random.Random(3).sample(graphs, len(graphs))
    for kind in ("signed", "roots:3"):
        alphabet = GainSetSpec.parse(kind).values()
        plain = run_alphabet_slice(graphs, alphabet, cap=None)
        mixed = run_alphabet_slice(shuffled, alphabet, cap=None)
        assert plain.ok and mixed.ok
        assert _report_fields(mixed) == _report_fields(plain)


def test_matching_dp_off_by_one_is_a_serialized_spot_check_failure(monkeypatch):
    real = certify._max_index_positive
    monkeypatch.setattr(certify, "_max_index_positive", lambda counts: real(counts) + 1)
    graphs = list(enumerate_connected_graphs(5))
    rep = run_alphabet_slice(graphs, GainSetSpec.parse("signed").values(), max_failures=10**9)
    spot = [f for f in rep.failures if f.message.startswith("spot check mismatch")]
    # the graphs whose edge-set hash h = n, h * 1_000_003 + u*n + v + 1 per
    # edge, mod 2^61, is 0 mod 97, recomputed here in Python integers
    picked = []
    for G in graphs:
        h = G.n
        for u, v in G.edges:
            h = (h * 1_000_003 + u * G.n + v + 1) % (1 << 61)
        if h % certify._SPOT_EVERY == 0:
            picked.append(G)
    assert picked and len(spot) == len(picked)
    for f, G in zip(spot, picked):
        assert parse_gain_graph(f.graph_text).underlying() == G
        # a graph's spot check is reported before its other failures
        assert next(e for e in rep.failures if e.position == f.position) is f


@pytest.mark.parametrize("alphabet", [
    (Gain.from_angle(0), Gain.from_angle(1, 4)),  # 1 and i: not the square roots
    (Gain.from_angle(0), Gain.from_angle(0)),  # a repeat leaves -1 out
    (Gain.from_angle(0), Gain.from_complex(complex(0.6, 0.8))),  # no exact angle
    (),
])
def test_alphabet_slice_requires_a_root_of_unity_group(alphabet):
    triangle = SimpleGraph.build(3, [(0, 1), (1, 2), (0, 2)])
    with pytest.raises(ValueError):
        run_alphabet_slice([triangle], alphabet, cap=None)


def test_alphabet_positions_follow_angles_not_order():
    shuffled = (Gain.from_angle(2, 3), Gain.from_angle(0), Gain.from_angle(1, 3))
    assert _group_positions(shuffled).tolist() == [1, 2, 0]
    rep = run_alphabet_slice(enumerate_connected_graphs(4), shuffled, cap=None)
    plain = run_alphabet_slice(enumerate_connected_graphs(4), GainSetSpec.parse("roots:3").values())
    assert rep.ok and (rep.instances, rep.classes) == (plain.instances, plain.classes)


def test_cactus_slice_tiny(monkeypatch):
    monkeypatch.setattr(certify, "_CACTUS_SPOT_EVERY", 7)
    rep = run_cactus_slice(n_max=5, cap=10, seed=1)
    assert rep.ok
    assert rep.graphs == 383
    assert rep.cross_checks > 0


def test_cactus_slice_reports_stage_timings():
    rep = run_cactus_slice(n_max=6, cap=5, seed=0)
    stages = ("enumerate", "pack", "matching_dp", "sweep", "trees", "draws", "spot_checks")
    assert _CACTUS_STAGES == stages
    assert set(rep.timings) == set(_CACTUS_STAGES)
    assert all(t >= 0.0 for t in rep.timings.values())
    assert sum(rep.timings.values()) <= rep.elapsed


def test_cactus_failures_stop_at_max_failures(monkeypatch):
    # a wrong leaf matching number fails every tree
    real = certify._leaf_matching
    monkeypatch.setattr(certify, "_leaf_matching", lambda adjmask: real(adjmask) + 1)
    rep = run_cactus_slice(n_max=6, cap=5, seed=0, max_failures=3)
    assert len(rep.failures) == 3
    assert rep.failures[0].message.startswith("tree certification failed")


def test_alphabet_slice_reports_stage_timings():
    rep = run_signed_slice(5)
    assert set(rep.timings) == set(_ALPHABET_STAGES)
    assert all(t >= 0.0 for t in rep.timings.values())
    assert sum(rep.timings.values()) <= rep.elapsed


@pytest.mark.parametrize("n", range(2, 8))
def test_leaf_matching_equals_blossom_on_every_tree(n):
    trees = [st for st in enumerate_connected_cacti(n) if not st.cycles]
    got = _leaf_matching(_pack_cacti(n, trees).adjmask)
    assert got.tolist() == [matching_number(SimpleGraph.build(n, st.edges)) for st in trees]


def test_leaf_matching_equals_blossom_on_random_forests():
    rng = random.Random(11)
    graphs = []
    for _ in range(400):
        n = rng.randint(1, 24)
        # dropping edges of a uniform tree leaves a forest, isolated vertices included
        edges = [e for e in random_tree(n, rng) if rng.random() < 0.7]
        graphs.append(SimpleGraph.build(n, edges))
    for n in {G.n for G in graphs}:
        same = [G for G in graphs if G.n == n]
        adjmask = np.vstack([adjacency_masks(G) for G in same])
        assert _leaf_matching(adjmask).tolist() == [matching_number(G) for G in same]


@pytest.mark.parametrize("n", range(2, 8))
def test_one_pass_packer_matches_per_structure_packing(n):
    structs = list(enumerate_connected_cacti(n))
    chunk = _pack_cacti(n, structs)
    B = len(structs)
    adjmask = np.zeros((B, n), dtype=np.int64)
    ecount = np.zeros(B, dtype=np.int64)
    cyc_mask = np.zeros((B, 2), dtype=np.int64)
    cyc_len = np.zeros((B, 2), dtype=np.int64)
    ncyc = np.zeros(B, dtype=np.int64)
    for i, st in enumerate(structs):
        for u, v in st.edges:
            adjmask[i, u] |= 1 << v
            adjmask[i, v] |= 1 << u
        ecount[i] = len(st.edges)
        for k, cyc in enumerate(st.cycles):
            cyc_mask[i, k] = sum(1 << a for a in cyc)
            cyc_len[i, k] = len(cyc)
        ncyc[i] = len(st.cycles)
    assert chunk.structs == structs
    for name, want in [
        ("adjmask", adjmask), ("ecount", ecount), ("cyc_mask", cyc_mask),
        ("cyc_len", cyc_len), ("ncyc", ncyc),
    ]:
        got = getattr(chunk, name)
        assert got.dtype == want.dtype and np.array_equal(got, want), name


@pytest.mark.parametrize("n", range(2, 7))
def test_cactus_class_table_matches_numeric_rank_and_structure(n):
    # at n = 6 only the two-cycle graphs, the first with all 25 classes
    structs = [st for st in enumerate_connected_cacti(n) if n < 6 or len(st.cycles) == 2]
    table = _cactus_class_table(_pack_cacti(n, structs), {})
    for i, st in enumerate(structs):
        for classes in product(range(5), repeat=len(st.cycles)):
            # the class's eighth root on the first edge of each cycle fixes
            # Re phi(C) = cos(pi r/4) whichever way that edge is stored
            gain_on = {}
            for cyc, r in zip(st.cycles, classes):
                gain_on[tuple(sorted(cyc[:2]))] = Gain.from_angle(r, 8)
            g = GainGraph.build(n, [(u, v, gain_on.get((u, v), Gain.one())) for u, v in st.edges])
            col = sum(r * 5**k for k, r in enumerate(classes))
            assert int(table.rank[i, col]) == spectral_rank(g, mode="numeric"), (st, classes)
            assert bool(table.lower[i, col]) == lower_optimal_structural(g).holds, (st, classes)
            assert bool(table.upper[i, col]) == upper_optimal_structural(g).holds, (st, classes)


# at n = 9 the packed matching counts still fit: a graph on 9 vertices has at
# most 1,260 j-matchings (K_9 at j = 3), below 2^12, and 5 levels fill 60 bits
def _three_cycle_chunk():
    """Three triangles on n = 9, joined by two bridges three ways."""
    n, cycles = 9, ((0, 1, 2), (3, 4, 5), (6, 7, 8))
    triangles = [e for cyc in cycles for e in combinations(cyc, 2)]
    pairs = list(combinations(range(n), 2))
    structs = []
    for bridges in [((2, 3), (5, 6)), ((0, 3), (0, 6)), ((1, 3), (4, 6))]:
        edges = tuple(sorted(triangles + list(bridges)))
        structs.append(CactusStructure(n, cycles, sum(1 << pairs.index(e) for e in edges)))
    graphs = [SimpleGraph.build(n, st.edges) for st in structs]
    B = len(structs)
    chunk = _CactusChunk(
        n,
        structs,
        adjmask=np.vstack([adjacency_masks(G) for G in graphs]),
        ecount=np.full(B, 11),
        cyc_mask=np.tile([sum(1 << a for a in cyc) for cyc in cycles], (B, 1)),
        cyc_len=np.full((B, 3), 3),
        ncyc=np.full(B, 3),
    )
    return chunk, graphs


def test_three_cycle_class_table_matches_numeric_rank_and_structure():
    chunk, graphs = _three_cycle_chunk()
    structs, B = chunk.structs, len(graphs)
    table = _cactus_class_table(chunk, {})
    assert table.rank.shape == (B, 125)
    assert table.m.tolist() == [matching_number(G) for G in graphs]
    # m(G/C) = 1 > 0 = m(G - V(C)): condition (iii) fails, so no class is extremal
    assert not table.cond_iii.any()
    for (i, st), col in product(enumerate(structs), range(125)):
        g = _class_instance(st, col)
        assert int(table.rank[i, col]) == spectral_rank(g, mode="numeric"), (st, col)
        flags = bool(table.lower[i, col]), bool(table.upper[i, col])
        structural = lower_optimal_structural(g).holds, upper_optimal_structural(g).holds
        assert flags == structural == (False, False), (st, col)


# sha256 over the shape and bytes of every class table field, chunk by chunk,
# for n <= 7: the tables as the two-cycle sweep first produced them
CLASS_TABLES_SHA256 = "a975c865836c7da6def7beb27e53bd2d095280b3fccca0a3b64f58f9ac28b1e9"


def test_class_tables_keep_their_digest():
    h = hashlib.sha256()
    for n in range(2, 8):
        structs = enumerate_connected_cacti(n)
        while chunk := list(islice(structs, _CACTUS_CHUNK)):
            table = _cactus_class_table(_pack_cacti(n, chunk), {})
            for a in (table.m, table.cond_iii, table.rank, table.lower, table.upper):
                h.update(str(a.shape).encode())
                h.update(a.tobytes())
    assert h.hexdigest() == CLASS_TABLES_SHA256


def _table_fields(table):
    return [(a.dtype, a.shape, a.tobytes()) for a in table]


# each batched step of the class table and the tree eigensolve runs on
# slices of _SOLVE_ROWS graphs; the slice size must change no output
def test_class_tables_keep_their_digest_in_slices_of_seven(monkeypatch):
    monkeypatch.setattr(certify, "_SOLVE_ROWS", 7)
    test_class_tables_keep_their_digest()


def test_row_slices_keep_the_three_cycle_table(monkeypatch):
    chunk, _ = _three_cycle_chunk()
    whole = _table_fields(_cactus_class_table(chunk, {}))
    for rows in (7, 2):  # one slice, then two
        monkeypatch.setattr(certify, "_SOLVE_ROWS", rows)
        assert _table_fields(_cactus_class_table(chunk, {})) == whole, rows


def test_row_slices_keep_the_cactus_report_and_failure_list(monkeypatch):
    # a raised class column fails cyclic graphs in the class table, and a cut
    # at 1.1 misranks every tree with an eigenvalue of magnitude in (0, 1.1]
    _raise_class_columns(monkeypatch, [1])
    monkeypatch.setattr(certify, "nonzero_eigenvalue_bound", lambda n, d, q: 2.2)

    def run():
        return _report_fields(run_cactus_slice(n_max=6, cap=20, seed=0, max_failures=10**6))

    whole = run()
    monkeypatch.setattr(certify, "_SOLVE_ROWS", 7)
    assert run() == whole
    messages = {message.split(":")[0] for message, _ in whole[1]}
    assert {"tree certification failed", "cactus equivalence failed"} <= messages


def test_a_class_table_keeps_a_bounded_working_set():
    # the first n = 7 chunk: its whole-chunk packed table alone would take
    # 2^7 x 20,000 x 8 bytes = 20.5 MB
    structs = list(islice(enumerate_connected_cacti(7), _CACTUS_CHUNK))
    assert len(structs) == _CACTUS_CHUNK
    chunk = _pack_cacti(7, structs)
    tracemalloc.start()
    try:
        _cactus_class_table(chunk, {})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10e6, peak


def _octant_class(g, cycles):
    """Class column of g's cycles, each classified by walking it."""
    return sum(
        int(_COS_CLASS[int(cycle_record(g, cyc).gain.angle * 8)]) * 5**k
        for k, cyc in enumerate(cycles)
    )


def test_class_table_equals_brute_force_over_every_octant_assignment():
    # every 8^E eighth-root assignment of every cactus with n <= 4: 70,344
    # instances, ranked by one batched eigensolve (zero padding to 4 x 4
    # adds only zero eigenvalues) and classified cycle by cycle
    roots = np.exp(2j * np.pi * np.arange(8) / 8)
    gains = [Gain.from_angle(o, 8) for o in range(8)]
    walked = {}  # (cycle, octants on its edges) -> (class digit, cycle type)

    def walk(cyc, octant_on):
        ring = [tuple(sorted(e)) for e in zip(cyc, cyc[1:] + cyc[:1])]
        key = (cyc, tuple(octant_on[e] for e in ring))
        if key not in walked:
            g = GainGraph.build(max(cyc) + 1, [(a, b, gains[octant_on[a, b]]) for a, b in ring])
            rec = cycle_record(g, cyc)
            walked[key] = int(_COS_CLASS[int(rec.gain.angle * 8)]), classify_cycle(g, rec)
        return walked[key]

    H, table_says, walk_says = [], [], []
    for n in range(2, 5):
        structs = list(enumerate_connected_cacti(n))
        table = _cactus_class_table(_pack_cacti(n, structs), {})
        for i, st in enumerate(structs):
            cond = cycle_matching_condition(SimpleGraph.build(n, st.edges), st.cycles)[0]
            octs = np.array(list(product(range(8), repeat=len(st.edges))))
            u, v = np.array(st.edges).T
            h = np.zeros((len(octs), 4, 4), dtype=complex)
            h[:, u, v], h[:, v, u] = roots[octs], roots[octs].conj()
            H.append(h)
            for row in octs.tolist():
                walks = [walk(cyc, dict(zip(st.edges, row))) for cyc in st.cycles]
                col = sum(d * 5**k for k, (d, _) in enumerate(walks))
                types = [t for _, t in walks]
                table_says.append((table.lower[i, col], table.upper[i, col], table.rank[i, col]))
                walk_says.append((
                    cond and all(t is CycleType.EVEN_SINGULAR for t in types),
                    cond and all(t in (CycleType.ODD_POSITIVE, CycleType.ODD_NEGATIVE)
                                 for t in types),
                ))
    ranks = (np.abs(np.linalg.eigvalsh(np.concatenate(H))) > 1e-6).sum(axis=1)
    assert len(ranks) == 70_344
    for told, walk_flags, rank in zip(table_says, walk_says, ranks.tolist()):
        assert told == (*walk_flags, rank)


def test_class_representative_walks_to_its_class():
    two_triangles = [st for st in enumerate_connected_cacti(6) if len(st.cycles) == 2]
    for st, col in product(two_triangles, range(25)):
        g = parse_gain_graph(serialize_gain_graph(_class_instance(st, col)))
        assert _octant_class(g, st.cycles) == col
        reals = [cycle_record(g, cyc).real_part for cyc in st.cycles]
        assert reals == pytest.approx(_cos8([col % 5, col // 5]), abs=1e-12)


def _patch_class_rank(monkeypatch, cols, new_rank):
    """Replace the class table's rank in the given columns by
    new_rank(rank columns, table, chunk)."""
    real = certify._cactus_class_table

    def patched(chunk, timings):
        table = real(chunk, timings)
        rank = table.rank.copy()
        here = [col for col in cols if col < rank.shape[1]]
        rank[:, here] = new_rank(rank[:, here], table, chunk)
        return table._replace(rank=rank)

    monkeypatch.setattr(certify, "_cactus_class_table", patched)


def _raise_class_columns(monkeypatch, cols):
    _patch_class_rank(monkeypatch, cols, lambda rank, table, chunk: rank + 1)


# below n = 8 only one-cycle classes reach an extremal rank, so only their
# columns can turn a raised rank into an equivalence failure
@pytest.mark.parametrize("col", [1, 3])
def test_raised_class_column_fails_on_its_class_representative(monkeypatch, col):
    _raise_class_columns(monkeypatch, [col])
    rep = run_cactus_slice(n_max=6, cap=20, seed=0, max_failures=10**6)
    failed = [f for f in rep.failures if f.message.startswith("cactus equivalence failed")]
    spot = [f for f in rep.failures if f.message.startswith("spot check mismatch")]
    assert failed and len(failed) + len(spot) == len(rep.failures)
    assert len({f.graph_text for f in failed}) == len(failed)  # one per (graph, class)
    # every failing instance, serialized or spot-checked, lies in the raised class
    for f in failed + spot:
        g = parse_gain_graph(f.graph_text)
        cycles = enumerate_cycles(g)
        reals = [cycle_record(g, cyc).real_part for cyc in cycles] + [1.0] * (2 - len(cycles))
        assert sorted(reals) == pytest.approx(sorted(_cos8([col, 0])), abs=1e-12), f.graph_text
        assert _octant_class(g, cycles) in (col, 5 * col)


def test_two_cycle_column_claiming_the_upper_bound_fails_on_its_representative(monkeypatch):
    # Re phi = 0 and -sqrt(1/2): the first triangle is imaginary, so no graph
    # of this class is upper-extremal. Only the drawn second cycle sums reach
    # the column, and one-cycle graphs never do
    col = 2 + 5 * 3

    def upper_bound(rank, table, chunk):
        return (2 * table.m + chunk.ncyc)[:, None]

    _patch_class_rank(monkeypatch, [col], upper_bound)
    rep = run_cactus_slice(n_max=6, cap=20, seed=0, max_failures=10**6)
    assert rep.failures
    assert all(f.message.startswith("cactus equivalence failed") for f in rep.failures)
    for f in rep.failures:
        g = parse_gain_graph(f.graph_text)
        cycles = enumerate_cycles(g)
        reals = sorted(cycle_record(g, cyc).real_part for cyc in cycles)
        assert reals == pytest.approx(sorted(_cos8([2, 3])), abs=1e-12), f.graph_text
        assert _octant_class(g, cycles) in (col, 3 + 5 * 2)


def test_every_spot_check_reads_the_class_it_walked(monkeypatch):
    _raise_class_columns(monkeypatch, range(25))
    monkeypatch.setattr(certify, "_CACTUS_SPOT_EVERY", 7)
    rep = run_cactus_slice(n_max=6, cap=5, seed=0, max_failures=10**6)
    spot = [f for f in rep.failures if f.message.startswith("spot check mismatch")]
    assert rep.cross_checks > 0 and len(spot) == rep.cross_checks
    for f in spot:
        oracle, table = map(int, re.search(r"oracle rank (\d+) vs table (\d+)", f.message).groups())
        assert table == oracle + 1


def test_a_wrong_subset_coefficient_is_a_serialized_cactus_failure(monkeypatch):
    real = certify._subset_coefficients

    def bumped(p, cyc_mask, cyc_len, at, n):
        A = real(p, cyc_mask, cyc_len, at, n)
        A[n, :, 0] += 1  # the determinant's cycle-free term, one entry per graph
        return A

    monkeypatch.setattr(certify, "_subset_coefficients", bumped)
    rep = run_cactus_slice(n_max=6, cap=20, seed=0, max_failures=10**6)
    cactus = [f for f in rep.failures if f.message.startswith("cactus ")]
    assert cactus
    for f in cactus:
        reported = int(re.search(r"rank=(\d+)", f.message).group(1))
        assert exact_rank(parse_gain_graph(f.graph_text)) != reported, f


@pytest.mark.parametrize("side", ["lower", "upper"])
def test_a_rank_outside_the_bounds_is_a_serialized_bound_failure(monkeypatch, side):
    # the class columns 2 + 5d have Re phi(C_1) = 0, so no graph is extremal
    # there: a rank of 2m - 2c - 1 or 2m + c + 1 passes the equivalence, and
    # only the bounds catch it, once per class a graph has: one for a single
    # cycle, whose columns repeat every 5, and five for two cycles
    cols = range(2, 25, 5)

    def outside(rank, table, chunk):
        here = [col for col in cols if col < table.rank.shape[1]]
        neither = ~table.lower[:, here] & ~table.upper[:, here]
        m, c = table.m, chunk.ncyc
        wrong = 2 * m - 2 * c - 1 if side == "lower" else 2 * m + c + 1
        return np.where(neither, wrong[:, None], rank)

    _patch_class_rank(monkeypatch, cols, outside)
    rep = run_cactus_slice(n_max=6, cap=20, seed=0, max_failures=10**6)
    bound = [f for f in rep.failures if f.message.startswith("cactus bound failed")]
    spot = [f for f in rep.failures if f.message.startswith("spot check mismatch")]
    assert len(bound) + len(spot) == len(rep.failures)
    assert len(bound) == sum(
        5 ** (len(st.cycles) - 1) for n in range(2, 7) for st in enumerate_connected_cacti(n)
        if st.cycles
    )
    assert len({f.graph_text for f in bound}) == len(bound)
    for f in bound:
        g = parse_gain_graph(f.graph_text)
        cycles = enumerate_cycles(g)
        assert {_octant_class(g, cycles), _octant_class(g, cycles[::-1])} & set(cols), f.graph_text
        r, least, most, m, c = map(int, re.search(
            r"rank=(-?\d+) outside \[(-?\d+), (\d+)\], m=(\d+) c=(\d+)", f.message
        ).groups())
        odd = sum(len(cyc) % 2 for cyc in cycles)
        assert (least, most) == (2 * m - 2 * c, 2 * m + min(c, odd)), f.message
        assert r == (least - 1 if side == "lower" else 2 * m + c + 1), f.message


def test_every_failing_class_is_reported_whatever_the_draws(monkeypatch):
    # every class of every cyclic graph pushed above 2m + c: one draw per
    # graph reaches at most one of its classes, yet each class fails on its
    # own, as the equivalence or the bound, and is reported once
    def above(rank, table, chunk):
        cyclic = (chunk.ncyc > 0)[:, None]
        return np.where(cyclic, (2 * table.m + chunk.ncyc + 1)[:, None], rank)

    _patch_class_rank(monkeypatch, range(25), above)
    rep = run_cactus_slice(n_max=6, cap=1, seed=0, max_failures=10**6)
    cactus = [f for f in rep.failures if f.message.startswith("cactus ")]
    spot = [f for f in rep.failures if f.message.startswith("spot check mismatch")]
    assert len(cactus) + len(spot) == len(rep.failures)
    classes = sum(
        5 ** len(st.cycles) for n in range(2, 7) for st in enumerate_connected_cacti(n) if st.cycles
    )
    assert len(cactus) == classes == 21_740
    assert len({f.graph_text for f in cactus}) == len(cactus)  # one per (graph, class)


def _failure_digest(rep):
    failures = [(f.message, f.graph_text) for f in rep.failures]
    return hashlib.sha256(repr(failures).encode()).hexdigest()


# sha256 of run_cactus_slice(n_max=6, cap=20, seed=0)'s failure list under
# two mutations: a raised class column, found in the class table for every
# (graph, class) it fails, and an oracle rank off by one, found by the spot
# checks alone while the class table stays clean
RAISED_COLUMN_SHA256 = "778f89ff27234116b225d1e95bdb1a2a8fb9421cdbc83d577c7fd1550d64a630"
ORACLE_OFF_SHA256 = "ed9e0f550336439f11a39433c54fc2fd4fff85133795b0c9f4a6e8e4d4cfb1c1"


def test_raised_class_column_keeps_its_failure_list(monkeypatch):
    _raise_class_columns(monkeypatch, [1])
    rep = run_cactus_slice(n_max=6, cap=20, seed=0, max_failures=10**6)
    assert len(rep.failures) == 3898
    assert _failure_digest(rep) == RAISED_COLUMN_SHA256


def test_oracle_off_by_one_keeps_its_spot_check_failure_list(monkeypatch):
    real = certify.rank_combinatorial
    monkeypatch.setattr(certify, "rank_combinatorial", lambda g: real(g) + 1)
    monkeypatch.setattr(certify, "_CACTUS_SPOT_EVERY", 7)
    rep = run_cactus_slice(n_max=6, cap=20, seed=0, max_failures=10**6)
    assert len(rep.failures) == rep.cross_checks == 569
    assert all(f.message.startswith("spot check mismatch") for f in rep.failures)
    assert _failure_digest(rep) == ORACLE_OFF_SHA256


def test_cactus_slice_to_seven_keeps_its_counts():
    rep = run_cactus_slice(7, cap=50, seed=0)
    assert rep.ok
    assert (rep.graphs, rep.instances, rep.cross_checks) == (96_201, 4_810_008, 82)


def test_cactus_size_limit_is_checked_before_any_enumeration(monkeypatch):
    def refuse(*args):
        raise AssertionError("an enumeration started")

    monkeypatch.setattr(certify, "enumerate_connected_cacti", refuse)
    monkeypatch.setattr(certify, "enumerate_connected_graphs", refuse)
    with pytest.raises(SizeLimitError):
        run_cactus_slice(n_max=9)
    with pytest.raises(SizeLimitError):
        certify_equivalences(signed_n_max=3, cactus_n_max=9)


@pytest.mark.parametrize("cap", [0, -1])
def test_a_cap_below_one_is_refused_before_any_work(monkeypatch, cap):
    def refuse(*args):
        raise AssertionError("work started")

    monkeypatch.setattr(certify, "enumerate_connected_cacti", refuse)
    monkeypatch.setattr(certify, "enumerate_connected_graphs", refuse)
    signed = GainSetSpec.parse("signed").values()
    for start in (
        lambda: run_cactus_slice(n_max=5, cap=cap),
        lambda: run_alphabet_slice(map(refuse, [0]), signed, cap=cap),
        lambda: certify_equivalences(signed_n_max=3, cactus_n_max=4, cap=cap),
    ):
        with pytest.raises(ValueError, match=f"infeasible cap {cap}"):
            start()


def test_certify_equivalences_combined():
    res = certify_equivalences(signed_n_max=3, cactus_n_max=4, cap=5, seed=2)
    assert res.ok
    assert set(res.slices) == {"signed-exhaustive", "cactus-roots8"}
    assert res.instances == sum(s.instances for s in res.slices.values())
    assert res.require_ok() is res


def test_require_ok_escalates():
    from gainrank.certify import CertificationResult, Failure, SliceReport

    rep = SliceReport(name="bad")
    rep.failures.append(Failure("made-up mismatch", "n 2\ne 0 1 1"))
    res = CertificationResult(slices={"bad": rep})
    assert not res.ok
    with pytest.raises(TheoremViolation) as exc:
        res.require_ok()
    assert "made-up mismatch" in str(exc.value)
    assert exc.value.instance == "n 2\ne 0 1 1"
