"""The batch certification engines and their low-level kernels."""

import math
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gainrank import certify
from gainrank.certify import (
    _COS8,
    _batched_matching_counts,
    _cotree_columns,
    _group_positions,
    _max_index_positive,
    _rank_threshold,
    _static_facts,
    _structural_flags,
    _unpack_counts,
    certify_equivalences,
    run_alphabet_slice,
    run_cactus_slice,
    run_signed_slice,
    worker_count,
)
from gainrank.combinatorics.matching import matching_number_bruteforce
from gainrank.errors import SizeLimitError, TheoremViolation
from gainrank.gains import Gain
from gainrank.generators import GainSetSpec, enumerate_connected_graphs
from gainrank.graphs import GainGraph, SimpleGraph, parse_gain_graph
from gainrank.spectral import exact_rank

from conftest import simple_graphs


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


def test_cos_table():
    for k in range(8):
        assert _COS8[k] == pytest.approx(math.cos(2 * math.pi * k / 8), abs=1e-12)


def test_rank_threshold_monotone():
    assert _rank_threshold(5, 1) == 0.5
    assert _rank_threshold(5, 0) == 0.5
    t = _rank_threshold(6, 3)
    assert 0 < t < 0.5
    assert t == pytest.approx(0.5 * 3.0 ** (-5))
    assert _rank_threshold(8, 4) < t


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
    # a path with 21 edges has 2^21 labeled sign assignments but one class
    path = SimpleGraph.build(22, [(v, v + 1) for v in range(21)])
    rep = run_alphabet_slice([path], GainSetSpec.parse("signed").values(), cap=None)
    assert rep.ok
    assert (rep.classes, rep.instances, rep.switching_checks) == (1, 1 << 21, 1)


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
    cuts = []

    def threshold(n, max_degree):
        cuts.append(n)
        return _rank_threshold(n, max_degree)

    monkeypatch.setattr(certify, "_rank_threshold", threshold)
    rep = run_alphabet_slice(graphs, alphabet, cap=None)
    assert rep.ok and rep.cross_checks == 0
    assert len(cuts) == len(graphs)  # one proven cut per graph, no guard band
    values = np.array([g.value for g in alphabet])[_group_positions(alphabet)]
    for G in graphs:
        cot = _cotree_columns(G)
        E = len(G.edges)
        expo = np.zeros((q ** len(cot), E), dtype=np.int64)
        for j, e in enumerate(cot):
            expo[:, e] = (np.arange(q ** len(cot)) // q**j) % q
        w = np.linalg.eigvalsh(_hermitian(G, values[expo]))
        ranks = (np.abs(w) > _rank_threshold(G.n, max(G.degrees()))).sum(axis=1)
        for row, r in zip(expo, ranks):
            edges = [(u, v, Gain.from_angle(int(k), q)) for (u, v), k in zip(G.edges, row)]
            assert exact_rank(GainGraph.build(G.n, edges)) == r


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
        st = _static_facts(G)
        labeled, gauged = values[expo], values[reps]
        assert (
            np.linalg.matrix_rank(_hermitian(G, labeled), hermitian=True)
            == np.linalg.matrix_rank(_hermitian(G, gauged), hermitian=True)
        ).all()
        for flags, rep_flags in zip(_structural_flags(st, labeled), _structural_flags(st, gauged)):
            assert (flags == rep_flags).all()


def test_corrupted_switched_copy_is_a_serialized_failure(monkeypatch):
    switched_copy = certify._switched_copy

    def corrupted(G, ends, expo, q):
        r, copy = switched_copy(G, ends, expo, q)
        copy = copy.copy()
        copy[-1] = (copy[-1] + 1) % q  # one edge moves alone: not a switching
        return r, copy

    monkeypatch.setattr(certify, "_switched_copy", corrupted)
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


def test_cactus_slice_tiny():
    rep = run_cactus_slice(n_max=5, cap=10, seed=1, check_every=7)
    assert rep.ok
    assert rep.graphs == 383
    assert rep.cross_checks > 0


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
