"""Random and exhaustive graph generation."""

import hashlib
import random
import tracemalloc
from itertools import combinations, groupby
from operator import attrgetter

import numpy as np

import pytest
from hypothesis import given, settings, strategies as st

from gainrank import generators
from gainrank.combinatorics.blocks import cycles_pairwise_disjoint, cyclomatic_number
from gainrank.combinatorics.cycles import cycle_record
from gainrank.errors import SizeLimitError
from gainrank.gains import Gain
from gainrank.generators import (
    GainSetSpec,
    assign_gains,
    double_square_pendant,
    enumerate_connected_cacti,
    enumerate_connected_graphs,
    make_cycle,
    make_extremal,
    random_connected_graph,
    random_tree,
)
from gainrank.graphs import SimpleGraph, serialize_gain_graph
from gainrank.theorems import verify_equivalence


def test_gain_set_values():
    assert len(GainSetSpec("trivial").values()) == 1
    assert len(GainSetSpec("signed").values()) == 2
    assert len(GainSetSpec("gaussian").values()) == 4
    assert len(GainSetSpec("roots", q=8).values()) == 8
    assert GainSetSpec("uniform").values() is None


def test_gain_set_order_names_the_root_group():
    orders = [GainSetSpec.parse(k).order for k in ("trivial", "signed", "gaussian", "roots:7")]
    assert orders == [1, 2, 4, 7]
    assert GainSetSpec("uniform").order is None
    assert [(g.k, g.q) for g in GainSetSpec("gaussian").values()] == [(0, 1), (1, 4), (1, 2), (3, 4)]


def test_gain_draws_are_pinned():
    # serialized instances as first drawn from an alphabet tuple, for every kind
    texts = (
        serialize_gain_graph(
            assign_gains(random_connected_graph(4 + seed % 7, 3, seed), GainSetSpec.parse(kind, seed))
        )
        for kind in ("trivial", "signed", "gaussian", "roots:12", "uniform")
        for seed in range(20)
    )
    assert _digest(texts) == "81933064cc6149a2d74630d641ccc3ae35ecd4e260a7748004ebf98de8f92ad6"


def test_gain_set_parse():
    assert GainSetSpec.parse("signed").kind == "signed"
    spec = GainSetSpec.parse("roots:12", seed=7)
    assert (spec.kind, spec.q, spec.seed) == ("roots", 12, 7)
    with pytest.raises(ValueError):
        GainSetSpec.parse("octonion")
    with pytest.raises(ValueError):
        GainSetSpec("roots")
    with pytest.raises(ValueError):
        GainSetSpec("signed", q=3)


def test_uniform_samples_stay_off_the_imaginary_axis():
    spec = GainSetSpec("uniform", seed=3)
    rng = random.Random(3)
    for _ in range(200):
        g = spec.sample(rng)
        assert abs(abs(g.value) - 1.0) < 1e-9
        assert abs(g.value.real) >= 1e-6


@given(st.integers(min_value=1, max_value=10), st.integers(min_value=0, max_value=3), st.integers(min_value=0, max_value=2**31))
def test_random_connected_graph_shape(n, extra, seed):
    slack = n * (n - 1) // 2 - (n - 1)
    if extra > slack:
        with pytest.raises(ValueError):
            random_connected_graph(n, extra, seed)
        return
    G = random_connected_graph(n, extra, seed)
    assert G.n == n
    assert len(G.edges) == n - 1 + extra
    assert G.is_connected()
    # same seed, same graph
    assert random_connected_graph(n, extra, seed).edges == G.edges


def test_assign_gains_deterministic():
    G = random_connected_graph(6, 2, seed=5)
    a = assign_gains(G, GainSetSpec("gaussian", seed=11))
    b = assign_gains(G, GainSetSpec("gaussian", seed=11))
    assert a == b
    assert a.underlying().edges == G.edges


def test_make_cycle_hits_target():
    for token in ("1", "-1", "i", "rot(1/8)"):
        g = make_cycle(5, token)
        rec = cycle_record(g, tuple(range(5)))
        assert rec.gain.approx_eq(Gain.parse_token(token))
    with pytest.raises(ValueError):
        make_cycle(2, "1")


@pytest.mark.parametrize(
    "kind,lengths",
    [
        ("lower", [4]),
        ("lower", [4, 6]),
        ("upper", [3]),
        ("upper", [3, 5, 7]),
    ],
)
def test_make_extremal_shapes(kind, lengths):
    g = make_extremal(kind, len(lengths), lengths, tree_glue_seed=1)
    assert cyclomatic_number(g) == len(lengths)
    ok, cycles = cycles_pairwise_disjoint(g)
    assert ok and len(cycles) == len(lengths)
    assert sorted(len(c) for c in cycles) == sorted(lengths)
    v = verify_equivalence(g)
    assert v.consistent
    if kind == "lower":
        assert v.spectral_lower and v.structural_lower.holds
    else:
        assert v.spectral_upper and v.structural_upper.holds


def test_make_extremal_validation():
    with pytest.raises(ValueError):
        make_extremal("sideways", 1, [4])
    with pytest.raises(ValueError):
        make_extremal("lower", 2, [4])
    with pytest.raises(ValueError):
        make_extremal("lower", 1, [5])
    with pytest.raises(ValueError):
        make_extremal("upper", 1, [4])
    with pytest.raises(ValueError):
        make_extremal("upper", 1, [2])


def test_enumerate_connected_counts():
    # connected labeled graphs: 1 on 2 vertices, 4 on 3, 38 on 4
    by_n = {}
    for G in enumerate_connected_graphs(4):
        by_n.setdefault(G.n, []).append(G)
    assert len(by_n[2]) == 1
    assert len(by_n[3]) == 4
    assert len(by_n[4]) == 38
    for graphs in by_n.values():
        assert all(G.is_connected() for G in graphs)
        assert len(set(g.edges for g in graphs)) == len(graphs)


def test_enumerate_limit():
    with pytest.raises(SizeLimitError):
        next(enumerate_connected_graphs(9))
    with pytest.raises(SizeLimitError):
        next(enumerate_connected_cacti(9))


def cactus_reference_set(n):
    """Filter the full enumeration down to pairwise disjoint cycles."""
    return {
        G.edges
        for G in enumerate_connected_graphs(n)
        if G.n == n and cycles_pairwise_disjoint(G)[0]
    }


@pytest.mark.parametrize("n,expected", [(2, 1), (3, 4), (4, 31), (5, 347), (6, 5046)])
def test_cactus_counts_match_filter(n, expected):
    got = list(enumerate_connected_cacti(n))
    assert len(got) == expected
    assert len(set(c.edges for c in got)) == expected
    assert set(c.edges for c in got) == cactus_reference_set(n)
    for c in got:
        G = SimpleGraph.build(c.n, c.edges)
        assert G.is_connected()
        ok, cycles = cycles_pairwise_disjoint(G)
        assert ok
        assert sorted(map(len, cycles)) == sorted(map(len, c.cycles))


@pytest.mark.parametrize("n", range(2, 8))
def test_every_cactus_mask_decodes_to_its_edges(n):
    em = generators._EdgeMasks(n)
    for st in enumerate_connected_cacti(n):
        assert em.edges(st.mask) == st.edges


def test_cactus_enumeration_deterministic():
    a = [c.edges for c in enumerate_connected_cacti(5)]
    b = [c.edges for c in enumerate_connected_cacti(5)]
    assert a == b


def test_double_square_pendant_shape():
    G = double_square_pendant()
    assert (G.n, len(G.edges)) == (8, 9)
    degs = G.degrees()
    assert degs[0] == 5 and degs[7] == 1
    assert cyclomatic_number(G) == 2


def _digest(items):
    h = hashlib.sha256()
    for item in items:
        h.update(repr(item).encode())
    return h.hexdigest()


# sha256 of the ordered (n, edges, cycles) stream, as the constructive
# enumerator first produced it; the order pairs the cactus engine's gain
# draws with its graphs
CACTUS_STREAM_SHA256 = {
    2: "1d8de336731c5e3f532fa5b6c6a55e73d93903011a7fd02456cf30e2c48179b6",
    3: "ef88318ba1c2f569481bf0f821892801a12463e0ec36d2d447ad04c0476410b4",
    4: "e4f8901f07e85d6e5047cc6e001731a1ea20f0590bcd59e4a745c67441e6622d",
    5: "c3bb12899def171b85cb050d6f1dd8215988e8852c6b32e75bf4b50ebc250253",
    6: "d45f8e118053fc8113331daeb23ddfee9d3caa467d3eb1af89596eba2a44a1c5",
    7: "ee7c6d0fbc2b4aab97ecdd474700e236b2604f712a8b2ace2afd465d9c4da7e8",
}
# the same for the ordered (n, edges) stream of enumerate_connected_graphs(6)
GRAPH_STREAM_SHA256 = "eb0384b93bf1a567e2b8c7223b0c9e4769247bc64522051ce699b00f788e92e5"


@pytest.mark.parametrize("n", sorted(CACTUS_STREAM_SHA256))
def test_cactus_stream_is_pinned(n):
    stream = ((st.n, st.edges, st.cycles) for st in enumerate_connected_cacti(n))
    assert _digest(stream) == CACTUS_STREAM_SHA256[n]


def test_cactus_stream_does_not_depend_on_the_tree_block(monkeypatch):
    monkeypatch.setattr(generators, "_TREE_BLOCK", 1000)  # 17 blocks of trees at n = 7
    for n in (6, 7):
        stream = ((st.n, st.edges, st.cycles) for st in enumerate_connected_cacti(n))
        assert _digest(stream) == CACTUS_STREAM_SHA256[n]


# sha256 of the n = 8 edge masks, a run per cycles tuple, as the trees decoded
# all at once first produced them
CACTUS_N8_MASKS_SHA256 = "13d2c07e7fe79f600c9d11d56b4cbe17cdd9cd91376bc706d4b75bdc32183fc7"


def test_cactus_masks_at_n8_are_pinned_and_trees_decode_in_blocks():
    h = hashlib.sha256()
    for cycles, run in groupby(enumerate_connected_cacti(8), key=attrgetter("cycles")):
        masks = np.fromiter(map(attrgetter("mask"), run), np.int64)
        h.update(repr((cycles, len(masks))).encode())
        h.update(masks.tobytes())
    assert h.hexdigest() == CACTUS_N8_MASKS_SHA256
    # one block of the 8^6 trees: 52 MB decoded at once, about 6.5 MB per block
    tracemalloc.start()
    try:
        masks, cycles = next(generators._families(generators._pair_bits(8)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (len(masks), cycles) == (generators._TREE_BLOCK, ())
    assert peak < 16e6


def test_connected_graph_stream_is_pinned():
    assert _digest((G.n, G.edges) for G in enumerate_connected_graphs(6)) == GRAPH_STREAM_SHA256


def test_connected_graph_stream_does_not_depend_on_the_mask_block(monkeypatch):
    monkeypatch.setattr(generators, "_MASK_BLOCK", 32)
    assert _digest((G.n, G.edges) for G in enumerate_connected_graphs(6)) == GRAPH_STREAM_SHA256


def test_random_trees_and_graphs_are_pinned():
    # edge sets as first drawn, so verify's instances stay the same
    rng = random.Random(1)
    trees = (sorted(tuple(sorted(e)) for e in random_tree(n, rng)) for n in list(range(1, 30)) * 20)
    assert _digest(trees) == "985bd978e937a9345d9140e2cfc110ee5cac944e675639252a079bc752bac6a6"
    graphs = (
        random_connected_graph(n, extra, seed).edges
        for n in range(1, 13)
        for extra in range(4)
        for seed in range(10)
        if extra <= n * (n - 1) // 2 - (n - 1)
    )
    assert _digest(graphs) == "16bfd0828dedbeea661173b25d61bb048c31f410ac4751c97d7fcff4b10bdf66"
