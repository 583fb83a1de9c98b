"""Graph containers: construction, deletion, serialization."""

import random
from fractions import Fraction

import pytest
from conftest import small_gain_graphs
from hypothesis import given
from twins import with_trivial_gains

from gainrank.combinatorics import (
    cycle_matching_condition,
    cycle_structure,
    cyclomatic_number,
    enumerate_cycles,
    matching_number,
    max_acyclic_deletion_matching,
    odd_cycle_transversal,
)
from gainrank.combinatorics.cycles import neighbour_masks
from gainrank.errors import ParseError
from gainrank.gains import Gain
from gainrank.graphs import (
    GainGraph,
    SimpleGraph,
    parse_gain_graph,
    pendant_vertices,
    serialize_gain_graph,
)
from gainrank.spectral import pendant_peel, vertex_cover


def test_build_rejects_bad_edges():
    with pytest.raises(ValueError):
        SimpleGraph.build(3, [(0, 3)])
    with pytest.raises(ValueError):
        SimpleGraph.build(3, [(1, 1)])
    with pytest.raises(ValueError):
        SimpleGraph.build(3, [(0, 1), (1, 0)])
    with pytest.raises(ValueError):
        GainGraph.build(2, [(0, 1, "1"), (1, 0, "i")])


def test_build_canonicalizes_orientation():
    g = GainGraph.build(2, [(1, 0, "i")])
    e = g.edges[0]
    assert (e.u, e.v) == (0, 1)
    # stored low -> high, so the supplied gain is conjugated
    assert e.gain.approx_eq(Gain.parse_token("-i"))
    assert g.gain(1, 0).approx_eq(Gain.parse_token("i"))
    assert g.gain(0, 1).approx_eq(Gain.parse_token("-i"))


def test_gain_lookup_missing_edge():
    g = GainGraph.build(3, [(0, 1, "1")])
    with pytest.raises(KeyError):
        g.gain(0, 2)


@given(small_gain_graphs())
def test_serialize_parse_round_trip(g):
    back = parse_gain_graph(serialize_gain_graph(g))
    assert back.n == g.n
    assert len(back.edges) == len(g.edges)
    for e, f in zip(back.edges, g.edges):
        assert (e.u, e.v) == (f.u, f.v)
        assert e.gain.angle == f.gain.angle


def test_parse_rejects_garbage():
    for text in ("", "e 0 1 1", "n 2\ne 0 1", "n 2\ne 0 2 1", "n x", "n 2\nz 0 1 1"):
        with pytest.raises(ParseError):
            parse_gain_graph(text)


def test_delete_vertices_reindexes(double_squares):
    sub, kept = double_squares.delete_vertices((1, 4))
    assert sub.n == 6
    assert kept == (0, 2, 3, 5, 6, 7)
    # surviving edges keep their gains under the new labels
    for e in sub.edges:
        old_u, old_v = kept[e.u], kept[e.v]
        assert double_squares.gain(old_u, old_v).approx_eq(e.gain)


def test_delete_out_of_range(triangle):
    with pytest.raises(ValueError):
        triangle.delete_vertices((5,))


def test_components_partition():
    g = GainGraph.build(5, [(0, 1, "1"), (3, 4, "i")])
    comps = g.components()
    assert sorted(kept for _, kept in comps) == [(0, 1), (2,), (3, 4)]
    sizes = sorted(sub.n for sub, _ in comps)
    assert sizes == [1, 2, 2]
    assert not g.is_connected()
    # against each component cut out by deleting its complement: same order,
    # kept maps, edges and gains
    graphs = [_sparse_gain_graph(seed) for seed in range(20)]
    graphs += [GainGraph.build(0, []), GainGraph.build(6, []), GainGraph.build(2_000, [])]
    for g in graphs:
        assert g.components() == _components_by_deletion(g)


def _sparse_gain_graph(seed):
    """Seeded gain graph with several components and isolated vertices."""
    rng = random.Random(seed)
    n = rng.randint(1, 40)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 1.5 / n]
    return GainGraph.build(n, [(u, v, Gain.from_angle(Fraction(rng.randrange(8), 8))) for u, v in pairs])


def _components_by_deletion(g):
    out = []
    for comp in g.underlying().component_vertex_sets():
        keep = set(comp)
        out.append(g.delete_vertices(v for v in range(g.n) if v not in keep))
    return out


def test_pendant_and_quasi_pendant(double_squares):
    assert pendant_vertices(double_squares) == frozenset({7})
    path = SimpleGraph.build(3, [(0, 1), (1, 2)])
    assert pendant_vertices(path) == frozenset({0, 2})


def test_with_trivial_gains():
    G = SimpleGraph.build(3, [(0, 1), (1, 2)])
    g = with_trivial_gains(G)
    assert g.underlying().edges == G.edges
    assert all(e.gain.approx_eq(Gain.one()) for e in g.edges)


@given(small_gain_graphs())
def test_underlying_preserves_shape(g):
    G = g.underlying()
    assert G.n == g.n
    assert len(G.edges) == len(g.edges)
    assert G.degrees() == g.degrees()
    # one view per gain graph, and every structural question answers alike on both
    assert g.underlying() is G and G.underlying() is G
    for f in (
        neighbour_masks, enumerate_cycles, cycle_structure, cyclomatic_number,
        odd_cycle_transversal, max_acyclic_deletion_matching, matching_number,
    ):
        assert f(g) == f(G), f.__name__
    cycles, _ = cycle_structure(g)
    if cycles is not None:
        assert cycle_matching_condition(g) == cycle_matching_condition(G)


def test_one_underlying_graph_per_gain_graph(monkeypatch):
    # a square with a two-edge tail: the peel takes the tail and eigensolves the square
    g = GainGraph.build(6, [(0, 1, "1"), (1, 2, "i"), (2, 3, "-1"), (0, 3, "1"), (0, 4, "1"), (4, 5, "1")])
    built = []
    init = SimpleGraph.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(SimpleGraph, "__init__", counting_init)
    g.degrees()
    neighbour_masks(g)
    vertex_cover(g)
    pendant_peel(g)
    enumerate_cycles(g)
    assert len(built) == 1
