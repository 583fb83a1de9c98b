"""Cycle enumeration and per-cycle gain records."""

import random
from itertools import combinations

import pytest
from hypothesis import given, strategies as st

from gainrank.combinatorics import matching_number
from gainrank.combinatorics.cycles import (
    canonical_cycle,
    cover_walk,
    cycle_record,
    enumerate_cycles,
    neighbour_masks,
)
from gainrank.errors import SizeLimitError
from gainrank.gains import Gain
from gainrank.generators import enumerate_connected_cacti, random_connected_graph
from gainrank.graphs import GainGraph, SimpleGraph


@given(st.permutations(range(6)))
def test_canonical_form_absorbs_rotation_and_reflection(perm):
    verts = tuple(perm)
    base = canonical_cycle(verts)
    for shift in range(6):
        rotated = verts[shift:] + verts[:shift]
        assert canonical_cycle(rotated) == base
        assert canonical_cycle(tuple(reversed(rotated))) == base
    assert base[0] == min(verts)
    assert base[1] < base[-1]


def complete_graph(n):
    return SimpleGraph.build(n, list(combinations(range(n), 2)))


def test_cycle_counts():
    c5 = SimpleGraph.build(5, [(i, (i + 1) % 5) for i in range(5)])
    assert len(enumerate_cycles(c5)) == 1
    assert len(enumerate_cycles(complete_graph(4))) == 7
    assert len(enumerate_cycles(complete_graph(5))) == 37
    eight = SimpleGraph.build(5, [(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 0)])
    assert len(enumerate_cycles(eight)) == 2


def test_cycles_come_out_canonical():
    for cyc in enumerate_cycles(complete_graph(5)):
        assert cyc == canonical_cycle(cyc)
    assert len(set(enumerate_cycles(complete_graph(5)))) == 37


def test_enumeration_limit():
    with pytest.raises(SizeLimitError):
        enumerate_cycles(complete_graph(8), limit=100)


def test_cycle_gain_product():
    g = GainGraph.build(4, [(0, 1, "i"), (1, 2, "i"), (2, 3, "i"), (3, 0, "i")])
    rec = cycle_record(g, (0, 1, 2, 3))
    assert rec.length == 4
    assert rec.gain.approx_eq(Gain.one())
    # reversed traversal conjugates every factor, same canonical record
    assert cycle_record(g, (0, 3, 2, 1)).gain.angle == rec.gain.angle


def test_cycle_gain_orientation():
    g = GainGraph.build(3, [(0, 1, "i"), (1, 2, "1"), (2, 0, "1")])
    rec = cycle_record(g, (0, 1, 2))
    # canonical direction is 0 -> 1 -> 2, so the product is i
    assert rec.gain.approx_eq(Gain.parse_token("i"))
    assert abs(rec.real_part) < 1e-12
    assert rec.vertex_set == frozenset({0, 1, 2})


def test_cycle_record_validation(triangle):
    with pytest.raises(ValueError):
        cycle_record(triangle, (0, 1))
    with pytest.raises(ValueError):
        cycle_record(triangle, (0, 1, 1))
    g = GainGraph.build(4, [(0, 1, "1"), (1, 2, "1"), (2, 3, "1")])
    with pytest.raises(ValueError):
        cycle_record(g, (0, 1, 2, 3))


def test_cover_walk_on_trees_picks_a_maximum_matching():
    # every labeled tree with n <= 7: the acyclic family of the cactus enumeration
    trees = 0
    for n in range(2, 8):
        for cactus in enumerate_connected_cacti(n):
            if cactus.cycles:
                continue
            G = SimpleGraph(n, cactus.edges)
            picks = list(cover_walk(neighbour_masks(G), (1 << n) - 1))
            assert all(leaf is not None for leaf, _ in picks)
            assert len({v for pick in picks for v in pick}) == 2 * len(picks)  # a matching
            assert len(picks) == matching_number(G)
            trees += 1
    assert trees == sum(n ** (n - 2) for n in range(2, 8))


def test_cover_walk_picks_cover_every_edge():
    rng = random.Random(31)
    for seed in range(150):
        n = rng.randint(1, 30)
        G = random_connected_graph(n, min(rng.randint(0, 12), (n - 1) * (n - 2) // 2), seed)
        adj = neighbour_masks(G)
        # the whole graph, then a random induced subgraph
        for alive in ((1 << n) - 1, rng.getrandbits(n)):
            cover = 0
            for _, u in cover_walk(adj, alive):
                cover |= 1 << u
            assert not cover & ~alive
            for u, v in G.edges:
                if alive >> u & alive >> v & 1:
                    assert (cover >> u | cover >> v) & 1, (seed, alive, u, v)
