"""Block decomposition, cycle disjointness, contraction."""

import random
from itertools import combinations

import pytest

from gainrank.combinatorics.blocks import (
    block_decomposition,
    contract_cycles,
    cycle_matching_condition,
    cycle_structure,
    cycles_pairwise_disjoint,
    cyclomatic_number,
)
from gainrank.combinatorics.cycles import mask_cycles, neighbour_masks
from gainrank.errors import SizeLimitError
from gainrank.generators import enumerate_connected_graphs, random_connected_graph
from gainrank.graphs import SimpleGraph


def figure_eight():
    # two triangles sharing vertex 0
    return SimpleGraph.build(5, [(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 0)])


def is_cycle_block(blk):
    return len(blk) >= 3 and len(blk) == len({v for e in blk for v in e})


def test_blocks_partition_edges(double_squares):
    G = double_squares.underlying()
    blocks = block_decomposition(G)
    all_edges = [e for blk in blocks for e in blk]
    assert sorted(all_edges) == sorted(G.edges)
    assert [blk[0] for blk in blocks if len(blk) == 1] == [(0, 7)]
    assert sum(map(is_cycle_block, blocks)) == 2
    assert all(len(blk) == 1 or is_cycle_block(blk) for blk in blocks)


def test_k4_block_is_not_a_cycle():
    G = SimpleGraph.build(4, list(combinations(range(4), 2)))
    blocks = block_decomposition(G)
    assert len(blocks) == 1
    assert not is_cycle_block(blocks[0])
    assert cycle_structure(G) == (None, (0, 1, 2, 3))
    assert cyclomatic_number(G) == 3


def test_overlap_witness_joins_the_earliest_cycle_block_met():
    # the square 0-3-5-4 meets the square 1-5-6-7 at 5 and the triangle
    # 2-4-8 at 4, and Tarjan's search closes it last of the three
    G = SimpleGraph.build(
        9, [(0, 3), (0, 4), (1, 5), (1, 7), (2, 4), (2, 8), (3, 5), (4, 5), (4, 8), (5, 6), (6, 7)]
    )
    blocks = block_decomposition(G)
    assert [sorted({v for e in blk for v in e}) for blk in blocks] == [[1, 5, 6, 7], [2, 4, 8], [0, 3, 4, 5]]
    assert cycle_structure(G) == (None, (0, 1, 3, 4, 5, 6, 7))


def test_a_block_that_is_not_a_cycle_wins_over_an_earlier_overlap():
    # a triangle and a square meet at 4, and both close before the K4 on 0..3
    edges = list(combinations(range(4), 2)) + [(3, 4), (4, 5), (5, 6), (4, 6), (4, 7), (7, 8), (8, 9), (4, 9)]
    G = SimpleGraph.build(10, edges)
    assert [len(blk) for blk in block_decomposition(G)] == [3, 4, 1, 6]
    assert cycle_structure(G) == (None, (0, 1, 2, 3))


def test_cycle_structure_agrees_with_the_cycle_enumerator():
    # disjoint cycles number exactly c, so the enumerator stops past c
    rng = random.Random(0)
    graphs = list(enumerate_connected_graphs(6))
    graphs += [random_connected_graph(n, rng.randint(0, 5), seed=i)
               for i, n in enumerate(rng.randint(6, 14) for _ in range(300))]
    disjoint_seen = 0
    for G in graphs:
        cycles, witness = cycle_structure(G)
        adj = neighbour_masks(G)
        try:
            found = mask_cycles(adj, limit=cyclomatic_number(G))
        except SizeLimitError:
            found = None
        disjoint = found is not None and len({v for c in found for v in c}) == sum(map(len, found))
        assert (cycles is not None) == disjoint, G.edges
        assert (witness is None) == disjoint, G.edges
        if disjoint:
            disjoint_seen += 1
            assert sorted(cycles) == sorted(found), G.edges
        else:
            inside = [set(c) for c in mask_cycles(adj) if set(c) <= set(witness)]
            assert any(a & b for a, b in combinations(inside, 2)), G.edges
    assert disjoint_seen > 1000


def test_cyclomatic_counts_components():
    G = SimpleGraph.build(6, [(0, 1), (1, 2), (2, 0), (3, 4)])
    # one triangle, one edge, one isolated vertex: 4 - 6 + 3
    assert cyclomatic_number(G) == 1


def test_shared_vertex_cycles_are_not_disjoint():
    ok, cycles = cycles_pairwise_disjoint(figure_eight())
    assert not ok and cycles is None


def test_two_cycles_through_one_vertex_are_not_disjoint(double_squares):
    # the squares live in separate blocks but meet at the center
    ok, cycles = cycles_pairwise_disjoint(double_squares)
    assert not ok and cycles is None
    with pytest.raises(ValueError):
        contract_cycles(double_squares.underlying())


def test_disjoint_cycles_listed_canonically():
    edges = [(0, 1), (1, 2), (2, 3), (3, 0), (3, 4), (4, 5), (5, 6), (6, 7), (7, 4)]
    G = SimpleGraph.build(8, edges)
    ok, cycles = cycles_pairwise_disjoint(G)
    assert ok
    assert len(cycles) == 2
    assert sorted(tuple(sorted(c)) for c in cycles) == [(0, 1, 2, 3), (4, 5, 6, 7)]


def test_contract_cycles_disjoint_squares():
    # two squares joined by a path, plus a pendant
    edges = [(0, 1), (1, 2), (2, 3), (3, 0), (3, 4), (4, 5), (5, 6), (6, 7), (7, 4), (5, 8)]
    G = SimpleGraph.build(9, edges)
    contracted, new_id, cycle_ids = contract_cycles(G)
    assert contracted.n == 3
    assert len(cycle_ids) == 2
    assert new_id[0] == new_id[1] == new_id[2] == new_id[3]
    assert new_id[4] == new_id[5] == new_id[6] == new_id[7]
    assert contracted.edges == ((0, 1), (1, 2))


def test_contract_requires_disjoint():
    with pytest.raises(ValueError):
        contract_cycles(figure_eight())


def test_cycle_matching_condition_values():
    # square with a single pendant: contraction keeps the pendant edge,
    # deleting the cycle vertices strands it
    G = SimpleGraph.build(5, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4)])
    equal, m_contracted, m_deleted = cycle_matching_condition(G)
    assert (m_contracted, m_deleted) == (1, 0)
    assert not equal
    # hang one more vertex and both sides can match the tail edge
    G2 = SimpleGraph.build(6, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4), (4, 5)])
    equal2, mc2, md2 = cycle_matching_condition(G2)
    assert equal2 and mc2 == md2 == 1
    with pytest.raises(ValueError):
        cycle_matching_condition(figure_eight())
