"""Odd cycle transversals and forest-leaving deletions."""

import hashlib
import random
from itertools import combinations

import pytest
from twins import find_cycle, is_bipartite, matching_number_bruteforce

from gainrank.combinatorics.matching import matching_number
from gainrank.combinatorics.transversal import max_acyclic_deletion_matching, odd_cycle_transversal
from gainrank.errors import SizeLimitError
from gainrank.generators import enumerate_connected_graphs, random_connected_graph
from gainrank.graphs import SimpleGraph


def test_bipartite_detection(double_squares, triangle):
    assert is_bipartite(double_squares)
    assert not is_bipartite(triangle)
    assert is_bipartite(SimpleGraph.build(1, []))


def test_find_cycle(square, triangle):
    cyc = find_cycle(square.underlying())
    assert cyc is not None and len(cyc) == 4
    tree = SimpleGraph.build(4, [(0, 1), (1, 2), (1, 3)])
    assert find_cycle(tree) is None
    assert find_cycle(triangle) is not None


def test_transversal_sizes():
    c5 = SimpleGraph.build(5, [(i, (i + 1) % 5) for i in range(5)])
    b, witness = odd_cycle_transversal(c5)
    assert b == 1 and len(witness) == 1

    two_triangles = SimpleGraph.build(
        6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]
    )
    assert odd_cycle_transversal(two_triangles)[0] == 2

    shared = SimpleGraph.build(5, [(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 0)])
    b, witness = odd_cycle_transversal(shared)
    assert b == 1 and witness == frozenset({0})

    k4 = SimpleGraph.build(4, list(combinations(range(4), 2)))
    assert odd_cycle_transversal(k4)[0] == 2


def test_transversal_bipartite_is_empty(double_squares):
    assert odd_cycle_transversal(double_squares) == (0, frozenset())


def test_transversal_witness_hits_every_odd_cycle():
    G = SimpleGraph.build(6, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5), (5, 2)])
    b, witness = odd_cycle_transversal(G)
    H, _ = G.delete_vertices(witness)
    assert is_bipartite(H)
    assert b == len(witness)


def test_acyclic_deletion_on_double_squares(double_squares):
    adv, witness = max_acyclic_deletion_matching(double_squares)
    assert adv == 3
    H, _ = double_squares.underlying().delete_vertices(witness)
    assert find_cycle(H) is None
    assert matching_number(H) == 3


def test_acyclic_deletion_forest_keeps_everything():
    tree = SimpleGraph.build(4, [(0, 1), (1, 2), (2, 3)])
    adv, witness = max_acyclic_deletion_matching(tree)
    assert witness == frozenset()
    assert adv == 2


def test_acyclic_deletion_square():
    c4 = SimpleGraph.build(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    adv, witness = max_acyclic_deletion_matching(c4)
    # deleting one vertex leaves a path on 3 vertices
    assert adv == 1 and len(witness) == 1


def test_size_limits():
    big = SimpleGraph.build(21, [(i, i + 1) for i in range(20)] + [(20, 0)])
    with pytest.raises(SizeLimitError):
        odd_cycle_transversal(big)
    with pytest.raises(SizeLimitError):
        max_acyclic_deletion_matching(big)


# -- a second route: every vertex subset, no branching, no masks ----------


def _is_forest(H):
    return len(H.edges) == H.n - len(H.component_vertex_sets())


def _is_bipartite_by_parity(H):
    """Two-colouring by the parity of BFS depth, one component at a time."""
    adj = H.neighbors()
    for comp in H.component_vertex_sets():
        depth = {comp[0]: 0}
        layer = [comp[0]]
        while layer:
            nxt = []
            for v in layer:
                for w in adj[v]:
                    if w not in depth:
                        depth[w] = depth[v] + 1
                        nxt.append(w)
            layer = nxt
        if any(depth[u] % 2 == depth[v] % 2 for u, v in H.edges if u in depth):
            return False
    return True


def _subsets(n):
    """All vertex subsets, by size, then lexicographically."""
    for s in range(n + 1):
        yield from combinations(range(n), s)


def _brute_force(G):
    """The transversal with its canonical witness, and the acyclic-deletion
    value: the largest matching number over every forest G - V0."""
    oct_ = next(
        (len(sub), frozenset(sub))
        for sub in _subsets(G.n)
        if _is_bipartite_by_parity(G.delete_vertices(sub)[0])
    )
    forests = (G.delete_vertices(sub)[0] for sub in _subsets(G.n))
    return oct_, max(matching_number_bruteforce(H) for H in forests if _is_forest(H))


def _assert_deletion_witness(G, value, witness):
    """G - witness is a forest and its blossom matching number is value."""
    H, _ = G.delete_vertices(witness)
    assert _is_forest(H), (G, witness)
    assert matching_number(H) == value, (G, witness)


def _seeded_graphs(count, n_max, extra_max, seed0):
    for i in range(count):
        rng = random.Random(seed0 + i)
        n = rng.randint(2, n_max)
        slack = n * (n - 1) // 2 - (n - 1)
        yield random_connected_graph(n, rng.randint(0, min(extra_max, slack)), seed=seed0 + i)


def test_searches_match_brute_force_on_every_connected_graph_up_to_five():
    for G in enumerate_connected_graphs(5):
        oct_, acyclic = _brute_force(G)
        assert odd_cycle_transversal(G) == oct_, G
        value, witness = max_acyclic_deletion_matching(G)
        assert value == acyclic, G
        _assert_deletion_witness(G, value, witness)


def test_searches_match_brute_force_on_seeded_graphs_up_to_nine():
    for G in _seeded_graphs(200, 9, 12, seed0=7_000):
        oct_, acyclic = _brute_force(G)
        assert odd_cycle_transversal(G) == oct_, G
        value, witness = max_acyclic_deletion_matching(G)
        assert value == acyclic, G
        _assert_deletion_witness(G, value, witness)


def test_acyclic_deletion_witness_properties_up_to_twenty():
    for G in _seeded_graphs(100, 20, 30, seed0=9_000):
        value, witness = max_acyclic_deletion_matching(G)
        H, _ = G.delete_vertices(witness)
        assert _is_forest(H)
        assert value == matching_number(H)
        b, cover = odd_cycle_transversal(G)
        assert b == len(cover) and is_bipartite(G.delete_vertices(cover)[0])


@pytest.mark.parametrize("n", [8, 12, 16, 20])
def test_dense_graphs_stay_within_the_limit(n):
    kn = SimpleGraph.build(n, list(combinations(range(n), 2)))
    value, witness = max_acyclic_deletion_matching(kn)
    assert value == 1
    _assert_deletion_witness(kn, value, witness)
    if n <= 16:  # the transversal tries every smaller subset of K_n first
        assert odd_cycle_transversal(kn) == (n - 2, frozenset(range(n - 2)))
    G = random_connected_graph(20, 30, seed=n)
    value, witness = max_acyclic_deletion_matching(G)
    _assert_deletion_witness(G, value, witness)
    b, cover = odd_cycle_transversal(G)
    assert is_bipartite(G.delete_vertices(cover)[0])


# sha256 of "b,adv" per graph, joined by ";", over the 300 seeded graphs
# below; taken from the search that kept the lexicographically smallest
# minimal witness, so the first-maximum search is held to its values
BOUND_VALUES_SHA256 = "c84598a76a85edcbd9ac35c288d9aa079293d39c60d1bbbaecc65c5e3114f148"


def test_refined_bound_values_keep_their_digest_up_to_twenty():
    rows = []
    for G in _seeded_graphs(300, 20, 30, seed0=11_000):
        b, _ = odd_cycle_transversal(G)
        adv, _ = max_acyclic_deletion_matching(G)
        rows.append(f"{b},{adv}")
    assert hashlib.sha256(";".join(rows).encode()).hexdigest() == BOUND_VALUES_SHA256
