"""Maximum matching: blossom implementation against brute force."""

from itertools import combinations

from conftest import simple_graphs
from hypothesis import given, settings
from twins import is_matching, matching_number_bruteforce

from gainrank.combinatorics.matching import matching_number, maximum_matching
from gainrank.graphs import SimpleGraph


@settings(max_examples=150)
@given(simple_graphs())
def test_blossom_matches_bruteforce(G):
    m = maximum_matching(G)
    assert is_matching(G, m)
    assert len(m) == matching_number_bruteforce(G)


def test_known_matching_numbers():
    path4 = SimpleGraph.build(4, [(0, 1), (1, 2), (2, 3)])
    assert matching_number(path4) == 2
    c5 = SimpleGraph.build(5, [(i, (i + 1) % 5) for i in range(5)])
    assert matching_number(c5) == 2
    k4 = SimpleGraph.build(4, list(combinations(range(4), 2)))
    assert matching_number(k4) == 2


def test_petersen_has_perfect_matching():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    G = SimpleGraph.build(10, outer + inner + spokes)
    assert matching_number(G) == 5


def test_odd_blossom_core():
    # triangle with a tail forces an augmenting path through a blossom
    G = SimpleGraph.build(5, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4)])
    assert matching_number(G) == 2
    assert matching_number_bruteforce(G) == 2


def test_is_matching_rejects_shared_vertex():
    G = SimpleGraph.build(3, [(0, 1), (1, 2)])
    assert not is_matching(G, [(0, 1), (1, 2)])
    assert is_matching(G, [(0, 1)])
    assert not is_matching(G, [(0, 2)])
