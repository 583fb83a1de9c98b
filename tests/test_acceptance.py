"""Acceptance run: eleven binding checks, one test and one printed line each.

Budgets are wall-clock seconds and part of the contract, asserted after the
substance of each check. Criteria 4 and 5 share one certification pass over
the two exhaustive families; the fixture runs it once for the module.
"""

import random
import time
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from gainrank.certify import certify_equivalences
from gainrank.combinatorics.blocks import cyclomatic_number
from gainrank.combinatorics.elementary import rank_combinatorial
from gainrank.combinatorics.matching import matching_number, maximum_matching
from gainrank.combinatorics.transversal import max_acyclic_deletion_matching, odd_cycle_transversal
from gainrank.gains import Gain
from gainrank.generators import (
    GainSetSpec,
    assign_gains,
    double_square_pendant,
    make_cycle,
    make_extremal,
    random_connected_graph,
)
from gainrank.graphs import SimpleGraph
from gainrank.spectral import hermitian_adjacency, inertia, rank
from gainrank.theorems import (
    CycleType,
    check_rank_bounds,
    check_refined_bounds,
    classify_cycle,
    cycle_inertia,
    deletion_bounds_check,
    pendant_reduction_check,
    verify_equivalence,
)
from twins import (
    char_coeff_combinatorial,
    char_poly_numeric,
    elementary_spanning_subgraphs,
    find_cycle,
    is_matching,
    matching_number_bruteforce,
    signed_cycle_rule,
    with_trivial_gains,
)

BASE_SEED = 74520011


def stamp(num, label, t0, budget):
    dt = time.perf_counter() - t0
    assert dt < budget, f"criterion {num} took {dt:.1f}s, budget {budget}s"
    print(f"criterion {num:2d} [{label}]: pass ({dt:.2f}s)")


def representative_angle(l, t):
    """Angle of a gain product landing exactly in class t at length l."""
    if l % 2 == 0:
        half = (l // 2) % 2
        if t is CycleType.EVEN_SINGULAR:
            return Fraction(0) if half == 0 else Fraction(1, 2)
        return Fraction(1, 2) if half == 0 else Fraction(0)
    half = ((l - 1) // 2) % 2
    if t is CycleType.ODD_POSITIVE:
        return Fraction(0) if half == 0 else Fraction(1, 2)
    if t is CycleType.ODD_NEGATIVE:
        return Fraction(1, 2) if half == 0 else Fraction(0)
    return Fraction(1, 4) if half == 0 else Fraction(3, 4)


def seeded_instance(i, n_max=12, extra_max=4):
    kinds = ("trivial", "signed", "gaussian", "roots:8", "uniform")
    s = BASE_SEED + i
    rng = random.Random(s)
    n = rng.randint(2, n_max)
    slack = n * (n - 1) // 2 - (n - 1)
    extra = rng.randint(0, min(extra_max, slack))
    G = random_connected_graph(n, extra, seed=s + 1)
    return assign_gains(G, GainSetSpec.parse(kinds[i % 5], seed=s + 2))


@pytest.fixture(scope="module")
def random_family():
    return [seeded_instance(i) for i in range(1000)]


@pytest.fixture(scope="module")
def certification():
    return certify_equivalences(signed_n_max=6, cactus_n_max=8, cap=50, seed=20260821)


def test_criterion_01_cycle_inertia_table():
    t0 = time.perf_counter()
    for l in range(3, 11):
        types = (
            (CycleType.EVEN_SINGULAR, CycleType.EVEN_REGULAR)
            if l % 2 == 0
            else (CycleType.ODD_POSITIVE, CycleType.ODD_NEGATIVE, CycleType.ODD_IMAGINARY)
        )
        for t in types:
            g = make_cycle(l, Gain.from_angle(representative_angle(l, t)))
            assert classify_cycle(g, tuple(range(l))) is t
            res = inertia(hermitian_adjacency(g))
            expected = cycle_inertia(l, t)
            assert (res.p_plus, res.n_minus) == expected
            assert res.p_plus + res.n_minus == res.rank
    stamp(1, "cycle inertia table, l=3..10", t0, 5)


def test_criterion_02_shared_vertex_squares():
    t0 = time.perf_counter()
    G = double_square_pendant()
    assert matching_number(G) == 3
    assert cyclomatic_number(G) == 2
    b, _ = odd_cycle_transversal(G)
    assert b == 0
    adv, witness = max_acyclic_deletion_matching(G)
    assert adv == 3 and len(witness) == 2
    H, _ = G.delete_vertices(witness)
    assert find_cycle(H) is None and matching_number(H) == 3
    for k in range(200):
        g = assign_gains(G, GainSetSpec("uniform", seed=BASE_SEED + k))
        assert rank(g, mode="numeric") == 6
    rep = check_refined_bounds(with_trivial_gains(G))
    assert (rep.lower_refined, rep.upper_refined) == (6, 6)
    stamp(2, "two squares through a vertex, rank pinned at 6", t0, 10)


def test_criterion_03_basic_bounds_random(random_family):
    t0 = time.perf_counter()
    checked_oracle = 0
    for g in random_family:
        rep = check_rank_bounds(g)
        assert rep.holds_basic, f"basic bounds failed on {g!r}"
        if g.n <= 9:
            numeric = rank(g, mode="numeric")
            assert numeric == rank_combinatorial(g)
            checked_oracle += 1
    assert checked_oracle > 300
    stamp(3, "1000 random instances inside [2m-2c, 2m+c]", t0, 120)


def test_criterion_04_lower_equivalence_exhaustive(certification):
    assert certification.ok, certification.failures[:1]
    assert certification.slices["signed-exhaustive"].graphs == 27475
    assert certification.slices["cactus-roots8"].graphs == 2051953
    assert certification.elapsed < 300
    print(
        f"criterion  4 [lower-optimal equivalence, "
        f"{certification.instances} instances]: pass ({certification.elapsed:.2f}s shared)"
    )


def test_criterion_05_upper_equivalence_exhaustive(certification):
    assert certification.ok, certification.failures[:1]
    assert certification.slices["cactus-roots8"].cross_checks > 0
    assert certification.elapsed < 300
    print(
        f"criterion  5 [upper-optimal equivalence, "
        f"{certification.instances} instances]: pass ({certification.elapsed:.2f}s shared)"
    )


def test_criterion_06_refined_bounds(random_family):
    t0 = time.perf_counter()
    checked = 0
    for g in random_family[:250]:
        rep = check_refined_bounds(g)  # raises on containment failure
        assert rep.holds_refined, f"refined bounds failed on {g!r}"
        assert rep.lower_basic <= rep.lower_refined
        assert rep.upper_refined <= rep.upper_basic
        checked += 1
    assert checked == 250
    stamp(6, "refined interval holds and sits inside the basic one", t0, 180)


def test_criterion_07_reduction_lemmas():
    t0 = time.perf_counter()
    for i in range(500):
        s = BASE_SEED + 5000 + i
        rng = random.Random(s)
        n = rng.randint(2, 8)
        slack = n * (n - 1) // 2 - (n - 1)
        G = random_connected_graph(n, rng.randint(0, min(2, slack)), seed=s)
        # graft a fresh pendant so the reduction is always defined
        edges = [(u, v) for u, v in G.edges] + [(rng.randrange(n), n)]
        G2 = SimpleGraph.build(n + 1, edges)
        g = assign_gains(G2, GainSetSpec("gaussian", seed=s + 1))
        assert pendant_reduction_check(g) is True
    for i in range(500):
        g = seeded_instance(9000 + i, n_max=9, extra_max=3)
        v = random.Random(BASE_SEED + i).randrange(g.n)
        assert deletion_bounds_check(g, v)
    stamp(7, "pendant reduction and one-vertex deletion bounds", t0, 60)


def test_criterion_08_combinatorial_coefficients():
    t0 = time.perf_counter()
    det_zero_hits = 0
    for i in range(300):
        g = seeded_instance(20000 + i, n_max=9, extra_max=3)
        h = hermitian_adjacency(g)
        coeffs = char_poly_numeric(h)
        for k in range(1, g.n + 1):
            a_k = char_coeff_combinatorial(g, k)
            assert abs(a_k - coeffs[k - 1]) < 1e-6, (
                f"coefficient {k} off on instance {i}: {a_k} vs {coeffs[k - 1]}"
            )
        if i < 40 and g.n <= 7:
            for size in range(1, g.n + 1):
                for S in combinations(range(g.n), size):
                    if not elementary_spanning_subgraphs(g, S):
                        sub = h[np.ix_(S, S)]
                        assert abs(np.linalg.det(sub)) < 1e-6
                        det_zero_hits += 1
    assert det_zero_hits > 0
    stamp(8, "coefficients by elementary covers, dets vanish without covers", t0, 120)


def test_criterion_09_matching_oracle():
    t0 = time.perf_counter()
    for i in range(500):
        s = BASE_SEED + 31000 + i
        rng = random.Random(s)
        n = rng.randint(2, 10)
        slack = n * (n - 1) // 2 - (n - 1)
        G = random_connected_graph(n, rng.randint(0, min(6, slack)), seed=s)
        m = maximum_matching(G)
        assert is_matching(G, m)
        assert len(m) == matching_number_bruteforce(G)
    stamp(9, "blossom matching equals brute force on 500 graphs", t0, 30)


def test_criterion_10_signed_even_cycles():
    t0 = time.perf_counter()
    for l in (4, 6, 8, 10, 12):
        for sign in (1, -1):
            expected = (l % 4 == 0) == (sign == 1)
            assert signed_cycle_rule(l, sign) is expected
    stamp(10, "signed even cycle rule through l=12", t0, 1)


def test_criterion_11_extremal_constructions():
    t0 = time.perf_counter()
    rng = random.Random(BASE_SEED)
    for i in range(100):
        k = rng.randint(1, 2)
        lengths = [rng.choice((4, 6)) for _ in range(k)]
        g = make_extremal("lower", k, lengths, tree_glue_seed=i)
        v = verify_equivalence(g)
        assert v.spectral_lower and v.structural_lower.holds and v.consistent
    for i in range(100):
        k = rng.randint(1, 3)
        lengths = [rng.choice((3, 5)) for _ in range(k)]
        g = make_extremal("upper", k, lengths, tree_glue_seed=1000 + i)
        v = verify_equivalence(g)
        assert v.spectral_upper and v.structural_upper.holds and v.consistent
    stamp(11, "constructed extremal graphs verify as intended", t0, 60)
