"""The single-graph analysis report and its serializations."""

import hashlib
import json
import random

import pytest

from gainrank.analysis import analyze, render_text, report_to_dict
from gainrank.graphs import GainGraph


def test_square_report(square):
    rep = analyze(square)
    assert (rep.n, rep.edge_count, rep.component_count) == (4, 4, 1)
    assert (rep.m, rep.c, rep.rank) == (2, 1, 2)
    assert (rep.p_plus, rep.n_zero, rep.n_minus) == (1, 2, 1)
    assert rep.basic.holds_basic
    assert rep.refined is not None and rep.refined.holds_refined
    assert rep.cycles is not None and len(rep.cycles) == 1
    assert rep.cycles[0].kind == "EVEN_SINGULAR"
    assert rep.disjoint_cycles and rep.condition_iii is True
    assert rep.verdict.spectral_lower and rep.verdict.consistent
    assert rep.ok and rep.violations == ()


def test_double_squares_report(double_squares):
    rep = analyze(double_squares)
    assert (rep.m, rep.c, rep.rank) == (3, 2, 6)
    assert rep.refined.b == 0
    assert rep.refined.acyclic_deletion_value == 3
    assert (rep.refined.lower_refined, rep.refined.upper_refined) == (6, 6)
    assert len(rep.cycles) == 2
    assert all(cs.kind == "EVEN_SINGULAR" for cs in rep.cycles)
    assert not rep.disjoint_cycles
    assert rep.condition_iii is None
    assert rep.ok


def test_report_dict_is_json_ready(double_squares):
    doc = report_to_dict(analyze(double_squares))
    text = json.dumps(doc)
    back = json.loads(text)
    assert back["schema_version"] == "1"
    assert back["rank"] == 6
    assert back["basic_bounds"]["holds_basic"] is True
    assert back["refined_bounds"]["lower_refined"] == 6
    assert back["inertia"] == {"p_plus": 3, "n_zero": 2, "n_minus": 3}
    assert back["ok"] is True
    assert len(back["cycles"]) == 2
    assert back["cycles"][0]["type"] == "EVEN_SINGULAR"


def test_render_text_mentions_the_numbers(double_squares):
    out = render_text(analyze(double_squares))
    assert "rank 6" in out
    assert "matching number 3" in out
    assert "cyclomatic number 2" in out
    assert "EVEN_SINGULAR" in out
    assert "consistent: yes" in out


def test_forced_numeric_mode_is_self_consistent(triangle):
    rep = analyze(triangle, mode="numeric", tol=1e-8)
    assert rep.rank == 3
    assert rep.ok


def test_cycle_cap_degrades_gracefully():
    # complete graph on 6 vertices has far more than 2 cycles
    from itertools import combinations

    g = GainGraph.build(6, [(u, v, "1") for u, v in combinations(range(6), 2)])
    rep = analyze(g, max_cycles=2)
    assert rep.cycles is None
    assert rep.rank == 6
    assert rep.basic.holds_basic


def test_disconnected_graph_reports_components():
    # an edge, a path, and an isolated vertex
    g = GainGraph.build(6, [(0, 1, "1"), (2, 3, "i"), (3, 4, "i")])
    rep = analyze(g)
    assert rep.component_count == 3
    assert rep.rank == 4
    assert rep.ok


def _count_calls(monkeypatch, original):
    """Replace original at every gainrank binding; returns the call log."""
    import sys

    log = []

    def counted(*args, **kwargs):
        log.append(kwargs.get("mode", args[1] if len(args) > 1 else "numeric"))
        return original(*args, **kwargs)

    for name, mod in list(sys.modules.items()):
        if name == "gainrank" or name.startswith("gainrank."):
            for key, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, key, counted)
    return log


def test_analyze_takes_one_rank_and_one_component_pass(monkeypatch):
    from gainrank import spectral
    from gainrank.generators import GainSetSpec, assign_gains, random_connected_graph
    from gainrank.theorems import CROSS_CHECK_LIMIT

    G = random_connected_graph(12, 4, seed=7)
    g = assign_gains(G, GainSetSpec("gaussian", seed=8))
    assert g.is_connected() and g.n > CROSS_CHECK_LIMIT
    ranks = _count_calls(monkeypatch, spectral.rank)
    components = []
    original = GainGraph.components

    def counted_components(self):
        components.append(self.n)
        return original(self)

    monkeypatch.setattr(GainGraph, "components", counted_components)
    rep = analyze(g)
    assert rep.ok and rep.rank_backend == "exact"
    assert ranks == ["exact"]
    assert components == [12]


def test_analyze_walks_each_cycle_gain_once(monkeypatch):
    from gainrank.combinatorics import cycle_record

    # K4 with a pendant vertex: 7 cycles, no two disjoint
    g = GainGraph.build(5, [
        (0, 1, "i"), (0, 2, "1"), (0, 3, "-1"), (1, 2, "-1"),
        (1, 3, "1"), (2, 3, "-i"), (3, 4, "1"),
    ])
    walks = _count_calls(monkeypatch, cycle_record)
    rep = analyze(g)
    assert rep.ok and rep.cycles is not None and len(rep.cycles) == 7
    assert len(walks) == 7


def test_analyze_reuses_the_walks_of_disjoint_cycles(monkeypatch):
    from gainrank.combinatorics import cycle_record

    # two squares joined by the edge 3-4: the component facts walk both
    g = GainGraph.build(8, [
        (0, 1, "1"), (1, 2, "i"), (2, 3, "1"), (0, 3, "-1"), (3, 4, "1"),
        (4, 5, "1"), (5, 6, "-1"), (6, 7, "1"), (4, 7, "-1"),
    ])
    walks = _count_calls(monkeypatch, cycle_record)
    rep = analyze(g)
    assert len(walks) == 2
    assert rep.ok and rep.disjoint_cycles
    assert [(cs.vertices, cs.gain, cs.kind) for cs in rep.cycles] == [
        ((0, 1, 2, 3), "-i", "EVEN_REGULAR"),
        ((4, 5, 6, 7), "1", "EVEN_SINGULAR"),
    ]


def test_analyze_eigensolves_each_component_once(monkeypatch):
    import numpy as np

    from gainrank.generators import GainSetSpec, assign_gains, random_connected_graph

    real, sizes = np.linalg.eigvalsh, []

    def counted(a, *args, **kwargs):
        sizes.append(a.shape[-1])
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    floats = assign_gains(random_connected_graph(12, 4, seed=7), GainSetSpec("uniform", seed=8))
    exact = assign_gains(random_connected_graph(12, 4, seed=7), GainSetSpec("gaussian", seed=8))
    float_triangle = (3, [(0, 1, "c(0.6,0.8)"), (1, 2, "1"), (2, 0, "1")])
    float_tree = assign_gains(random_connected_graph(30, 0, seed=9), GainSetSpec("uniform", seed=10))
    # a float path 0-...-5 with pendant paths 2-6-7 and 4-8-9-10
    float_spider = GainGraph.build(11, [
        (0, 1, "c(0.6,0.8)"), (1, 2, "1"), (2, 3, "c(0.28,0.96)"), (3, 4, "-1"), (4, 5, "1"),
        (2, 6, "i"), (6, 7, "c(0.6,-0.8)"), (4, 8, "1"), (8, 9, "1"), (9, 10, "c(-0.8,0.6)"),
    ])
    # float gains on a triangle with a pendant vertex at each corner
    float_corona = GainGraph.build(6, float_triangle[1] + [(0, 3, "1"), (1, 4, "1"), (2, 5, "1")])
    # the rank path eigensolves float gains that keep a core and the n <= 9
    # cross-check; the inertia eigensolves every component's pendant-peeled
    # core once more. Float gains that pendant pairs cover take no eigensolve.
    cases = [
        (floats, [12, 8]),  # float gains: the numeric rank, then an 8-vertex core
        (float_tree, []),
        (float_spider, []),
        (float_corona, []),
        # the tail's pair peels off the float triangle: its rank, then its core
        (_union((5, float_triangle[1] + [(2, 3, "1"), (3, 4, "-1")])), [5, 3]),
        # the tail peels off the cross-checked triangle; the float triangle
        # is ranked, then peeled to itself
        (_union(_TRIANGLE_TAIL, float_triangle), [5, 3, 3, 3]),
        # exact n > 9: two pendant pairs peel off and only the 8-vertex core
        # is eigensolved; the point has no edge, so no cross-check and no core
        (_union((12, [(e.u, e.v, e.gain) for e in exact.edges]), _POINT), [8]),
        (GainGraph.build(12, [(j, j + 1, "i") for j in range(11)]), []),  # P12 peels to nothing
        (GainGraph.build(4, _SQUARE[1]), [4, 4]),  # the cross-check, then the leafless core
    ]
    for g, want in cases:
        sizes.clear()
        assert analyze(g).ok
        assert sorted(sizes) == sorted(want)


def _union(*parts):
    edges, offset = [], 0
    for n, part in parts:
        edges.extend((u + offset, v + offset, t) for u, v, t in part)
        offset += n
    return GainGraph.build(offset, edges)


_SQUARE = (4, [(0, 1, "1"), (1, 2, "1"), (2, 3, "1"), (3, 0, "1")])
_TRIANGLE = (3, [(0, 1, "1"), (1, 2, "i"), (2, 0, "1")])
_SQUARE_PENDANT = (5, _SQUARE[1] + [(0, 4, "1")])  # condition (iii) fails
_TWO_SQUARES = (7, [(0, 1, "1"), (1, 2, "1"), (2, 3, "1"), (3, 0, "1"),
                    (0, 4, "-1"), (4, 5, "1"), (5, 6, "1"), (6, 0, "1")])  # share vertex 0
_TRIANGLE_TAIL = (5, _TRIANGLE[1] + [(2, 3, "1"), (3, 4, "-1")])
_POINT = (1, [])


@pytest.mark.parametrize("parts", [
    (_SQUARE, _TRIANGLE),
    (_SQUARE_PENDANT, _TRIANGLE),
    (_TRIANGLE, _SQUARE_PENDANT, _POINT),
    (_TWO_SQUARES, _SQUARE),
    (_TRIANGLE_TAIL, _SQUARE, _POINT),
    (_TRIANGLE_TAIL, _TWO_SQUARES),
    (_SQUARE_PENDANT, _SQUARE_PENDANT),
])
def test_graph_flags_are_conjunctions_over_components(parts):
    from gainrank.combinatorics import cycle_matching_condition, cycles_pairwise_disjoint

    g = _union(*parts)
    rep = analyze(g)
    subs = [analyze(GainGraph.build(n, part)) for n, part in parts]
    assert rep.component_count == len(parts) and rep.ok
    assert rep.disjoint_cycles == all(s.disjoint_cycles for s in subs)
    assert rep.disjoint_cycles == cycles_pairwise_disjoint(g)[0]
    if rep.disjoint_cycles:
        assert rep.condition_iii == all(s.condition_iii for s in subs)
        assert rep.condition_iii == cycle_matching_condition(g)[0]
    else:
        assert rep.condition_iii is None


@pytest.mark.parametrize("n", [12, 21])
def test_skipped_names_the_size_limit_that_was_hit(n):
    g = GainGraph.build(n, [(v, (v + 1) % n, 1) for v in range(n)])  # one n-cycle
    rep = analyze(g)
    doc = json.loads(json.dumps(report_to_dict(rep)))
    if n > 20:
        assert rep.refined is None and doc["refined_bounds"] is None
        assert doc["skipped"] == {"refined_bounds": "n > TRANSVERSAL_LIMIT (20)"}
    else:
        assert rep.refined is not None and doc["skipped"] == {}
    assert rep.ok


def test_skipped_names_a_refused_exact_rank():
    # q = 2 * 10^10 + 1 turns the exact rank away before any prime is searched
    tri = GainGraph.build(3, [(0, 1, "rot(5000000000/20000000001)"), (1, 2, "1"), (0, 2, "1")])
    rep = analyze(tri)
    assert rep.rank_backend == "numeric"
    assert report_to_dict(rep)["skipped"] == {
        "exact_rank": "more than EXACT_PRIME_BUDGET (1024) primes"
    }
    assert "exact rank refused: more than EXACT_PRIME_BUDGET (1024) primes" in render_text(rep)
    # float gains are not a refusal, and a small q is ranked exactly
    for token in ("c(0.6,0.8)", "rot(1/5)"):
        g = GainGraph.build(3, [(0, 1, token), (1, 2, "1"), (0, 2, "1")])
        assert "exact_rank" not in analyze(g).skipped, token


def test_skipped_names_the_cycle_cap():
    k6 = GainGraph.build(6, [(u, v, 1) for u in range(6) for v in range(u + 1, 6)])
    rep = analyze(k6, max_cycles=10)
    assert rep.cycles is None
    assert report_to_dict(rep)["skipped"] == {"cycles": "more than max_cycles (10) cycles"}


def _corpus():
    """62 graphs shaped like the benchmark's: a spanning tree plus 0-4
    edges, n log-uniform in [16, 160], gaussian, eighth-root and uniform
    gains in turn; every tenth has a second component of half its size."""
    from gainrank.generators import GainSetSpec, assign_gains, random_connected_graph

    rng = random.Random(2029)
    kinds = (("gaussian", None), ("roots", 8), ("uniform", None))
    out = []
    for i in range(60):
        n = round(16 * 10 ** rng.random())
        parts = [n, n // 2] if i % 10 == 9 else [n]
        edges, offset = [], 0
        for size in parts:
            G = random_connected_graph(size, rng.randint(0, 4), rng.randrange(1 << 30))
            spec = GainSetSpec(*kinds[i % 3], seed=rng.randrange(1 << 30))
            edges += [(e.u + offset, e.v + offset, e.gain) for e in assign_gains(G, spec).edges]
            offset += size
        out.append(GainGraph.build(offset, edges))
    return out + [GainGraph.build(1, []), GainGraph.build(3, [(0, 1, "i")])]


# sha256 of the reports on _corpus() as the graph-wide eigensolve and the
# Hadamard certificate alone first produced them
ANALYZE_CORPUS_SHA256 = "cb656f5b2cec97dcbf09cfdbfed6fc1ad468ab122e923be84724e486747427bd"


def test_analyze_reports_on_a_seeded_corpus_are_pinned():
    docs = [report_to_dict(analyze(g)) for g in _corpus()]
    assert all(doc["ok"] for doc in docs)
    text = json.dumps(docs, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == ANALYZE_CORPUS_SHA256
