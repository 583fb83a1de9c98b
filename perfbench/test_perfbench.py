"""Tests for the benchmark's tracer, its independent counts and its manifest.

    python3 -m pytest perfbench -q
"""
from __future__ import annotations

import json
import sys
from collections import Counter
from types import SimpleNamespace

import run
import tracer
import workloads


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self) -> float:
        return self.t


def test_self_time_on_nested_call_tree():
    clock = FakeClock()
    tr = tracer.Tracer(clock)
    ns = SimpleNamespace()

    def leaf():
        clock.t += 3

    def mid():
        clock.t += 1
        ns.leaf()
        clock.t += 2
        ns.leaf()

    def top():
        clock.t += 5
        ns.mid()
        clock.t += 4

    for name, fn in (("leaf", leaf), ("mid", mid), ("top", top)):
        setattr(ns, name, tr.timed(name, fn))
    with tr.span("root"):
        clock.t += 7
        ns.top()

    assert dict(tr.calls) == {"leaf": 2, "mid": 1, "top": 1, "root": 1}
    assert tr.self_s == {"leaf": 6, "mid": 3, "top": 9, "root": 7}
    assert sum(tr.self_s.values()) == clock.t


def test_span_name_chosen_per_call_or_passed_through():
    clock = FakeClock()
    tr = tracer.Tracer(clock)

    def work(mode="numeric"):
        clock.t += 1

    def name(tr, args, kwargs):
        mode = kwargs.get("mode", "numeric")
        return None if mode == "skip" else f"rank.{mode}"

    wrapped = tr.timed(name, work)
    wrapped()
    wrapped(mode="exact")
    wrapped(mode="skip")
    assert dict(tr.calls) == {"rank.numeric": 1, "rank.exact": 1}
    assert getattr(wrapped, tracer.MARKER) is work


def test_enumerator_counts_only_time_inside_next():
    clock = FakeClock()
    tr = tracer.Tracer(clock)

    def items(k):
        for i in range(k):
            clock.t += 2
            yield i
        clock.t += 1  # the exhausting next() is enumerator time too

    enum = tr.timed_iter("enum", items)
    with tr.span("consumer"):
        for _ in enum(3):
            clock.t += 10

    assert tr.calls["enum"] == 1
    assert tr.counts["enum.items"] == 3
    assert tr.self_s["enum"] == 7
    assert tr.self_s["consumer"] == 30


def _bindings(gr_modules) -> dict:
    snap = {}
    for mod in gr_modules:
        for key, value in vars(mod).items():
            snap[(mod.__name__, key)] = value
    return snap


def _gainrank_modules():
    return [m for k, m in sys.modules.items() if k == "gainrank" or k.startswith("gainrank.")]


def test_install_wraps_every_binding_and_uninstall_restores_them(tmp_path):
    import numpy

    gr = workloads.import_gainrank()
    graphs = sys.modules["gainrank.graphs"]
    before = _bindings(_gainrank_modules())
    components = vars(graphs.GainGraph)["components"]
    eigvalsh = numpy.linalg.eigvalsh

    path = tmp_path / "g.txt"
    path.write_text("n 4\ne 0 1 1\ne 1 2 i\ne 2 3 rot(1/8)\ne 0 3 -1\n", encoding="utf-8")

    def work():
        workloads._call_cli(gr, ["analyze", str(path), "--json"])
        gr.certify.run_cactus_slice(n_max=4, cap=5)

    tr = tracer.Tracer()
    installed = tracer.install(tr)
    try:
        theorems = sys.modules["gainrank.theorems"]
        analysis = sys.modules["gainrank.analysis"]
        # an aliased import is wrapped by the same wrapper as its origin
        spectral = sys.modules["gainrank.spectral"]
        assert theorems.spectral_rank is analysis.spectral_rank is spectral.rank
        assert hasattr(theorems.spectral_rank, tracer.MARKER)
        work()
    finally:
        installed.uninstall()

    assert tr.calls["cli.main"] == 1
    assert tr.calls["analysis.analyze"] == 1
    assert tr.calls["certify.run_cactus_slice"] == 1
    assert tr.calls["certify.eigvalsh"] >= 1
    assert tr.counts["generators.enumerate_connected_cacti.items"] > 0
    assert sum(tr.calls[f"spectral.rank.{m}"] for m in ("exact", "numeric", "oracle")) > 0
    traced = (dict(tr.calls), dict(tr.counts))

    after = _bindings(_gainrank_modules())
    assert after.keys() == before.keys()
    assert all(after[k] is v for k, v in before.items())
    assert not [k for k, v in after.items() if hasattr(v, tracer.MARKER)]
    assert vars(graphs.GainGraph)["components"] is components
    assert numpy.linalg.eigvalsh is eigvalsh

    work()  # untraced: the tracer sees nothing more
    assert (dict(tr.calls), dict(tr.counts)) == traced


def test_count_formulas_match_the_known_totals():
    counts = workloads.connected_graph_counts(6)
    per_n = Counter()
    for (n, _), c in counts.items():
        per_n[n] += c
    assert dict(per_n) == {2: 1, 3: 4, 4: 38, 5: 728, 6: 26704}
    assert sum(per_n.values()) == 27_475
    expected = (workloads.CACTUS_GRAPHS, workloads.CACTUS_INSTANCES)
    assert workloads.cactus_expected(7, 50) == expected


def test_count_formulas_match_the_enumerators_on_small_n():
    gr = workloads.import_gainrank()
    seen = Counter((G.n, len(G.edges)) for G in gr.generators.enumerate_connected_graphs(5))
    assert dict(seen) == workloads.connected_graph_counts(5)
    for n in range(2, 7):
        by_cycles = Counter(len(st.cycles) for st in gr.generators.enumerate_connected_cacti(n))
        counts = workloads.disjoint_cycle_graph_counts(n)
        assert {k: v for k, v in counts.items() if v} == dict(by_cycles)


def test_certify_stride_takes_one_eighth_of_each_class():
    wl = workloads.Certify(seed=5)
    assert 3429 <= wl.signed_graphs <= 3439
    assert workloads.Certify(seed=5).signed_instances == wl.signed_instances


def test_analyze_corpus_is_seeded_and_in_range():
    a, b = workloads.analyze_corpus(3), workloads.analyze_corpus(3)
    assert a == b != workloads.analyze_corpus(4)
    assert len(a) == len(workloads.ANALYZE_KINDS) * workloads.ANALYZE_PER_KIND >= 200
    sizes = [int(t.split("\n", 1)[0].split()[1]) for t in a]
    assert min(sizes) >= 16 and max(sizes) <= 160
    assert all(workloads.component_count(t) == 1 for t in a)


def test_manifest_lists_exactly_the_reported_metrics():
    manifest = json.loads((workloads.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in manifest["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in manifest["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in manifest["per_layer"]] == [
        tuple(m) for m in tracer.per_layer_metrics()
    ]
