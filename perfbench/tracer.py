"""Per-layer tracing of gainrank from outside the package.

The tracer replaces a public function at every module attribute that refers
to it, so a call is recorded whichever module looks the name up (including
aliases such as ``theorems.spectral_rank``), and puts every original back on
``uninstall``. Nothing under ``src/`` is edited.

Spans nest: a span's self time is its duration minus the durations of the
spans it directly contains. Enumerators are generator functions; for them
only the time spent inside ``next()`` is a span, and each yielded item is
counted, so the consumer's loop body is charged to the consumer.
"""
from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable

MARKER = "__perfbench_original__"


class Tracer:
    """Span stack with per-name call counts, self times and extra counters."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self._stack: list[list] = []  # [name, start, time covered by children]
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)

    @property
    def current(self) -> str | None:
        """Name of the innermost open span."""
        return self._stack[-1][0] if self._stack else None

    @property
    def parent(self) -> str | None:
        """Name of the span enclosing the innermost one."""
        return self._stack[-2][0] if len(self._stack) > 1 else None

    def enter(self, name: str) -> None:
        self._stack.append([name, self.clock(), 0.0])

    def exit(self, calls: int = 1) -> None:
        name, start, covered = self._stack.pop()
        dur = self.clock() - start
        self.calls[name] += calls
        self.self_s[name] += dur - covered
        if self._stack:
            self._stack[-1][2] += dur

    @contextmanager
    def span(self, name: str):
        self.enter(name)
        try:
            yield
        finally:
            self.exit()

    def timed(self, name, fn: Callable, count: Callable | None = None) -> Callable:
        """fn wrapped in a span. name is a string, or a callable of
        (tracer, args, kwargs) returning the span name, or None to pass the
        call through untraced. count(tracer, args, kwargs, result) may add
        counters; it runs inside the span."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name(self, args, kwargs) if callable(name) else name
            if label is None:
                return fn(*args, **kwargs)
            self.enter(label)
            try:
                result = fn(*args, **kwargs)
                if count is not None:
                    count(self, args, kwargs, result)
                return result
            finally:
                self.exit()

        setattr(wrapper, MARKER, fn)
        return wrapper

    def timed_iter(self, name: str, fn: Callable) -> Callable:
        """Generator function wrapped so that only next() is timed. calls
        counts invocations, counts[name + '.items'] counts yielded items."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.calls[name] += 1
            return _TimedIterator(self, name, fn(*args, **kwargs))

        setattr(wrapper, MARKER, fn)
        return wrapper


class _TimedIterator:
    def __init__(self, tracer: Tracer, name: str, it):
        self._tracer = tracer
        self._name = name
        self._it = it

    def __iter__(self):
        return self

    def __next__(self):
        tr = self._tracer
        tr.enter(self._name)
        try:
            item = next(self._it)
        finally:
            tr.exit(calls=0)
        tr.counts[self._name + ".items"] += 1
        return item


# -- what gets traced ----------------------------------------------------------


def _rank_mode(tr, args, kwargs):
    mode = kwargs.get("mode", args[1] if len(args) > 1 else "numeric")
    return f"spectral.rank.{mode}"


def _inertia_outside_rank(tr, args, kwargs, result):
    # numeric rank calls inertia itself; only direct calls are extra passes
    if not (tr.parent or "").startswith("spectral.rank."):
        tr.counts["spectral.inertia.direct"] += 1


def _eigvalsh_in_certify(tr, args, kwargs):
    return "certify.eigvalsh" if (tr.current or "").startswith("certify.") else None


def _eigvalsh_matrices(tr, args, kwargs, result):
    a = args[0]
    tr.counts["certify.eigvalsh.matrices"] += a.shape[0] if a.ndim == 3 else 1


def _slice_counts(tr, args, kwargs, rep):
    tr.counts["certify.graphs"] += rep.graphs
    tr.counts["certify.instances"] += rep.instances
    tr.counts["certify.cross_checks"] += rep.cross_checks


def _report_counts(tr, args, kwargs, rep):
    tr.counts["analysis.refined_skipped"] += rep.refined is None
    tr.counts["analysis.cycles_capped"] += rep.cycles is None


@dataclass(frozen=True)
class Target:
    """One traced function: where to find it and how to name its spans.

    owner is a module path; attr may be 'Class.method'. Module functions are
    replaced at every binding in the scanned modules; methods on the class.
    """

    layer: str
    owner: str
    attr: str
    iterator: bool = False
    span: Callable | None = None  # per-call span name, see Tracer.timed
    count: Callable | None = None
    names: tuple[str, ...] = ()  # span names, when not layer.attr
    extra: tuple[str, ...] = ()  # counters this target adds

    @property
    def span_names(self) -> tuple[str, ...]:
        return self.names or (f"{self.layer}.{self.attr}",)


TARGETS: tuple[Target, ...] = (
    Target("generators", "gainrank.generators", "enumerate_connected_graphs", iterator=True,
           extra=("generators.enumerate_connected_graphs.items",)),
    Target("generators", "gainrank.generators", "enumerate_connected_cacti", iterator=True,
           extra=("generators.enumerate_connected_cacti.items",)),
    Target("generators", "gainrank.generators", "random_connected_graph"),
    Target("generators", "gainrank.generators", "assign_gains"),
    Target("graphs", "gainrank.graphs", "parse_gain_graph"),
    Target("graphs", "gainrank.graphs", "GainGraph.components"),
    Target("spectral", "gainrank.spectral", "inertia", count=_inertia_outside_rank,
           extra=("spectral.inertia.direct",)),
    Target("spectral", "gainrank.spectral", "rank", span=_rank_mode,
           names=("spectral.rank.exact", "spectral.rank.numeric", "spectral.rank.oracle")),
    Target("combinatorics", "gainrank.combinatorics", "matching_number"),
    Target("combinatorics", "gainrank.combinatorics", "enumerate_cycles"),
    Target("combinatorics", "gainrank.combinatorics", "cycle_records"),
    Target("combinatorics", "gainrank.combinatorics", "block_decomposition"),
    Target("combinatorics", "gainrank.combinatorics", "cycles_pairwise_disjoint"),
    Target("combinatorics", "gainrank.combinatorics", "cycle_matching_condition"),
    Target("combinatorics", "gainrank.combinatorics", "odd_cycle_transversal"),
    Target("combinatorics", "gainrank.combinatorics", "max_acyclic_deletion_matching"),
    Target("combinatorics", "gainrank.combinatorics", "rank_combinatorial"),
    Target("theorems", "gainrank.theorems", "graph_rank"),
    Target("theorems", "gainrank.theorems", "check_rank_bounds"),
    Target("theorems", "gainrank.theorems", "check_refined_bounds"),
    Target("theorems", "gainrank.theorems", "verify_equivalence"),
    Target("theorems", "gainrank.theorems", "classify_cycle"),
    Target("theorems", "gainrank.theorems", "pendant_reduction_check"),
    Target("theorems", "gainrank.theorems", "deletion_bounds_check"),
    Target("certify", "gainrank.certify", "run_alphabet_slice", count=_slice_counts,
           extra=("certify.graphs", "certify.instances", "certify.cross_checks")),
    Target("certify", "gainrank.certify", "run_cactus_slice", count=_slice_counts),
    Target("certify", "numpy.linalg", "eigvalsh", span=_eigvalsh_in_certify,
           count=_eigvalsh_matrices, names=("certify.eigvalsh",),
           extra=("certify.eigvalsh.matrices",)),
    Target("analysis", "gainrank.analysis", "analyze", count=_report_counts,
           extra=("analysis.refined_skipped", "analysis.cycles_capped")),
    Target("analysis", "gainrank.analysis", "report_to_dict"),
    Target("cli", "gainrank.cli", "main"),
)

# derived per-layer figures, computed by the benchmark from the ones above
DERIVED = (
    ("theorems.rank_passes_per_component", "ratio", "lower"),
    ("bench.self_s", "s", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
)

_HIGHER = {"certify.graphs", "certify.instances", "certify.cross_checks"}


def per_layer_metrics() -> list[tuple[str, str, str]]:
    """(name, unit, better) for every metric a traced run reports."""
    out = []
    for t in TARGETS:
        for name in t.span_names:
            out.append((name + ".calls", "count", "lower"))
            out.append((name + ".self_s", "s", "lower"))
        for name in t.extra:
            out.append((name, "count", "higher" if name in _HIGHER else "lower"))
    out.extend(DERIVED)
    return out


def _scanned_modules(owner: str) -> list:
    if owner.startswith("gainrank"):
        return [m for k, m in list(sys.modules.items())
                if m is not None and (k == "gainrank" or k.startswith("gainrank."))]
    return [sys.modules[owner]]


def _resolve(owner: str, attr: str):
    obj = sys.modules[owner]
    parts = attr.split(".")
    for p in parts[:-1]:
        obj = getattr(obj, p)
    return obj, parts[-1]


class Installation:
    """Every patched binding, so that uninstall puts each original back."""

    def __init__(self):
        self.patched: list[tuple[object, str, object]] = []

    def uninstall(self) -> None:
        while self.patched:
            holder, name, original = self.patched.pop()
            setattr(holder, name, original)


def install(tracer: Tracer, targets: tuple[Target, ...] = TARGETS) -> Installation:
    """Wrap every target at every binding; the modules must be imported."""
    inst = Installation()
    try:
        for t in targets:
            holder, name = _resolve(t.owner, t.attr)
            original = vars(holder)[name] if isinstance(holder, type) else getattr(holder, name)
            if t.iterator:
                wrapper = tracer.timed_iter(t.span_names[0], original)
            else:
                wrapper = tracer.timed(t.span or t.span_names[0], original, t.count)
            if isinstance(holder, type):
                inst.patched.append((holder, name, original))
                setattr(holder, name, wrapper)
                continue
            for mod in _scanned_modules(t.owner):
                for key, value in list(vars(mod).items()):
                    if value is original:
                        inst.patched.append((mod, key, original))
                        setattr(mod, key, wrapper)
    except BaseException:
        inst.uninstall()
        raise
    return inst
