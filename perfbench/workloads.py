"""The three gainrank workloads: inputs made from a seed, the fixed work of
one round, and the checks on that round's outputs.

Each workload is a closed loop with one client in one process: the next
call starts when the previous one returns. The program sees only the inputs
made here; the expected counts and ranks are computed here independently of
it. Importing this module loads neither numpy nor gainrank.
"""
from __future__ import annotations

import cmath
import contextlib
import heapq
import importlib
import io
import json
import math
import random
import re
import sys
from dataclasses import dataclass, field
from math import comb, factorial
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def import_gainrank() -> SimpleNamespace:
    """Fresh import of the package from this checkout's src/."""
    for name in [k for k in sys.modules if k == "gainrank" or k.startswith("gainrank.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    names = ("cli", "certify", "generators", "gains")
    mods = SimpleNamespace(**{m: importlib.import_module(f"gainrank.{m}") for m in names})
    origin = Path(mods.cli.__file__).resolve()
    if SRC not in origin.parents:
        raise ImportError(f"gainrank imported from {origin}, not from {SRC}")
    return mods


@dataclass
class Round:
    """One pass over a workload's fixed work, before checking."""

    wall_s: float
    outputs: list
    latencies: list[float] = field(default_factory=list)
    parts: dict[str, float] = field(default_factory=dict)  # seconds per stage


def _call_cli(gr, argv: list[str]) -> tuple[int | str, str, float]:
    """Exit code (or the exception raised), standard output and latency."""
    buf = io.StringIO()
    t0 = perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            rc = gr.cli.main(argv)
    except SystemExit as exc:
        rc = exc.code
    except Exception as exc:  # a crash fails this item, not the run
        rc = f"{type(exc).__name__}: {exc}"
    return rc, buf.getvalue(), perf_counter() - t0


def _document(rc, out: str) -> dict:
    """The JSON a CLI call printed, or {} when it printed none."""
    try:
        return json.loads(out) if rc in (0, 2) else {}
    except json.JSONDecodeError:
        return {}


def _engine(fn, *args, **kwargs):
    """An engine's SliceReport, or the exception it raised."""
    try:
        return fn(*args, **kwargs)
    except Exception as exc:  # a crash fails this slice, not the run
        return exc


# -- certify ------------------------------------------------------------------

SIGNED_N_MAX = 6
STRIDE = 8
CACTUS_N_MAX = 7
CACTUS_CAP = 50
# the counts the cactus engine must report for n <= 7 at cap 50; the
# formulas below derive them again
CACTUS_GRAPHS = 96_201
CACTUS_INSTANCES = 4_810_008


def connected_graph_counts(n_max: int) -> dict[tuple[int, int], int]:
    """Connected labeled graphs on n vertices with k edges, 2 <= n <= n_max.

    All graphs split by the component holding vertex 1:
    g(n, k) = sum over m, j of C(n-1, m-1) c(m, j) g(n-m, k-j).
    """
    c: dict[tuple[int, int], int] = {}

    def g(n: int, k: int) -> int:
        return comb(n * (n - 1) // 2, k)

    for n in range(1, n_max + 1):
        for k in range(n * (n - 1) // 2 + 1):
            rest = sum(
                comb(n - 1, m - 1) * c.get((m, j), 0) * g(n - m, k - j)
                for m in range(1, n)
                for j in range(k + 1)
            )
            c[(n, k)] = g(n, k) - rest
    return {key: v for key, v in c.items() if key[0] >= 2 and v}


def disjoint_cycle_graph_counts(n: int) -> dict[int, int]:
    """Connected labeled graphs on n vertices whose cycles are pairwise
    vertex-disjoint, by number of cycles (at most two below n = 9).

    Contract each cycle to a node weighted by its length; by the weighted
    Cayley formula the trees on the contracted nodes number
    (product of weights) * n^(nodes - 2).
    """

    def cycles_on(k: int) -> int:
        return factorial(k - 1) // 2

    trees = n ** (n - 2) if n > 2 else 1
    one = sum(
        comb(n, k) * cycles_on(k) * (k * n ** (n - k - 1) if k < n else 1)
        for k in range(3, n + 1)
    )
    two = sum(
        comb(n, k1) * comb(n - k1, k2) * cycles_on(k1) * cycles_on(k2)
        * k1 * k2 * n ** (n - k1 - k2)
        for k1 in range(3, n + 1)
        for k2 in range(3, n - k1 + 1)
    ) // 2
    return {0: trees, 1: one, 2: two}


def cactus_expected(n_max: int, cap: int) -> tuple[int, int]:
    """(graphs, instances): each graph gets min(8^E, cap) octant assignments."""
    graphs = instances = 0
    for n in range(2, n_max + 1):
        for cycles, count in disjoint_cycle_graph_counts(n).items():
            graphs += count
            instances += count * min(8 ** (n - 1 + cycles), cap)
    return graphs, instances


class Certify:
    """Both batch engines through the library.

    Signed engine: every sign assignment on a seed-chosen 1/8 of the
    connected labeled graphs with at most 6 vertices. The stride runs within
    each (vertices, edges) class, from an offset the seed picks per class,
    so every seed certifies nearly the same number of instances.
    Cactus engine: all disjoint-cycle graphs up to n = 7, 50 eighth-root
    assignments each, drawn from the seed.
    """

    name = "certify"

    def __init__(self, seed: int):
        self.seed = seed
        rng = random.Random(f"certify-{seed}")
        classes = connected_graph_counts(SIGNED_N_MAX)
        self.offsets = {key: rng.randrange(STRIDE) for key in sorted(classes)}
        picked = {key: len(range(self.offsets[key], n, STRIDE)) for key, n in classes.items()}
        self.signed_graphs = sum(picked.values())
        self.signed_instances = sum(count << k for (_, k), count in picked.items())
        graphs, instances = cactus_expected(CACTUS_N_MAX, CACTUS_CAP)
        if (graphs, instances) != (CACTUS_GRAPHS, CACTUS_INSTANCES):
            raise AssertionError(f"cactus count formulas give {graphs}, {instances}")
        self.items = self.signed_instances + CACTUS_INSTANCES
        self.components = 0

    def _stride(self, graphs):
        seen: dict[tuple[int, int], int] = {}
        for G in graphs:
            key = (G.n, len(G.edges))
            i = seen.get(key, 0)
            seen[key] = i + 1
            if i % STRIDE == self.offsets[key]:
                yield G

    def setup(self, gr, workdir: Path) -> None:
        self.gr = gr
        Gain = gr.gains.Gain
        self.alphabet = (Gain.from_angle(0), Gain.from_angle(1, 2))
        gr.certify.run_alphabet_slice(gr.generators.enumerate_connected_graphs(4), self.alphabet)
        # n = 6 is the first size with two-cycle graphs, so every code path runs
        gr.certify.run_cactus_slice(n_max=6, cap=CACTUS_CAP, seed=self.seed)

    def run(self) -> Round:
        cert, gen = self.gr.certify, self.gr.generators
        t0 = perf_counter()
        signed = _engine(
            cert.run_alphabet_slice,
            self._stride(gen.enumerate_connected_graphs(SIGNED_N_MAX)),
            self.alphabet, cap=None, name="signed-stride",
        )
        cactus = _engine(
            cert.run_cactus_slice,
            n_max=CACTUS_N_MAX, cap=CACTUS_CAP, seed=self.seed, name="cactus",
        )
        parts = {
            f"{key}_s": rep.elapsed
            for key, rep in (("signed", signed), ("cactus", cactus))
            if not isinstance(rep, Exception)
        }
        return Round(perf_counter() - t0, [signed, cactus], parts=parts)

    def check(self, rnd: Round) -> tuple[int, list[str]]:
        failed, problems = 0, []
        want = ((self.signed_graphs, self.signed_instances), (CACTUS_GRAPHS, CACTUS_INSTANCES))
        for rep, (graphs, instances) in zip(rnd.outputs, want):
            if isinstance(rep, Exception):
                failed += instances
                problems.append(f"engine raised {type(rep).__name__}: {rep}")
            elif rep.failures or (rep.graphs, rep.instances) != (graphs, instances):
                failed += instances
                problems.append(
                    f"{rep.name}: {len(rep.failures)} failure(s), {rep.graphs} graphs and "
                    f"{rep.instances} instances, expected {graphs} and {instances}"
                )
        return failed, problems


# -- analyze ------------------------------------------------------------------

ANALYZE_KINDS = ("gaussian", "roots:8", "uniform")
ANALYZE_PER_KIND = 70
ANALYZE_N = (16, 160)
ANALYZE_EXTRA_MAX = 4


def _random_tree(n: int, rng: random.Random) -> list[tuple[int, int]]:
    """Uniform labeled tree from a random Pruefer sequence."""
    seq = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for a in seq:
        degree[a] += 1
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for a in seq:
        edges.append((heapq.heappop(leaves), a))
        degree[a] -= 1
        if degree[a] == 1:
            heapq.heappush(leaves, a)
    edges.append((heapq.heappop(leaves), heapq.heappop(leaves)))
    return edges


def _gain_token(kind: str, rng: random.Random) -> str:
    if kind == "gaussian":
        return rng.choice(("1", "-1", "i", "-i"))
    if kind == "roots:8":
        return f"rot({rng.randrange(8)}/8)"
    while True:
        theta = 2 * math.pi * rng.random()
        # off the imaginary axis, so cycle types never sit on a boundary
        if abs(math.cos(theta)) >= 1e-6:
            return f"c({math.cos(theta)!r},{math.sin(theta)!r})"


def graph_text(n: int, extra: int, kind: str, rng: random.Random) -> str:
    """Spanning tree plus `extra` distinct further edges, in the text format."""
    edges = {tuple(sorted(e)) for e in _random_tree(n, rng)}
    target = len(edges) + extra
    while len(edges) < target:
        edges.add(tuple(sorted(rng.sample(range(n), 2))))
    lines = [f"n {n}"]
    lines += [f"e {u} {v} {_gain_token(kind, rng)}" for u, v in sorted(edges)]
    return "\n".join(lines) + "\n"


def analyze_corpus(seed: int) -> list[str]:
    """Graphs with n log-uniform in [16, 160], gains cycling through kinds.

    n is drawn once per stratum of the log range, so every seed gets nearly
    the same size mix; the cost of an exact-backend graph grows about as n^3.
    """
    rng = random.Random(f"analyze-{seed}")
    lo, hi = ANALYZE_N
    texts = []
    for j in range(ANALYZE_PER_KIND):
        for kind in ANALYZE_KINDS:
            n = round(lo * (hi / lo) ** ((j + rng.random()) / ANALYZE_PER_KIND))
            texts.append(graph_text(n, rng.randint(0, ANALYZE_EXTRA_MAX), kind, rng))
    return texts


_TOKENS = {"1": 1, "-1": -1, "i": 1j, "-i": -1j}
_ROT = re.compile(r"rot\((\d+)/(\d+)\)")
_CPLX = re.compile(r"c\(([^,]+),([^)]+)\)")


def reference_rank(text: str) -> int:
    """numpy rank of the Hermitian adjacency matrix written in text."""
    import numpy as np  # loaded after the caller has fixed numpy's threads

    lines = text.split("\n")
    n = int(lines[0].split()[1])
    h = np.zeros((n, n), dtype=complex)
    for line in lines[1:]:
        if not line:
            continue
        _, u, v, tok = line.split()
        if tok in _TOKENS:
            z = _TOKENS[tok]
        elif m := _ROT.fullmatch(tok):
            z = cmath.exp(2j * math.pi * int(m[1]) / int(m[2]))
        else:
            m = _CPLX.fullmatch(tok)
            z = complex(float(m[1]), float(m[2]))
        h[int(u), int(v)] = z
        h[int(v), int(u)] = z.conjugate()
    return int(np.linalg.matrix_rank(h, hermitian=True))


def component_count(text: str) -> int:
    lines = [ln.split() for ln in text.split("\n") if ln]
    parent = list(range(int(lines[0][1])))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for _, u, v, _ in lines[1:]:
        parent[find(int(u))] = find(int(v))
    return sum(find(x) == x for x in range(len(parent)))


class Analyze:
    """`gainrank analyze <file> --json`, in-process, once per corpus graph."""

    name = "analyze"

    def __init__(self, seed: int):
        self.seed = seed
        self._expected: list[int] | None = None

    def setup(self, gr, workdir: Path) -> None:
        self.gr = gr
        self.texts = analyze_corpus(self.seed)
        corpus = workdir / "analyze"
        corpus.mkdir(parents=True, exist_ok=True)
        self.paths = []
        for i, text in enumerate(self.texts):
            path = corpus / f"g{i:04d}.txt"
            path.write_text(text, encoding="utf-8")
            self.paths.append(str(path))
        self.items = len(self.paths)
        self.components = sum(component_count(t) for t in self.texts)
        for path in self.paths[: len(ANALYZE_KINDS)]:
            _call_cli(gr, ["analyze", path, "--json"])

    def run(self) -> Round:
        outputs, latencies = [], []
        t0 = perf_counter()
        for path in self.paths:
            rc, out, dt = _call_cli(self.gr, ["analyze", path, "--json"])
            outputs.append((rc, out))
            latencies.append(dt)
        return Round(perf_counter() - t0, outputs, latencies)

    def check(self, rnd: Round) -> tuple[int, list[str]]:
        if self._expected is None:
            self._expected = [reference_rank(t) for t in self.texts]
        failed, problems = 0, []
        for path, want, (rc, out) in zip(self.paths, self._expected, rnd.outputs):
            doc = _document(rc, out)
            if rc != 0 or not doc.get("ok") or doc.get("rank") != want:
                failed += 1
                problems.append(
                    f"analyze {Path(path).name}: exit {rc}, ok {doc.get('ok')}, "
                    f"rank {doc.get('rank')} against numpy {want}"
                )
        return failed, problems


# -- verify -------------------------------------------------------------------

VERIFY_KINDS = ("trivial", "signed", "gaussian", "roots:8", "uniform")
VERIFY_COUNT = 100


class Verify:
    """`gainrank verify --count 100 --n 12 --extra-edges 8 --gains K --json`,
    in-process, once per gain kind."""

    name = "verify"

    def __init__(self, seed: int):
        self.seed = seed
        self.items = VERIFY_COUNT * len(VERIFY_KINDS)
        # verify draws connected graphs: one component per instance
        self.components = self.items

    def _argv(self, kind: str, count: int, seed: int) -> list[str]:
        return [
            "verify", "--count", str(count), "--n", "12", "--extra-edges", "8",
            "--gains", kind, "--seed", str(seed), "--json", "--out", self.out,
        ]

    def setup(self, gr, workdir: Path) -> None:
        self.gr = gr
        workdir.mkdir(parents=True, exist_ok=True)
        self.out = str(workdir / "verify-failures.txt")
        # one fixed warm-up for every seed, so set-up does the same work
        for kind in VERIFY_KINDS:
            _call_cli(gr, self._argv(kind, 2, seed=0))

    def run(self) -> Round:
        outputs = []
        t0 = perf_counter()
        # verify draws the same graphs for every gain kind at one seed; a seed
        # per kind gives five independent graph samples, so the work of a
        # round varies less from seed to seed
        for j, kind in enumerate(VERIFY_KINDS):
            seed = self.seed * len(VERIFY_KINDS) + j
            rc, out, _ = _call_cli(self.gr, self._argv(kind, VERIFY_COUNT, seed))
            outputs.append((rc, out))
        return Round(perf_counter() - t0, outputs)

    def check(self, rnd: Round) -> tuple[int, list[str]]:
        failed, problems = 0, []
        for kind, (rc, out) in zip(VERIFY_KINDS, rnd.outputs):
            checks = _document(rc, out).get("checks", {})
            bad = [k for k, c in checks.items() if c["passed"] != c["run"]]
            runs = checks.get("basic_bounds", {}).get("run")
            if rc != 0 or bad or runs != VERIFY_COUNT:
                failed += VERIFY_COUNT
                problems.append(
                    f"verify {kind}: exit {rc}, failing checks {bad}, "
                    f"basic_bounds run {runs} of {VERIFY_COUNT}"
                )
        return failed, problems


WORKLOADS = {w.name: w for w in (Certify, Analyze, Verify)}
