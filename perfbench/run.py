"""gainrank benchmark: certify, analyze and verify workloads.

    python3 perfbench/run.py [--workload certify|analyze|verify|all]
                             [--seed N] [--seconds S] [--trace 0|1]

Each workload sets up several times (fresh import of the package from src/,
inputs from the seed, a warm-up call) and reports the median set-up time.
It then repeats its fixed work, checking every output, until --seconds have
passed, and reports medians over those rounds. With --trace 1 traced rounds
alternate with untraced ones, and the per-layer figures come from the traced
round of median wall time. Human-readable lines come first; the last line
of standard output is one JSON object with the gated metrics (see README.md
in this directory).
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

import tracer
from workloads import ROOT, SRC, WORKLOADS, import_gainrank

# one client in one process: numpy's BLAS gets one thread too, set before
# numpy loads, so a run does not compete with itself for the cores
BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUPS = 7
END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("items_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)
# reported and documented, but not gated: they do not apply to every
# workload (latency, engine stages), or are zero whenever the benchmark
# passes (failed_frac)
REPORTED = {
    "latency_p50_ms": "ms", "latency_p95_ms": "ms", "latency_max_ms": "ms",
    "signed_s": "s", "cactus_s": "s", "failed_frac": "ratio",
}


def machine() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(
                (ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu
            )
    except OSError:
        pass
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "GAINRANK_WORKERS": os.environ.get("GAINRANK_WORKERS"),
        **{var: os.environ.get(var) for var in BLAS_THREADS},
    }


def traced_round(wl) -> tuple[object, tracer.Tracer, float]:
    tr = tracer.Tracer()
    installed = tracer.install(tr)
    try:
        t0 = perf_counter()
        with tr.span("bench"):
            rnd = wl.run()
        wall = perf_counter() - t0
    finally:
        installed.uninstall()
    return rnd, tr, wall


def layer_figures(tr: tracer.Tracer, wall: float, components: int) -> dict[str, float]:
    out: dict[str, float] = {}
    for t in tracer.TARGETS:
        for name in t.span_names:
            out[name + ".calls"] = tr.calls.get(name, 0)
            out[name + ".self_s"] = tr.self_s.get(name, 0.0)
        for name in t.extra:
            out[name] = tr.counts.get(name, 0)
    passes = sum(out[f"spectral.rank.{m}.calls"] for m in ("exact", "numeric", "oracle"))
    passes += out["spectral.inertia.direct"]
    out["theorems.rank_passes_per_component"] = passes / components if components else 0.0
    out["bench.self_s"] = tr.self_s["bench"]
    out["trace.wall_s"] = wall
    return out


def run_workload(name: str, seed: int, seconds: float, trace: bool, workdir: Path) -> dict:
    wl = WORKLOADS[name](seed)
    setups = []
    for _ in range(SETUPS):
        t0 = perf_counter()
        wl.setup(import_gainrank(), workdir)
        setups.append(perf_counter() - t0)

    plain, traced = [], []
    attempted = failed = 0
    problems: list[str] = []

    def checked(rnd, trace_problem: str | None = None) -> None:
        nonlocal attempted, failed
        bad, msgs = wl.check(rnd)
        if trace_problem:
            bad, msgs = wl.items, msgs + [trace_problem]
        attempted += wl.items
        failed += bad
        problems.extend(msgs)

    start = perf_counter()
    while True:
        plain.append(wl.run())
        checked(plain[-1])
        if trace:
            rnd, tr, wall = traced_round(wl)
            accounted = sum(tr.self_s.values())
            off = abs(accounted - wall) > 0.01 * wall + 1e-3
            problem = f"trace: self times sum to {accounted:.4f} s of {wall:.4f} s"
            checked(rnd, problem if off else None)
            traced.append(layer_figures(tr, wall, wl.components))
        if perf_counter() - start >= seconds:
            break

    walls = [r.wall_s for r in plain]
    e2e = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(walls),
        "items_per_s": statistics.median(wl.items / w for w in walls),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "failed_frac": failed / attempted,
    }
    samples = {"setup_s": len(setups), "wall_s": len(walls), "items_per_s": len(walls)}
    latencies = [x for r in plain for x in r.latencies]
    if latencies:
        e2e["latency_p50_ms"] = 1e3 * statistics.median(latencies)
        e2e["latency_p95_ms"] = 1e3 * statistics.quantiles(latencies, n=20)[18]
        e2e["latency_max_ms"] = 1e3 * max(latencies)
        for k in ("latency_p50_ms", "latency_p95_ms", "latency_max_ms"):
            samples[k] = len(latencies)
    for k in plain[0].parts:
        values = [r.parts[k] for r in plain if k in r.parts]
        e2e[k] = statistics.median(values)
        samples[k] = len(values)

    layers: dict[str, float] = {}
    if traced:
        # the traced round of median wall time, so that its figures add up
        layers = sorted(traced, key=lambda t: t["trace.wall_s"])[(len(traced) - 1) // 2]
        layers["trace.overhead_frac"] = layers["trace.wall_s"] / e2e["wall_s"] - 1
        samples["per_layer"] = len(traced)

    return {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "rounds": len(plain),
        "items_per_round": wl.items,
        "round_walls": walls,
        "attempted": attempted,
        "failed": failed,
        "problems": problems[:20],
        "end_to_end": e2e,
        "per_layer": layers,
        "samples": samples,
    }


_UNITS = dict(END_TO_END) | REPORTED | {n: u for n, u, _ in tracer.per_layer_metrics()}


def print_report(res: dict, info: dict) -> None:
    print(f"== {res['workload']}  seed {res['seed']}  trace {res['trace']}  "
          f"rounds {res['rounds']}  items/round {res['items_per_round']}")
    print("machine  " + "  ".join(f"{k} {v}" for k, v in info.items()))
    for k, v in res["end_to_end"].items():
        n = res["samples"].get(k)
        print(f"  {k:<24} {v:>14.6g} {_UNITS[k]:<6}" + (f" n={n}" if n else ""))
    layers = res["per_layer"]
    for k, v in layers.items():
        if v or not k.endswith((".calls", ".self_s")):
            print(f"  {k:<52} {v:>14.6g} {_UNITS[k]}")
    if layers:
        total = sum(v for k, v in layers.items() if k.endswith(".self_s"))
        print(f"  self times (layers + bench) sum to {total:.4f} s "
              f"of {layers['trace.wall_s']:.4f} s traced wall")
    for msg in res["problems"]:
        print(f"  FAILED {msg}", file=sys.stderr)
    print("detail " + json.dumps(res | {"machine": info}))


def gated(res: dict) -> dict:
    if res["trace"]:
        return {n: {"value": res["per_layer"][n], "unit": u}
                for n, u, _ in tracer.per_layer_metrics()}
    return {n: {"value": res["end_to_end"][n], "unit": u} for n, u in END_TO_END}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    if not (SRC / "gainrank" / "__init__.py").is_file():
        print(f"error: no gainrank package under {SRC}", file=sys.stderr)
        return 2

    os.environ["GAINRANK_WORKERS"] = "1"
    for var in BLAS_THREADS:
        os.environ[var] = "1"
    info = machine()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    workdir = ROOT / "perfbench" / ".work" / f"run-{os.getpid()}"
    try:
        results = []
        for name in names:
            results.append(run_workload(name, args.seed, args.seconds, bool(args.trace), workdir))
            print_report(results[-1], info)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by a concurrent run
            workdir.parent.rmdir()

    if len(results) == 1:
        metrics = gated(results[0])
    else:
        metrics = {f"{r['workload']}.{k}": v for r in results for k, v in gated(r).items()}
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
