"""Command-line front end.

Four subcommands: analyze one graph file, list its cycles, verify the
bound theorems on random instances, and exhaustively certify the
equivalences on all small graphs over a finite gain set. Machine output is
one JSON document per invocation (--json); text output is a projection of
the same data.

Exit codes: 0 clean, 1 input or parameter problem, 2 a proven statement
failed on a concrete instance, which means a bug here, not new mathematics.
"""
from __future__ import annotations

import argparse
import json
import random
import sys
from concurrent.futures import ProcessPoolExecutor

from .analysis import SCHEMA_VERSION, analyze, render_text, report_to_dict
from .certify import SliceReport, run_alphabet_slice, worker_count
from .combinatorics import cycle_records, enumerate_cycles
from .errors import ParseError, SizeLimitError
from .generators import (
    GainSetSpec,
    assign_gains,
    enumerate_connected_graphs,
    random_connected_graph,
)
from .graphs import GainGraph, parse_gain_graph, serialize_gain_graph, underlying
from .theorems import (
    check_rank_bounds,
    check_refined_bounds,
    classify_cycle,
    component_facts,
    deletion_bounds_check,
    pendant_reduction_check,
    verify_equivalence,
)

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_VIOLATION = 2

VERIFY_REFINED_LIMIT = 12  # transversal and acyclic-deletion search cutoff


def _read_graph(path: str) -> GainGraph:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_gain_graph(fh.read())


def _emit(doc: dict, as_json: bool, text: str) -> None:
    if as_json:
        json.dump(doc, sys.stdout, indent=2)
        sys.stdout.write("\n")
    else:
        sys.stdout.write(text + "\n")


def cmd_analyze(args: argparse.Namespace) -> int:
    try:
        g = _read_graph(args.path)
        rep = analyze(g, tol=args.tol, mode=args.mode)
    except (OSError, ParseError, ValueError, SizeLimitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    doc = {"command": "analyze", **report_to_dict(rep)}
    _emit(doc, args.json, render_text(rep))
    return EXIT_OK if rep.ok else EXIT_VIOLATION


def cmd_cycles(args: argparse.Namespace) -> int:
    try:
        g = _read_graph(args.path)
    except (OSError, ParseError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    try:
        found = enumerate_cycles(underlying(g), limit=args.max_cycles)
    except SizeLimitError as exc:
        print(f"error: {exc}; raise --max-cycles", file=sys.stderr)
        return EXIT_INPUT
    records = cycle_records(g, found)
    rows = [
        {
            "vertices": list(rec.vertices),
            "length": rec.length,
            "gain": rec.gain.token(),
            "real_part": rec.real_part,
            "type": classify_cycle(g, rec).name,
        }
        for rec in records
    ]
    doc = {"command": "cycles", "schema_version": SCHEMA_VERSION, "count": len(rows), "cycles": rows}
    lines = [f"{len(rows)} cycle(s)"]
    for row in rows:
        verts = "-".join(map(str, row["vertices"]))
        lines.append(
            f"  [{verts}]  length {row['length']}  gain {row['gain']}  "
            f"re {row['real_part']:+.6f}  {row['type']}"
        )
    _emit(doc, args.json, "\n".join(lines))
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify: random instances against the bound theorems and reduction lemmas


def _verify_shard(params: tuple) -> dict:
    """One worker's share of the verify run; shard k takes i = k (mod W)."""
    count, n_max, extra_edges, gains, seed, shard, workers = params
    spec = GainSetSpec.parse(gains)
    counts = {
        "basic_bounds": [0, 0],
        "refined_bounds": [0, 0],
        "equivalence": [0, 0],
        "pendant_reduction": [0, 0],
        "deletion_bounds": [0, 0],
    }
    failures: list[tuple[int, str, str]] = []

    def note(key: str, passed: bool, i: int, g: GainGraph) -> None:
        counts[key][1] += 1
        if passed:
            counts[key][0] += 1
        else:
            failures.append((i, key, serialize_gain_graph(g)))

    for i in range(shard, count, workers):
        s = seed * 1_000_003 + i
        rng = random.Random(s)
        n = rng.randint(2, n_max)
        slack = n * (n - 1) // 2 - (n - 1)
        extra = rng.randint(0, min(extra_edges, slack))
        G = random_connected_graph(n, extra, seed=s + 1)
        g = assign_gains(G, GainSetSpec(spec.kind, q=spec.q, seed=s + 2))

        facts = component_facts(g)
        note("basic_bounds", check_rank_bounds(facts).holds_basic, i, g)
        if n <= VERIFY_REFINED_LIMIT:
            note("refined_bounds", bool(check_refined_bounds(facts).holds_refined), i, g)
        note("equivalence", verify_equivalence(facts).consistent, i, g)
        pend = pendant_reduction_check(facts)
        if pend is not None:
            note("pendant_reduction", pend, i, g)
        note("deletion_bounds", deletion_bounds_check(facts, rng.randrange(n)), i, g)
    return {"counts": counts, "failures": failures}


def cmd_verify(args: argparse.Namespace) -> int:
    try:
        GainSetSpec.parse(args.gains)
        if args.count < 1 or args.n < 2:
            raise ValueError("count must be >= 1 and --n >= 2")
        workers = worker_count()
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    shards = [
        (args.count, args.n, args.extra_edges, args.gains, args.seed, k, workers)
        for k in range(min(workers, args.count))
    ]
    if len(shards) == 1:
        results = [_verify_shard(shards[0])]
    else:
        with ProcessPoolExecutor(max_workers=len(shards)) as pool:
            results = list(pool.map(_verify_shard, shards))

    counts = {k: [0, 0] for k in results[0]["counts"]}
    failures: list[tuple[int, str, str]] = []
    for res in results:
        for k, (p, t) in res["counts"].items():
            counts[k][0] += p
            counts[k][1] += t
        failures.extend(res["failures"])
    failures.sort()

    if failures and args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            for i, key, text in failures:
                fh.write(f"# instance {i} failed {key}\n{text}\n")

    doc = {
        "command": "verify",
        "schema_version": SCHEMA_VERSION,
        "instances": args.count,
        "gains": args.gains,
        "seed": args.seed,
        "checks": {k: {"passed": p, "run": t} for k, (p, t) in sorted(counts.items())},
        "failures": len(failures),
        "failure_file": args.out if failures else None,
        "ok": not failures,
    }
    lines = [f"verify: {args.count} instance(s), gains {args.gains}, seed {args.seed}"]
    for k, (p, t) in sorted(counts.items()):
        lines.append(f"  {k}: {p}/{t} passed")
    if failures:
        lines.append(f"  {len(failures)} failure(s) written to {args.out}")
    _emit(doc, args.json, "\n".join(lines))
    return EXIT_OK if not failures else EXIT_VIOLATION


# ---------------------------------------------------------------------------
# enumerate: exhaustive small-graph certification over a finite gain set


def _enumerate_shard(params: tuple) -> SliceReport:
    n_max, gains, cap, seed, shard, workers = params
    spec = GainSetSpec.parse(gains)
    alphabet = spec.values()
    assert alphabet is not None

    def my_graphs():
        for i, G in enumerate(enumerate_connected_graphs(n_max)):
            if i % workers == shard:
                yield G

    return run_alphabet_slice(my_graphs(), alphabet, cap=cap, seed=seed, name=f"shard-{shard}")


def cmd_enumerate(args: argparse.Namespace) -> int:
    try:
        spec = GainSetSpec.parse(args.gains)
        if spec.values() is None:
            raise ValueError("enumerate needs a finite gain set (not uniform)")
        if args.n_max < 2 or args.n_max > 8:
            raise ValueError("--n-max must be between 2 and 8")
        if args.cap < 1:
            raise ValueError(f"infeasible cap {args.cap}")
        workers = worker_count()
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT

    shards = [(args.n_max, args.gains, args.cap, args.seed, k, workers) for k in range(workers)]
    if workers == 1:
        reports = [_enumerate_shard(shards[0])]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            reports = list(pool.map(_enumerate_shard, shards))

    graphs = sum(r.graphs for r in reports)
    instances = sum(r.instances for r in reports)
    classes = sum(r.classes for r in reports)
    switching = sum(r.switching_checks for r in reports)
    checks = sum(r.cross_checks for r in reports)
    failures = sorted(
        ((f.message, f.graph_text) for r in reports for f in r.failures)
    )

    if failures and args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            for msg, text in failures:
                fh.write(f"# {msg}\n{text}\n")

    doc = {
        "command": "enumerate",
        "schema_version": SCHEMA_VERSION,
        "n_max": args.n_max,
        "gains": args.gains,
        "cap": args.cap,
        "graphs": graphs,
        "instances": instances,
        "classes": classes,
        "switching_checks": switching,
        "oracle_escalations": checks,
        "failures": len(failures),
        "failure_file": args.out if failures else None,
        "ok": not failures,
    }
    lines = [
        f"enumerate: n <= {args.n_max}, gains {args.gains}, cap {args.cap}",
        f"  {graphs} graph(s), {instances} instance(s), {classes} class(es), "
        f"{switching} switching check(s), {checks} oracle escalation(s), "
        f"{len(failures)} failure(s)",
    ]
    if failures:
        lines.append(f"  failures written to {args.out}")
    _emit(doc, args.json, "\n".join(lines))
    return EXIT_OK if not failures else EXIT_VIOLATION


# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse default exits 2; keep 2 for theorems
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_INPUT)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="gainrank", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analyze", help="full invariant report for one graph file")
    pa.add_argument("path")
    pa.add_argument("--tol", type=float, default=None, help="numeric zero threshold")
    pa.add_argument("--mode", choices=("numeric", "exact", "oracle"), default=None)
    pa.add_argument("--json", action="store_true")
    pa.set_defaults(func=cmd_analyze)

    pc = sub.add_parser("cycles", help="list simple cycles with gains and types")
    pc.add_argument("path")
    pc.add_argument("--max-cycles", type=int, default=100_000)
    pc.add_argument("--json", action="store_true")
    pc.set_defaults(func=cmd_cycles)

    pv = sub.add_parser("verify", help="random-instance checks of the rank bounds")
    pv.add_argument("--count", type=int, required=True)
    pv.add_argument("--n", type=int, default=12, help="max vertex count")
    pv.add_argument("--extra-edges", type=int, default=4)
    pv.add_argument("--gains", required=True,
                    help="trivial | signed | gaussian | roots:Q | uniform")
    pv.add_argument("--seed", type=int, default=0)
    pv.add_argument("--out", default="gainrank-failures.txt",
                    help="file for failing instances")
    pv.add_argument("--json", action="store_true")
    pv.set_defaults(func=cmd_verify)

    pe = sub.add_parser("enumerate", help="exhaustive equivalence certification")
    pe.add_argument("--n-max", type=int, required=True)
    pe.add_argument("--gains", required=True,
                    help="trivial | signed | gaussian | roots:Q (finite sets only)")
    pe.add_argument("--cap", type=int, default=4096,
                    help="max switching classes solved per graph (default %(default)s; a "
                         "deterministic sample of classes beyond)")
    pe.add_argument("--seed", type=int, default=0)
    pe.add_argument("--out", default="gainrank-failures.txt")
    pe.add_argument("--json", action="store_true")
    pe.set_defaults(func=cmd_enumerate)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
