"""Single-graph analysis bundle: every invariant this package computes,
cross-checked, in one report.

The report is the unit of CLI output. Anything that contradicts a proven
statement lands in `violations`; the caller decides what exit code that is
worth. A report with violations is a bug in this package (or a broken input
claiming to be a unit gain graph), never a property of the mathematics.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from .combinatorics import CycleRecord, cycle_record, enumerate_cycles
from .combinatorics.transversal import TRANSVERSAL_LIMIT
from .errors import SizeLimitError, TheoremViolation
from .graphs import GainGraph
from .spectral import EXACT_PRIME_BUDGET, block_inertia, pendant_peel
from .spectral import rank as spectral_rank
from .theorems import (
    BoundReport,
    OptimalityVerdict,
    StructuralReport,
    check_rank_bounds,
    check_refined_bounds,
    classify_cycle,
    component_facts,
    verify_equivalence,
)

SCHEMA_VERSION = "1"
DEFAULT_CYCLE_CAP = 1000


@dataclass(frozen=True)
class CycleSummary:
    """One cycle as `analyze` and `cycles` report it."""

    vertices: tuple[int, ...]
    length: int
    gain: str  # token form of the canonical-orientation product
    real_part: float
    kind: str  # CycleType name

    @classmethod
    def of(cls, g: GainGraph, rec: CycleRecord) -> "CycleSummary":
        return cls(rec.vertices, rec.length, rec.gain.token(), rec.real_part, classify_cycle(g, rec).name)

    def row(self) -> dict:
        return {
            "vertices": list(self.vertices),
            "length": self.length,
            "gain": self.gain,
            "real_part": self.real_part,
            "type": self.kind,
        }

    def line(self) -> str:
        verts = "-".join(map(str, self.vertices))
        return f"  [{verts}]  length {self.length}  gain {self.gain}  re {self.real_part:+.6f}  {self.kind}"


@dataclass(frozen=True)
class AnalysisReport:
    n: int
    edge_count: int
    component_count: int
    m: int
    c: int
    rank: int
    rank_backend: str
    p_plus: int
    n_zero: int
    n_minus: int
    basic: BoundReport
    refined: BoundReport | None  # None when the transversal search is out of reach
    cycles: tuple[CycleSummary, ...] | None  # None when enumeration hit its cap
    disjoint_cycles: bool
    condition_iii: bool | None  # defined only when cycles are disjoint
    verdict: OptimalityVerdict
    violations: tuple[str, ...]
    skipped: dict[str, str] = field(default_factory=dict)  # check -> limit that stopped it

    @property
    def ok(self) -> bool:
        return not self.violations


def analyze(
    g: GainGraph,
    tol: float | None = None,
    mode: str | None = None,
    max_cycles: int = DEFAULT_CYCLE_CAP,
) -> AnalysisReport:
    """Compute the full report for one gain graph.

    mode None lets the rank backend pick itself (exact where possible); an
    explicit mode forces that backend. The inertia always comes from
    pendant_peel: every component's pendant pairs (for float gains, those
    walked in its facts) plus one cut of the cores they leave. So a float-gain
    rank cut from the full spectrum meets it by a second route. With
    mode="numeric" the reported rank is p+ + n- of the inertia itself, so the
    rank = p+ + n- identity is consistent by construction at any tol. Any other
    backend is checked against the inertia only at a tol no smaller than the
    auto_tolerance of the eigenvalues that were cut; below it the check lands
    in `skipped`.
    """
    violations: list[str] = []
    skipped: dict[str, str] = {}
    facts = component_facts(g)
    basic = check_rank_bounds(facts)
    verdict = verify_equivalence(facts)

    # H is the direct sum of its components, each peeled to its pendant
    # pairs, which need no cut, and a core, which is cut with the others
    peels = [pendant_peel(f.graph, f.peel) for f in facts.components]
    ine = block_inertia([w for _, w in peels], tol, sum(k for k, _ in peels))
    if any(f.exact_refused for f in facts.components):
        skipped["exact_rank"] = f"more than EXACT_PRIME_BUDGET ({EXACT_PRIME_BUDGET}) primes"
    if mode is None:
        r, backend = verdict.rank, verdict.rank_backend
    elif mode == "numeric":
        r, backend = ine.rank, "numeric"
    else:
        r, backend = spectral_rank(g, mode=mode), mode

    if mode != "numeric" and ine.tol_used < ine.auto_tol:
        # eigenvalues within the solver's error of zero may take either sign
        skipped["rank_inertia_identity"] = (
            f"tol {ine.tol_used:.3g} below auto_tolerance {ine.auto_tol:.3g}: "
            "rank = p+ + n- is inconclusive"
        )
    elif r != ine.p_plus + ine.n_minus:
        violations.append(
            f"rank {r} ({backend}) disagrees with inertia sum "
            f"{ine.p_plus}+{ine.n_minus} at tol {ine.tol_used:.3g}"
        )
    if mode not in (None, "numeric") and r != basic.rank:
        violations.append(f"rank backends disagree: {r} ({backend}) vs {basic.rank}")
    if not basic.holds_basic:
        violations.append(
            f"rank {basic.rank} escapes [{basic.lower_basic}, {basic.upper_basic}]"
        )

    refined: BoundReport | None = None
    try:
        refined = check_refined_bounds(facts)
        if not refined.holds_refined:
            violations.append(
                f"rank {refined.rank} escapes refined "
                f"[{refined.lower_refined}, {refined.upper_refined}]"
            )
    except SizeLimitError:
        skipped["refined_bounds"] = f"n > TRANSVERSAL_LIMIT ({TRANSVERSAL_LIMIT})"
    except TheoremViolation as exc:
        violations.append(str(exc))

    # the facts walked every cycle of a component whose cycles are disjoint;
    # ids lift in order, so canonical forms and directions carry over
    walked = {
        tuple(f.kept[v] for v in rec.vertices): rec.gain
        for f in facts.components
        for rec in f.records or ()
    }
    cycles: tuple[CycleSummary, ...] | None
    try:
        found = enumerate_cycles(g, limit=max_cycles)
        records = [
            CycleRecord(c, walked[c]) if c in walked else cycle_record(g, c) for c in found
        ]
        cycles = tuple(CycleSummary.of(g, rec) for rec in records)
    except SizeLimitError:
        cycles = None
        skipped["cycles"] = f"more than max_cycles ({max_cycles}) cycles"

    # both are conjunctions over components: cycles in different components
    # never meet, and per component m(contracted) >= m(G - cycle vertices)
    disjoint = all(f.cycles is not None for f in facts.components)
    cond = all(f.condition_iii for f in facts.components) if disjoint else None

    if not verdict.consistent:
        violations.append("spectral and structural optimality verdicts disagree")

    return AnalysisReport(
        n=g.n,
        edge_count=len(g.edges),
        component_count=len(facts.components),
        m=basic.m,
        c=basic.c,
        rank=r,
        rank_backend=backend,
        p_plus=ine.p_plus,
        n_zero=ine.n_zero,
        n_minus=ine.n_minus,
        basic=basic,
        refined=refined,
        cycles=cycles,
        disjoint_cycles=disjoint,
        condition_iii=cond,
        verdict=verdict,
        violations=tuple(violations),
        skipped=skipped,
    )


def _bound_dict(rep: BoundReport) -> dict:
    out = {
        "rank": rep.rank,
        "m": rep.m,
        "c": rep.c,
        "lower_basic": rep.lower_basic,
        "upper_basic": rep.upper_basic,
        "holds_basic": rep.holds_basic,
    }
    if rep.b is not None:
        out.update(
            b=rep.b,
            acyclic_deletion_value=rep.acyclic_deletion_value,
            lower_refined=rep.lower_refined,
            upper_refined=rep.upper_refined,
            holds_refined=rep.holds_refined,
        )
    return out


def _structural_dict(rep: StructuralReport) -> dict:
    return {
        "holds": rep.holds,
        "first_failure": rep.first_failure,
        "witness": list(rep.witness) if rep.witness is not None else None,
        "cycles_disjoint": rep.cycles_disjoint,
        "types_ok": rep.types_ok,
        "matching_ok": rep.matching_ok,
    }


def _verdict_dict(v: OptimalityVerdict) -> dict:
    return {
        "spectral_lower": v.spectral_lower,
        "spectral_upper": v.spectral_upper,
        "structural_lower": _structural_dict(v.structural_lower),
        "structural_upper": _structural_dict(v.structural_upper),
        "consistent": v.consistent,
        "rank": v.rank,
        "rank_backend": v.rank_backend,
    }


def report_to_dict(rep: AnalysisReport) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "n": rep.n,
        "edge_count": rep.edge_count,
        "component_count": rep.component_count,
        "m": rep.m,
        "c": rep.c,
        "rank": rep.rank,
        "rank_backend": rep.rank_backend,
        "inertia": {"p_plus": rep.p_plus, "n_zero": rep.n_zero, "n_minus": rep.n_minus},
        "basic_bounds": _bound_dict(rep.basic),
        "refined_bounds": _bound_dict(rep.refined) if rep.refined else None,
        "cycles": None if rep.cycles is None else [cs.row() for cs in rep.cycles],
        "disjoint_cycles": rep.disjoint_cycles,
        "condition_iii": rep.condition_iii,
        "verdict": _verdict_dict(rep.verdict),
        "violations": list(rep.violations),
        "skipped": dict(rep.skipped),
        "ok": rep.ok,
    }


def render_text(rep: AnalysisReport) -> str:
    lines = [
        f"vertices {rep.n}  edges {rep.edge_count}  components {rep.component_count}",
        f"matching number {rep.m}  cyclomatic number {rep.c}",
        f"rank {rep.rank} ({rep.rank_backend})  "
        f"inertia +{rep.p_plus} / 0:{rep.n_zero} / -{rep.n_minus}",
        f"basic bounds  {rep.basic.lower_basic} <= {rep.rank} <= {rep.basic.upper_basic}"
        f"  [{'ok' if rep.basic.holds_basic else 'VIOLATED'}]",
    ]
    if "rank_inertia_identity" in rep.skipped:
        lines.insert(3, f"  not checked: {rep.skipped['rank_inertia_identity']}")
    if "exact_rank" in rep.skipped:
        lines.insert(3, f"  exact rank refused: {rep.skipped['exact_rank']}")
    if rep.refined is not None:
        lines.append(
            f"refined bounds  {rep.refined.lower_refined} <= {rep.rank} <= "
            f"{rep.refined.upper_refined}  "
            f"[{'ok' if rep.refined.holds_refined else 'VIOLATED'}]"
            f"  (transversal {rep.refined.b}, acyclic-deletion value "
            f"{rep.refined.acyclic_deletion_value})"
        )
    if rep.cycles is None:
        lines.append(f"cycles: not enumerated ({rep.skipped['cycles']})")
    else:
        cond = "n/a" if rep.condition_iii is None else ("yes" if rep.condition_iii else "no")
        lines.append(
            f"cycles: {len(rep.cycles)}  "
            f"(pairwise disjoint: {'yes' if rep.disjoint_cycles else 'no'}; "
            f"contraction matching condition: {cond})"
        )
        lines.extend(cs.line() for cs in rep.cycles)
    v = rep.verdict
    lines.append(
        f"lower-optimal  spectral {'yes' if v.spectral_lower else 'no'} / "
        f"structural {'yes' if v.structural_lower.holds else 'no'}"
    )
    lines.append(
        f"upper-optimal  spectral {'yes' if v.spectral_upper else 'no'} / "
        f"structural {'yes' if v.structural_upper.holds else 'no'}"
    )
    lines.append(f"verdict consistent: {'yes' if v.consistent else 'NO'}")
    if rep.violations:
        lines.append("violations:")
        lines.extend(f"  ! {msg}" for msg in rep.violations)
    return "\n".join(lines)
