"""Rank bounds, cycle classification, and structural optimality checks.

Everything here comes in two halves that must agree: a spectral statement
about the rank of the Hermitian adjacency, and a purely structural statement
about cycles and matchings. verify_equivalence computes both and refuses to
paper over a disagreement.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass, replace

from .combinatorics import (
    cycle_matching_condition,
    cycle_record,
    cycle_structure,
    cyclomatic_number,
    matching_number,
    max_acyclic_deletion_matching,
    odd_cycle_transversal,
)
from .combinatorics.cycles import CycleRecord
from .errors import SizeLimitError, TheoremViolation
from .gains import Gain
from .graphs import GainGraph, pendant_vertices, serialize_gain_graph
from .spectral import hermitian_adjacency, inertia, pendant_pairs
from .spectral import rank as spectral_rank

TYPE_TOL = 1e-9
CROSS_CHECK_LIMIT = 9


class CycleType(enum.Enum):
    """The five spectral classes a gain cycle can fall into.

    Even cycles split on whether the gain product hits the one value that
    drops the rank by two; odd cycles split by the sign of the (suitably
    twisted) real part, with a separate class for purely imaginary products.
    """

    EVEN_SINGULAR = "even_singular"
    EVEN_REGULAR = "even_regular"
    ODD_POSITIVE = "odd_positive"
    ODD_NEGATIVE = "odd_negative"
    ODD_IMAGINARY = "odd_imaginary"

    @property
    def is_even(self) -> bool:
        return self in (CycleType.EVEN_SINGULAR, CycleType.EVEN_REGULAR)


def classify_cycle(g: GainGraph, cycle: "CycleRecord | tuple[int, ...]") -> CycleType:
    """Type of one cycle of g. A vertex sequence is validated as a cycle of g;
    a CycleRecord already carries its gain product, which is used as is.

    A rational-angle gain exp(2 pi i k/q) is typed in integers: an odd cycle
    is imaginary iff 4k is q or 3q, and its real part is positive iff
    4k < q or 4k > 3q. TYPE_TOL serves float gains only."""
    rec = cycle if isinstance(cycle, CycleRecord) else cycle_record(g, tuple(cycle))
    l = rec.length
    if l % 2 == 0:
        target, gain = Gain.from_angle(l // 2, 2), rec.gain
        if gain.q is not None:
            singular = (gain.k, gain.q) == (target.k, target.q)
        else:
            singular = abs(gain.value - target.value) <= TYPE_TOL
        return CycleType.EVEN_SINGULAR if singular else CycleType.EVEN_REGULAR
    gain = rec.gain
    if gain.q is not None:  # exp(2 pi i k/q), decided in integers
        k4, q = 4 * gain.k, gain.q
        if k4 in (q, 3 * q):
            return CycleType.ODD_IMAGINARY
        positive = k4 < q or k4 > 3 * q
    else:
        if abs(gain.real) <= TYPE_TOL:
            return CycleType.ODD_IMAGINARY
        positive = gain.real > 0
    twisted = positive == (((l - 1) // 2) % 2 == 0)
    return CycleType.ODD_POSITIVE if twisted else CycleType.ODD_NEGATIVE


def cycle_inertia(l: int, t: CycleType) -> tuple[int, int]:
    """(positive, negative) eigenvalue counts of a gain cycle of length l, type t."""
    if l < 3:
        raise ValueError(f"cycle length must be at least 3, got {l}")
    if t.is_even != (l % 2 == 0):
        raise ValueError(f"type {t.name} inconsistent with length {l}")
    if t is CycleType.EVEN_SINGULAR:
        return (l - 2) // 2, (l - 2) // 2
    if t is CycleType.EVEN_REGULAR:
        return l // 2, l // 2
    if t is CycleType.ODD_POSITIVE:
        return (l + 1) // 2, (l - 1) // 2
    if t is CycleType.ODD_NEGATIVE:
        return (l - 1) // 2, (l + 1) // 2
    return (l - 1) // 2, (l - 1) // 2


@dataclass(frozen=True)
class BoundReport:
    rank: int
    m: int
    c: int
    lower_basic: int  # 2m - 2c
    upper_basic: int  # 2m + c
    holds_basic: bool
    b: int | None = None
    acyclic_deletion_value: int | None = None
    lower_refined: int | None = None  # 2 * acyclic_deletion_value
    upper_refined: int | None = None  # 2m + b
    holds_refined: bool | None = None


@dataclass(frozen=True)
class StructuralReport:
    """Outcome of the three structural conditions, with failure diagnostics.

    Conditions are checked in order: (disjoint) no two cycles share a vertex,
    (types) every cycle is of the required type, (matching) contracting the
    cycles changes nothing about the matching number away from them. A later
    flag is None when an earlier failure made it unevaluable. Witness vertices
    refer to the graph the report was asked about.
    """

    holds: bool
    first_failure: str | None  # "disjoint" | "types" | "matching" | None
    witness: tuple[int, ...] | None
    cycles_disjoint: bool
    types_ok: bool | None
    matching_ok: bool | None

    def __bool__(self) -> bool:
        return self.holds


@dataclass(frozen=True)
class OptimalityVerdict:
    spectral_lower: bool  # rank == 2m - 2c
    spectral_upper: bool  # rank == 2m + c
    structural_lower: StructuralReport
    structural_upper: StructuralReport
    consistent: bool
    rank: int
    rank_backend: str


@dataclass(frozen=True)
class ComponentFacts:
    """Every invariant of one connected component, computed once. Rank, m
    and c add over components and both extremal characterizations hold
    componentwise, so every report is a function of these records."""

    graph: GainGraph
    kept: tuple[int, ...]  # component vertex id -> parent vertex id
    rank: int
    backend: str
    exact_refused: bool  # exact rank refused past EXACT_PRIME_BUDGET; backend numeric
    m: int
    c: int
    cycles: tuple[tuple[int, ...], ...] | None  # None when two cycles share a vertex
    overlap: tuple[int, ...] | None  # vertices where cycles meet, when cycles is None
    records: tuple[CycleRecord, ...] | None  # each cycle's gain walk, when cycles is set
    types: tuple[CycleType, ...] | None  # one per cycle, when cycles is set
    condition_iii: bool | None  # defined only when cycles are disjoint
    peel: tuple[int, frozenset[int]] | None  # float gains: pendant_pairs' (k, core)


@dataclass(frozen=True)
class GraphFacts:
    """A graph with the facts of each of its components, and their totals."""

    graph: GainGraph
    components: tuple[ComponentFacts, ...]
    rank: int
    m: int
    c: int


def _component_rank(g: GainGraph) -> tuple[int, str, bool]:
    """Rank of a connected piece, exact whenever it can be, its backend,
    and whether the exact rank was refused at the prime budget.

    Gains that are q-th roots of unity get the exact rank mod primes
    p = 1 (mod q). It needs no tolerance: rank mod P <= rank, and p divides
    N(d) for every prime that kills a nonzero minor d, so enough primes for
    the Hadamard bound on N(d) reach the rank. Float gains, and a
    certificate that needs more than EXACT_PRIME_BUDGET primes where one
    prime does not find full rank, get the numeric eigenvalue cut. Small
    graphs with an edge additionally cross-check the exact rank against the
    numeric value; a disagreement is an internal bug, raised as a
    TheoremViolation that carries the component. A lone vertex has exact
    rank 0 with no prime, and takes no cross-check. It never peels, so the
    reduction checks, ranking subgraphs here, meet component_facts' 2k.
    """
    try:
        r = spectral_rank(g, mode="exact")
    except (ValueError, SizeLimitError) as exc:  # float gains, or past the prime budget
        return inertia(hermitian_adjacency(g)).rank, "numeric", isinstance(exc, SizeLimitError)
    if g.n > CROSS_CHECK_LIMIT or not g.edges:
        return r, "exact", False
    numeric = inertia(hermitian_adjacency(g)).rank
    if numeric != r:
        raise TheoremViolation(
            f"rank backends disagree on n={g.n}: exact={r}, numeric={numeric}",
            instance=serialize_gain_graph(g),
        )
    return r, "exact", False


def component_facts(g: GainGraph) -> GraphFacts:
    """Facts of every connected component of g, from one pass over them.

    A float-gain component its k pendant pairs cover has rank 2k by the
    pendant lemma (spectral.pendant_peel), with no eigensolve. The pairs are
    then a matching and their supports a cover, so k = m, checked against
    the blossom. A forest meets condition (iii): it contracts nothing.
    """
    out = []
    for sub, kept in g.components():
        G = sub.underlying()
        m = matching_number(G)
        peel = pendant_pairs(sub) if any(e.gain.q is None for e in sub.edges) else None
        covered = peel is not None and not peel[1]  # the pairs leave no edge
        if covered and peel[0] != m:
            msg = f"{peel[0]} pendant pairs cover n={sub.n}, but m={m}"
            raise TheoremViolation(msg, instance=serialize_gain_graph(sub))
        r, backend, refused = (2 * m, "numeric", False) if covered else _component_rank(sub)
        cycles, overlap = cycle_structure(G)
        disjoint = cycles is not None
        records = tuple(cycle_record(sub, v) for v in cycles) if disjoint else None
        cond = not cycles or cycle_matching_condition(G, cycles)[0] if disjoint else None
        out.append(ComponentFacts(
            graph=sub, kept=kept, rank=r, backend=backend, exact_refused=refused,
            m=m, c=cyclomatic_number(G), cycles=cycles, overlap=overlap, records=records,
            types=tuple(classify_cycle(sub, rec) for rec in records) if disjoint else None,
            condition_iii=cond,
            peel=peel,
        ))
    return GraphFacts(
        g, tuple(out), sum(f.rank for f in out), sum(f.m for f in out), sum(f.c for f in out)
    )


def _facts(g: GainGraph | GraphFacts) -> GraphFacts:
    """Every check takes a graph, or its facts when the caller has them."""
    return g if isinstance(g, GraphFacts) else component_facts(g)


def _graph(g: GainGraph | GraphFacts) -> GainGraph:
    return g.graph if isinstance(g, GraphFacts) else g


def graph_rank(g: GainGraph | GraphFacts) -> tuple[int, str]:
    """Rank summed over components, with the set of backends that produced it."""
    facts = _facts(g)
    backends = sorted({f.backend for f in facts.components})
    return facts.rank, "+".join(backends) if backends else "trivial"


def check_rank_bounds(g: GainGraph | GraphFacts) -> BoundReport:
    """Rank against 2m-2c and 2m+c. Valid componentwise, hence globally."""
    f = _facts(g)
    lower, upper = 2 * f.m - 2 * f.c, 2 * f.m + f.c
    return BoundReport(
        rank=f.rank, m=f.m, c=f.c,
        lower_basic=lower, upper_basic=upper,
        holds_basic=lower <= f.rank <= upper,
    )


def check_refined_bounds(g: GainGraph | GraphFacts) -> BoundReport:
    """Adds the transversal upper bound and the acyclic-deletion lower bound.

    The refined interval always sits inside the basic one; that containment
    is asserted because it is proven, not observed. The two searches run
    first, so a graph past their size limit fails before any rank is taken.
    """
    G = _graph(g).underlying()
    b, _ = odd_cycle_transversal(G)
    adv, _ = max_acyclic_deletion_matching(G)
    base = check_rank_bounds(g)
    lower, upper = 2 * adv, 2 * base.m + b
    if lower < base.lower_basic or upper > base.upper_basic:
        raise TheoremViolation(
            f"refined interval [{lower}, {upper}] escapes basic "
            f"[{base.lower_basic}, {base.upper_basic}]",
            instance=serialize_gain_graph(_graph(g)),
        )
    return replace(
        base, b=b, acyclic_deletion_value=adv,
        lower_refined=lower, upper_refined=upper,
        holds_refined=lower <= base.rank <= upper,
    )


def _structural_component(f: ComponentFacts, accepted: set[CycleType]) -> StructuralReport:
    """One component's report, witnesses given in the parent graph's ids."""

    def lift(verts):
        return tuple(f.kept[v] for v in verts)

    if f.cycles is None:
        return StructuralReport(
            holds=False, first_failure="disjoint",
            witness=lift(f.overlap),
            cycles_disjoint=False, types_ok=None, matching_ok=None,
        )
    for verts, t in zip(f.cycles, f.types):
        if t not in accepted:
            return StructuralReport(
                holds=False, first_failure="types", witness=lift(verts),
                cycles_disjoint=True, types_ok=False, matching_ok=None,
            )
    if not f.condition_iii:
        return StructuralReport(
            holds=False, first_failure="matching",
            witness=lift(sorted(v for cyc in f.cycles for v in cyc)),
            cycles_disjoint=True, types_ok=True, matching_ok=False,
        )
    return StructuralReport(
        holds=True, first_failure=None, witness=None,
        cycles_disjoint=True, types_ok=True, matching_ok=True,
    )


def _structural(g: GainGraph | GraphFacts, accepted: set[CycleType]) -> StructuralReport:
    parts = [_structural_component(f, accepted) for f in _facts(g).components]
    failing = [p for p in parts if not p.holds]

    def merged(flags):
        return False if False in flags else None if None in flags else True

    return StructuralReport(
        holds=not failing,
        first_failure=failing[0].first_failure if failing else None,
        witness=failing[0].witness if failing else None,
        cycles_disjoint=all(p.cycles_disjoint for p in parts),
        types_ok=merged([p.types_ok for p in parts]),
        matching_ok=merged([p.matching_ok for p in parts]),
    )


def lower_optimal_structural(g: GainGraph | GraphFacts) -> StructuralReport:
    """Structural test for rank hitting 2m-2c: disjoint singular even cycles
    plus the matching condition. Acyclic components pass vacuously."""
    return _structural(g, {CycleType.EVEN_SINGULAR})


def upper_optimal_structural(g: GainGraph | GraphFacts) -> StructuralReport:
    """Structural test for rank hitting 2m+c: disjoint odd cycles whose gain
    products keep a nonzero real part, plus the matching condition."""
    return _structural(g, {CycleType.ODD_POSITIVE, CycleType.ODD_NEGATIVE})


def verify_equivalence(g: GainGraph | GraphFacts) -> OptimalityVerdict:
    """Spectral extremality versus structural characterization, per component.

    Both spectral equalities and both structural predicates distribute over
    components (rank, matching number, and cyclomatic number are additive),
    so the graph-level flag is the conjunction of component flags.
    """
    facts = _facts(g)
    spectral_lower = all(f.rank == 2 * f.m - 2 * f.c for f in facts.components)
    spectral_upper = all(f.rank == 2 * f.m + f.c for f in facts.components)
    sl = lower_optimal_structural(facts)
    su = upper_optimal_structural(facts)
    r, backend = graph_rank(facts)
    return OptimalityVerdict(
        spectral_lower=spectral_lower,
        spectral_upper=spectral_upper,
        structural_lower=sl,
        structural_upper=su,
        consistent=(spectral_lower == sl.holds) and (spectral_upper == su.holds),
        rank=r,
        rank_backend=backend,
    )


def _rank_and_matching(g: GainGraph) -> tuple[int, int]:
    """Rank and matching number alone, all the reduction checks read of a subgraph."""
    rank = sum(_component_rank(sub)[0] for sub, _ in g.components())
    return rank, matching_number(g.underlying())


def pendant_reduction_check(g: GainGraph | GraphFacts) -> bool | None:
    """Deleting a pendant vertex with its support drops rank by 2 and m by 1.

    None when the graph has no pendant vertex. The pair removed is the
    smallest pendant and its unique neighbour.
    """
    G = _graph(g).underlying()
    pend = pendant_vertices(G)
    if not pend:
        return None
    x = min(pend)
    y = G.neighbors()[x][0]
    sub, _ = _graph(g).delete_vertices((x, y))
    before, (rank, m) = _facts(g), _rank_and_matching(sub)
    return before.rank - rank == 2 and before.m - m == 1


def deletion_bounds_check(g: GainGraph | GraphFacts, v: int) -> bool:
    """One vertex out: rank moves by at most 2 downward, m by at most 1."""
    if not 0 <= v < _graph(g).n:
        raise ValueError(f"vertex {v} out of range")
    sub, _ = _graph(g).delete_vertices((v,))
    before, (rank, m) = _facts(g), _rank_and_matching(sub)
    return 0 <= before.rank - rank <= 2 and 0 <= before.m - m <= 1
