"""Surface bracket polynomial and non-classicality certification.

A state of an n-crossing diagram, traced on the Carter surface, is a
collection of disjoint simple closed curves.  The surface bracket keeps
the curves that do not bound disks as formal homology-class symbols:

    <(F,K)> = sum over states of A^{c(s)} d^{|s(c)|} [s(c)]

with |s(c)| the number of disk-bounding curves and [s(c)] the multiset
of classes of the rest.  This is the un-reduced convention (a crossingless
unknot contributes d); collapsing every class symbol to d recovers
d * (reduced planar bracket).

Two sufficient criteria certify that no cancellation curve exists, i.e.
that the representation genus is the virtual genus and the diagram is
non-classical and non-trivial: the per-torus intersection criterion and
the mod-2 span criterion.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Sequence

from .bracket import StateTables, Tally, d_power, expand_tallies
from .diagram import VirtualLinkDiagram, format_gauss_code
from .laurent import LaurentPoly
from .parallel import map_state_ranges
from .surface import (
    HomologyClass,
    SurfaceRep,
    build_carter_surface,
    is_disk_bounding,
    loop_homology,
)
from .symplectic import mod2_rank

#: Grouping key of the surface bracket: canonical multiset of nonzero
#: homology classes plus the count of null-homologous essential curves.
CurveClassKey = tuple[tuple[HomologyClass, ...], int]


@dataclass(frozen=True)
class SurfaceState:
    """One smoothing of every crossing, traced on the surface."""

    index: int
    monomial_exp: int  # c(s) = #alpha - #beta
    loops: tuple[tuple[int, ...], ...]  # refined-map dart cycles
    disk_bounding_count: int
    classes: tuple[HomologyClass, ...]  # canonical sorted multiset, nonzero only
    null_essential_count: int

    @property
    def key(self) -> CurveClassKey:
        return (self.classes, self.null_essential_count)

    @property
    def loop_count(self) -> int:
        return self.disk_bounding_count + len(self.classes) + self.null_essential_count


_DISK = -1
_NULL_ESSENTIAL = -2


class _CurveMemo:
    """Every distinct state curve met in one walk over states, classified once.

    Curves are keyed by the tracer's join key.  A curve's kind is _DISK,
    _NULL_ESSENTIAL, or the number of its nonzero class in `classes`
    (numbered by first appearance), so a state's curve-class key is built
    from small ints.  A memo serves one walk and is dropped with it.
    """

    def __init__(self, rep: SurfaceRep):
        self.rep = rep
        self.curves: dict[int, tuple[tuple[int, ...], int]] = {}  # join key -> (darts, kind)
        self.classes: list[HomologyClass] = []
        self._numbers: dict[HomologyClass, int] = {}

    def classify(self, key: int, ends: Sequence[int]) -> tuple[tuple[int, ...], int]:
        """Refined-map dart cycle and kind of a traced loop, stored under `key`."""
        refined = self.rep.refined
        darts: list[int] = []
        k = len(ends)
        for i, end in enumerate(ends):
            # the arc's own dart is the end it leaves from; then the quad side
            # from the end it arrives at to the end the next arc leaves from
            darts.append(end)
            ci, k_arr = refined.position_of[end ^ 1]
            cj, k_dep = refined.position_of[ends[(i + 1) % k]]
            if ci != cj:
                raise AssertionError("state loop jumps between crossings")
            darts.append(refined.side_dart(ci, k_arr, k_dep))
        loop = tuple(darts)
        cls = loop_homology(self.rep, loop)
        if not cls.is_zero():
            kind = self._numbers.setdefault(cls, len(self.classes))
            if kind == len(self.classes):
                self.classes.append(cls)
        # only a null-homologous curve can bound a disk
        elif is_disk_bounding(self.rep, loop):
            kind = _DISK
        else:
            kind = _NULL_ESSENTIAL
        entry = self.curves[key] = (loop, kind)
        return entry

    def class_tuple(self, numbers: Sequence[int]) -> tuple[HomologyClass, ...]:
        """Canonical sorted multiset of the classes with these numbers."""
        return tuple(sorted(self.classes[i] for i in numbers))


def _trace_state(
    memo: _CurveMemo, tables: StateTables, state: int
) -> tuple[list[tuple[int, ...]], int, int, tuple[int, ...]]:
    """(refined loops, disk count, null-essential count, sorted class numbers) of one state."""
    loops = []
    disks = null_essential = 0
    numbers = []
    curves = memo.curves
    for key, ends in tables.trace(state):
        entry = curves.get(key) or memo.classify(key, ends)
        loops.append(entry[0])
        kind = entry[1]
        if kind >= 0:
            numbers.append(kind)
        elif kind == _DISK:
            disks += 1
        else:
            null_essential += 1
    numbers.sort()
    return loops, disks, null_essential, tuple(numbers)


def _classify_state(memo: _CurveMemo, tables: StateTables, state: int) -> SurfaceState:
    loops, disks, null_essential, numbers = _trace_state(memo, tables, state)
    return SurfaceState(
        index=state,
        monomial_exp=tables.n - 2 * state.bit_count(),
        loops=tuple(loops),
        disk_bounding_count=disks + memo.rep.free_loops,
        classes=memo.class_tuple(numbers),
        null_essential_count=null_essential,
    )


def enumerate_surface_states(rep: SurfaceRep) -> list[SurfaceState]:
    """All 2^n surface states, in state-index order."""
    tables = StateTables(rep.diagram)
    memo = _CurveMemo(rep)
    return [_classify_state(memo, tables, s) for s in range(1 << tables.n)]


@dataclass(frozen=True)
class SurfaceBracket:
    """Curve-class-keyed coefficients of the un-reduced surface bracket."""

    entries: dict[CurveClassKey, LaurentPoly]
    genus: int
    convention: str = "unreduced"

    def collapse(self) -> LaurentPoly:
        """Substitute d for every remaining curve symbol (consistency bridge).

        Equals d * (reduced planar bracket) of the diagram.
        """
        total = LaurentPoly.zero()
        for (classes, essential), coeff in self.entries.items():
            total = total + coeff * d_power(len(classes) + essential)
        return total

    def nonzero_classes(self) -> list[HomologyClass]:
        """Distinct nonzero classes over all nonzero-coefficient keys."""
        seen: dict[HomologyClass, None] = {}
        for (classes, _), coeff in self.entries.items():
            if not coeff.is_zero():
                for c in classes:
                    seen.setdefault(c, None)
        return list(seen)

    def to_json(self) -> dict:
        return {
            "convention": self.convention,
            "genus": self.genus,
            "entries": {
                format_curve_key(key): coeff.to_json()
                for key, coeff in sorted(self.entries.items(), key=lambda kv: format_curve_key(kv[0]))
            },
        }


def format_curve_key(key: CurveClassKey) -> str:
    classes, essential = key
    parts = "".join("(" + ",".join(str(x) for x in c.coords) + ")" for c in classes)
    return (parts or "trivial") + f"|essential={essential}"


def _bracket_chunk(d: VirtualLinkDiagram, start: int, stop: int) -> Tally:
    """Tally of the surface state sum over [start, stop), labelled by curve-class key."""
    rep = build_carter_surface(d)
    tables = StateTables(d)
    memo = _CurveMemo(rep)
    # class numbers are local to this range's memo, so states are tallied by
    # them and the tally is relabelled with class tuples before it leaves
    tally: dict[tuple[tuple[int, ...], int, int, int], int] = {}
    n = tables.n
    for state in range(start, stop):
        _, disks, null_essential, numbers = _trace_state(memo, tables, state)
        t = (numbers, null_essential, n - 2 * state.bit_count(), disks)
        tally[t] = tally.get(t, 0) + 1
    return {
        ((memo.class_tuple(numbers), null_essential), c, disks + rep.free_loops): count
        for (numbers, null_essential, c, disks), count in tally.items()
    }


def surface_bracket(rep: SurfaceRep, parallel: int = 1) -> SurfaceBracket:
    """Group all states by curve-class key and sum coefficients."""
    tallies = map_state_ranges(_bracket_chunk, rep.diagram, 1 << rep.diagram.n_crossings, parallel)
    return SurfaceBracket(entries=expand_tallies(tallies), genus=rep.genus)


# -- criteria -------------------------------------------------------------


@dataclass(frozen=True)
class CriterionResult:
    name: str
    satisfied: bool
    witnesses: tuple = ()
    detail: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "satisfied": self.satisfied,
            "witnesses": [list(w) for w in self.witnesses],
            **{k: v for k, v in sorted(self.detail.items())},
        }


def per_torus_criterion(sb: SurfaceBracket, genus: int) -> CriterionResult:
    """For every torus summand, two curve classes with crossing projections.

    Satisfied when each k in 1..g has classes c_i, c_j from nonzero keys
    with |a_i b_j - a_j b_i| != 0 in the k-th coordinate pair; sufficient
    for the non-existence of a cancellation curve.  Only the standard
    symplectic basis is tried: a swap (a, b) -> (b, -a) within a torus keeps
    every a_i b_j - a_j b_i, and a permutation of the tori only reorders the
    per-torus conditions, so no such relabelling satisfies the criterion
    when the standard basis does not.
    """
    name = "per_torus"
    if genus < 1:
        raise ValueError("criterion requires genus >= 1")
    classes = [c.coords for c in sb.nonzero_classes()]
    witnesses = []
    for k in range(genus):
        found = _crossing_pair(classes, k)
        if found is None:
            return CriterionResult(name, False)
        witnesses.append(found)
    return CriterionResult(name, True, tuple(witnesses), {"basis": "standard"})


def _crossing_pair(classes: list[tuple[int, ...]], k: int) -> tuple | None:
    """(k + 1, c_i, c_j, a_i b_j - a_j b_i) for the first pair with a nonzero
    determinant in the k-th coordinate pair, or None."""
    for i, ci in enumerate(classes):
        for cj in classes[i + 1 :]:
            val = ci[2 * k] * cj[2 * k + 1] - cj[2 * k] * ci[2 * k + 1]
            if val:
                return (k + 1, ci, cj, val)
    return None


def mod2_span_criterion(sb: SurfaceBracket, genus: int) -> CriterionResult:
    """Classes of nonzero keys span H_1(F; Z/2)."""
    if genus < 1:
        raise ValueError("criterion requires genus >= 1")
    classes = sb.nonzero_classes()
    rank = mod2_rank([c.coords for c in classes])
    return CriterionResult("mod2_span", rank == 2 * genus, detail={"rank": rank, "required": 2 * genus})


# -- certificates ---------------------------------------------------------


@dataclass(frozen=True)
class Certificate:
    """Verdict that a diagram is non-classical and non-trivial, or Inconclusive.

    NonClassical(g) certifies that the genus-g representation admits no
    cancellation curve, hence g is the virtual genus and the diagram is
    neither trivial nor classical.  Inconclusive makes no claim: the
    criteria are sufficient, not necessary.
    """

    verdict: str  # "NonClassical" | "Inconclusive"
    genus: int
    criteria: tuple[CriterionResult, ...]
    diagram: str
    convention: str = "unreduced"

    def __str__(self) -> str:
        if self.verdict == "NonClassical":
            return f"NonClassical({self.genus})"
        return "Inconclusive"

    def to_json(self) -> dict:
        return {
            "verdict": self.verdict,
            "genus": self.genus,
            "criteria": [c.to_json() for c in self.criteria],
            "diagram": self.diagram,
            "convention": self.convention,
        }

    def to_json_str(self) -> str:
        return json.dumps(self.to_json(), sort_keys=False)


def certify(d: VirtualLinkDiagram, parallel: int = 1) -> Certificate:
    """Run the full pipeline: surface, surface bracket, both criteria."""
    rep = build_carter_surface(d)
    code = format_gauss_code(d)
    if rep.genus == 0:
        return Certificate("Inconclusive", 0, (), code)
    sb = surface_bracket(rep, parallel=parallel)
    results = (per_torus_criterion(sb, rep.genus), mod2_span_criterion(sb, rep.genus))
    verdict = "NonClassical" if any(r.satisfied for r in results) else "Inconclusive"
    return Certificate(verdict, rep.genus, results, code)


def family_report(n: int) -> Certificate:
    """Certificate for the n-twist member of the modified-Kishino family."""
    from .catalog import catalog_p_family

    return certify(catalog_p_family(n))
