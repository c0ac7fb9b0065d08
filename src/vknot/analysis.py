"""Surface bracket polynomial and non-classicality certification.

A state of an n-crossing diagram, traced on the Carter surface, is a
collection of disjoint simple closed curves.  The surface bracket keeps
the curves that do not bound disks as formal homology-class symbols:

    <(F,K)> = sum over states of A^{c(s)} d^{|s(c)|} [s(c)]

with |s(c)| the number of disk-bounding curves and [s(c)] the multiset
of classes of the rest.  This is the un-reduced convention (a crossingless
unknot contributes d); collapsing every class symbol to d recovers
d * (reduced planar bracket).

`certify` reads its classes from the d-image of the surface bracket
(`d_image_bracket`), which sends the symbol of each null-homologous
essential curve to d.  A curve's weight is then local, d for a zero class
and its symbol otherwise, so the image needs no disk test and is a
frontier sweep (`frontier.labelled_state_sum`): each open path carries its
packed class, each key the sorted classes of its closed nonzero loops, the
smallest state index that reaches it and its polynomial itself, packed in
one int.  Its cost follows the width of the diagram, not 2^n.  A label's
polynomial is zero exactly when its int is, so `certify` takes the classes
of the labels whose int is nonzero and reads no coefficient;
`d_image_bracket` reads those labels only.

The full surface bracket (`surface_bracket`, behind `surface-bracket`)
must tell disk-bounding from null-essential curves, which is not local.
Its sum (`_bracket_sum`) is the one walk over states: it visits all 2^n
states in Gray-code order, so each step flips one crossing and re-walks
only the curves through it (`_GrayWalk`).  A new curve is walked once: one
sum of an int per arc end gives both its homology class, packed into the
high bits, and its join key, in the low 4n bits.  Darts are built and
`loop_homology` runs only once per distinct class up to sign, and for each
null-homologous curve, which alone also needs the disk test.

Both sums give each key one packed polynomial (`frontier.packed_fields`),
keyed by curve-class key, the walk's tally summed into that format at the
end, or by class tuple for the image, and list the keys in the order of
the smallest state index that reaches them, the order of a state-by-state
sum, on which the per-torus witnesses depend.  `surface_bracket` and
`d_image_bracket` read them with one helper (`_surface_bracket`).

Two criteria are checked: the per-torus intersection criterion and the
mod-2 span criterion.  The mod-2 span certifies that no
cancellation curve exists, i.e. that the representation genus is the
virtual genus and the diagram is non-classical and non-trivial.  Per-torus
alone does not: `U6-U5+O4-U1-O5+O6-O1-U2-O2-O8+U4-U8+O7-O3+U3+U7-` meets
it at genus 2, yet Reidemeister moves reduce it to a kink of the unknot.
"""

from __future__ import annotations

import json
from bisect import insort
from types import MappingProxyType
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence

from .bracket import StateTables, d_power
from .diagram import VirtualLinkDiagram, format_gauss_code
from .frontier import labelled_state_sum, packed_fields, read_packed, signed_fields
from .laurent import LaurentPoly
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


_DISK = -1
_NULL_ESSENTIAL = -2


class SurfaceBracket(NamedTuple):
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


class _GrayWalk:
    """The curves of one current state, kept up to date one crossing flip at
    a time, each distinct curve classified once.

    The joins are kept by departure end: a curve that leaves arc end e runs
    along arc e >> 1 to end e ^ 1 and takes the join there, which leaves
    from `nxt[e]`.  `step[e]` is one int for that join: the packed class the
    curve gains there (`_class_steps`), shifted above the 4n join-key bits,
    plus the join's key bit, bits 4k + 2b and 4k + 2b + 1 for the two joins
    of smoothing b of crossing k.  A curve passes each join at most once, so
    its join key is the sum of its bits, names it independently of the
    state and of the direction of travel, and stays below 2^(4n); one sum of
    `step` over a curve's departure ends gives both its packed class
    (`total >> shift`) and its join key (`total & key_mask`).  `curve_of`
    maps each arc to the id of the curve along it, which is the departure
    end its walk started at (-1: not walked yet), and `kind_of` maps a curve
    id to the curve's kind: _DISK, _NULL_ESSENTIAL, or the number of its
    nonzero class in `classes`, numbered by first appearance.  `numbers`
    holds the sorted class numbers of the current curves, and `counts`
    their null-essential and disk counts, packed as (null-essential << 2w)
    + (disks << w) with w = `count_width`; the B count of a state, in the
    low w bits, completes a tally's packed counts.  Flipping a crossing
    drops the one or two curves through it, rewrites its four joins and
    re-walks from its four arc ends only; every other curve is untouched.

    A new curve is walked once.  A nonzero class is looked up by value in
    `class_of_sum`, which holds both signs, and a zero class by join key in
    `curves`.  On a miss `_classify` builds the curve's darts and runs
    `loop_homology` on them, and the disk test for a zero class: once per
    distinct nonzero class up to sign and once per null-homologous curve.
    The class found must pack to the sum up to sign, so also be zero
    exactly when the sum is, or ArithmeticError is raised.  The joins are
    checked once, when the walk is built (`_class_steps`), so no curve is
    re-checked.
    """

    def __init__(self, rep: SurfaceRep, tables: StateTables):
        self.rep = rep
        n_ends = 2 * tables.n_arcs
        steps, self.width = _class_steps(rep, tables)
        self.shift = shift = 4 * tables.n
        self.key_mask = (1 << shift) - 1
        # a state has at most n_arcs curves and n B-smoothings
        self.count_width = w = max(tables.n_arcs, tables.n, 1).bit_length()
        self.disk_unit, self.null_unit = 1 << w, 1 << 2 * w
        # joins[k][b] = (p, q, r, s, p ^ 1, q ^ 1, r ^ 1, s ^ 1, step[p ^ 1],
        # step[q ^ 1], step[r ^ 1], step[s ^ 1]) for smoothing b of crossing k,
        # which joins p<->q and r<->s: a curve arriving at p leaves from q (the
        # four joins of a crossing are distinct unordered pairs)
        self.joins = [
            tuple(
                (p, q, r, s, p ^ 1, q ^ 1, r ^ 1, s ^ 1)
                + tuple(
                    (steps[a, f] << shift) + (1 << 4 * k + 2 * b + i)
                    for a, f, i in ((p, q, 0), (q, p, 0), (r, s, 1), (s, r, 1))
                )
                for b, (p, q, r, s) in enumerate(joins)
            )
            for k, joins in enumerate(tables.joins)
        ]
        # the arcs through each crossing, the same for either smoothing
        self.arcs = [tuple(e >> 1 for e in joins[0][:4]) for joins in self.joins]
        self.classes: list[HomologyClass] = []
        self.class_of_sum: dict[int, int] = {}  # packed class, either sign -> class number
        self.curves: dict[int, int] = {}  # join key of a zero-class curve -> kind
        self.nxt = [0] * n_ends
        self.step = [0] * n_ends
        self.curve_of = [-1] * tables.n_arcs
        self.kind_of = [0] * n_ends
        self.numbers: list[int] = []
        self.counts = 0

    def reset(self, state: int) -> None:
        """Set every join by `state` and walk all of its curves."""
        self.run(((-1, state),))

    def run(self, moves: Iterable[tuple[int, int]], seen: dict | None = None) -> None:
        """Make each move (k, state) in turn: k >= 0 sets crossing k by its
        bit of `state`, k = -1 sets every crossing and walks all curves
        afresh.  With `seen`, count each state reached in it under (class
        numbers, packed counts), with the smallest state index.

        The moves run inline, with no call per state or per curve but one
        for a curve whose kind is not known yet."""
        joins, arcs, nxt, step = self.joins, self.arcs, self.nxt, self.step
        curve_of, kind_of = self.curve_of, self.kind_of
        class_of_sum, curves = self.class_of_sum, self.curves
        shift, key_mask, disk, null = self.shift, self.key_mask, self.disk_unit, self.null_unit
        numbers, counts = self.numbers, self.counts
        for k, state in moves:
            if k >= 0:
                changed = (joins[k][(state >> k) & 1],)
                pa, qa, ra, sa = arcs[k]
                for curve in {curve_of[pa], curve_of[qa], curve_of[ra], curve_of[sa]}:
                    kind = kind_of[curve]
                    if kind >= 0:
                        numbers.remove(kind)
                    elif kind == _DISK:
                        counts -= disk
                    else:
                        counts -= null
            else:
                changed = tuple(js[(state >> c) & 1] for c, js in enumerate(joins))
                curve_of[:] = [-1] * len(curve_of)
                numbers.clear()
                counts = 0
            for p, q, r, s, p1, q1, r1, s1, fp, fq, fr, fs in changed:
                nxt[p1], nxt[q1], nxt[r1], nxt[s1] = q, p, s, r
                step[p1], step[q1], step[r1], step[s1] = fp, fq, fr, fs
                curve_of[p >> 1] = curve_of[q >> 1] = curve_of[r >> 1] = curve_of[s >> 1] = -1
            for join in changed:
                for start in join[:4]:
                    if curve_of[start >> 1] >= 0:
                        continue
                    # walk the new curve through this end once
                    total = 0
                    end = start
                    while True:
                        curve_of[end >> 1] = start
                        total += step[end]
                        end = nxt[end]
                        if end == start:
                            break
                    key = total & key_mask
                    packed = total >> shift
                    if packed:
                        kind = class_of_sum.get(packed)
                        if kind is None:
                            kind = self._classify(start, key, packed)
                    else:
                        # a zero class leaves the join key alone in the sum
                        kind = curves.get(key)
                        if kind is None:
                            kind = self._classify(start, key, 0)
                    kind_of[start] = kind
                    if kind >= 0:
                        insort(numbers, kind)
                    elif kind == _DISK:
                        counts += disk
                    else:
                        counts += null
            if seen is not None:
                t = (tuple(numbers), counts + state.bit_count())
                entry = seen.get(t)
                if entry is None:
                    seen[t] = [1, state]
                else:
                    entry[0] += 1
                    if state < entry[1]:
                        entry[1] = state
        self.counts = counts

    def _classify(self, start: int, key: int, packed: int) -> int:
        """Kind of the curve through departure end `start`, met for the first
        time with join key `key` and packed class sum `packed`: a nonzero
        class is numbered and stored in `class_of_sum`, a zero class is
        disk-tested and stored in `curves`."""
        darts = self._darts(start)
        cls = loop_homology(self.rep, darts)
        if _pack(enumerate(cls.coords), self.width) not in (packed, -packed):
            raise ArithmeticError("packed class sum disagrees with loop_homology")
        if packed:
            kind = self.class_of_sum[packed] = self.class_of_sum[-packed] = len(self.classes)
            self.classes.append(cls)
        else:
            # only a null-homologous curve can bound a disk
            kind = self.curves[key] = _DISK if is_disk_bounding(self.rep, darts) else _NULL_ESSENTIAL
        return kind

    def _darts(self, start: int) -> tuple[int, ...]:
        """The refined-map dart cycle of the current curve through departure
        end `start`: each arc's own dart, the end it leaves from, then the
        quad side `RefinedMap.join_side` gives for the join at its far end."""
        nxt, join_side = self.nxt, self.rep.refined.join_side
        darts: list[int] = []
        end = start
        while True:
            departure = nxt[end]
            darts += (end, join_side[end ^ 1, departure])
            end = departure
            if end == start:
                return tuple(darts)

    def class_tuples(self, tuples: Iterable[tuple[int, ...]]) -> dict[tuple[int, ...], tuple[HomologyClass, ...]]:
        """The canonical sorted multiset of the classes with each distinct
        tuple of class numbers, with the classes ranked by their coordinates
        once for all of them."""
        classes = self.classes
        by_rank = sorted(range(len(classes)), key=lambda i: classes[i].coords)
        rank = [0] * len(classes)
        for r, i in enumerate(by_rank):
            rank[i] = r
        return {
            numbers: tuple(classes[by_rank[r]] for r in sorted(rank[i] for i in numbers))
            for numbers in set(tuples)
        }


def _pack(pairs: Iterable[tuple[int, int]], width: int) -> int:
    """One int holding coordinate k, signed, in bits [k * width, (k + 1) * width),
    from (k, value) pairs."""
    return sum(v << (k * width) for k, v in pairs)


def _class_steps(rep: SurfaceRep, tables: StateTables) -> tuple[dict[tuple[int, int], int], int]:
    """(steps, width): the packed class each directed smoothing join adds to
    a curve through it.

    A curve leaves arc end e along its arc (refined dart e), arrives at end
    e ^ 1 and takes the quad side `RefinedMap.join_side` gives for the join
    to the next end f.  steps[e ^ 1, f] is the sum of both
    darts' `dart_vec`, packed by `_pack`, so a curve's packed class is the
    sum of its steps.  A state curve uses each dart at most once, so no
    coordinate of its class exceeds `bound`, the sum over darts of their
    largest |coefficient|, and fields of `width` bits hold any such
    coordinate or difference of two without carrying: the sum is 0 exactly
    for a null-homologous curve, and two curves have the same sum up to sign
    exactly when they have the same class up to sign.

    Each directed join (8 per crossing) is checked here once: its side dart
    exists, starts where the arc arrives and ends where the next arc leaves,
    so every walk over these joins is a closed walk of refined darts.
    """
    m, join_side, dart_vec = rep.refined.map, rep.refined.join_side, rep.homology.dart_vec
    vertex_of, alpha = m.vertex_of, m.alpha
    bound = sum(max(abs(v) for _, v in vec) for vec in dart_vec if vec)
    width = bound.bit_length() + 1
    packed = [_pack(vec, width) if vec else 0 for vec in dart_vec]
    steps = {}
    for joins in tables.joins:
        for p, q, r, s in joins:
            for arrival, departure in ((p, q), (q, p), (r, s), (s, r)):
                side = join_side.get((arrival, departure))
                if (
                    side is None
                    or vertex_of[side] != vertex_of[alpha[arrival ^ 1]]
                    or vertex_of[departure] != vertex_of[alpha[side]]
                ):
                    raise AssertionError("state loop jumps between crossings")
                steps[arrival, departure] = packed[arrival ^ 1] + packed[side]
    return steps, width


def _gray_moves(m: int) -> Iterator[tuple[int, int]]:
    """The moves (k, gray(j)) for j = 1 .. 2^m - 1, where gray(j) = j ^ (j >> 1)
    and k = (j & -j).bit_length() - 1 is the one bit gray(j) and gray(j - 1)
    differ in, then one more move that returns bit m - 1 to 0, which
    gray(2^m - 1) = 2^(m - 1) has set: from setting 0, every setting once,
    ending back at 0.  With m = 0 that move is the reset (-1, 0).  The moves
    are generated one at a time, so a walk holds none of its 2^m states."""
    for j in range(1, 1 << m):
        yield (j & -j).bit_length() - 1, j ^ (j >> 1)
    yield m - 1, 0


def _bracket_sum(rep: SurfaceRep) -> dict[CurveClassKey, int]:
    """The surface state sum over all 2^n states: curve-class key -> the
    sum of A^(n - 2b) d^disks over its states, packed as
    `frontier.packed_fields` sets out, without the free loops' d^free_loops.

    One Gray walk (`_gray_moves`) visits every state once, each a single
    crossing flip from the last, and tallies it under (sorted class numbers,
    packed counts): the null-essential count, the disk count and the B
    count, `_GrayWalk.count_width` bits each, with the smallest state index
    that reaches it.  Each tally entry then adds count s^(M + b) d^disks to
    its key; a state has at most 2n = M curves, so s^M d^disks is exact.
    Class numbers are local to this walk, so the keys are relabelled
    with class tuples, and emitted in the order of their smallest state
    index: the order of first appearance in state-index order, on which the
    per-torus witnesses depend.
    """
    tables = StateTables(rep.diagram)
    walk = _GrayWalk(rep, tables)
    # (class numbers, packed counts) -> [count, smallest state index]
    seen: dict[tuple[tuple[int, ...], int], list[int]] = {}
    walk.reset(0)
    walk.run(_gray_moves(tables.n), seen)
    w = walk.count_width
    mask = (1 << w) - 1
    width, offset = packed_fields(tables.n)
    # s^M d^k, packed, at index k = 0 .. M
    d_powers = [1 << offset * width]
    for _ in range(offset):
        q = d_powers[-1]
        d_powers.append(-((q << width) + (q >> width)))
    labels = walk.class_tuples(numbers for numbers, _ in seen)
    sums: dict[CurveClassKey, int] = {}
    for (numbers, packed), (count, _) in sorted(seen.items(), key=lambda item: item[1][1]):
        label = (labels[numbers], packed >> 2 * w)
        value = count * d_powers[(packed >> w) & mask] << (packed & mask) * width
        sums[label] = sums.get(label, 0) + value
    return sums


def _surface_bracket(rep: SurfaceRep, sums: Iterable[tuple[CurveClassKey, int]]) -> SurfaceBracket:
    """The bracket of the packed sums (key, value) of `rep`: each nonzero
    value read by `frontier.read_packed`, times d^free_loops."""
    n = rep.diagram.n_crossings
    free = d_power(rep.free_loops)
    entries = {key: read_packed(value, n) * free for key, value in sums if value}
    return SurfaceBracket(entries=entries, genus=rep.genus)


def surface_bracket(rep: SurfaceRep) -> SurfaceBracket:
    """Group all states by curve-class key and sum coefficients."""
    return _surface_bracket(rep, _bracket_sum(rep).items())


def _image_labels(
    rep: SurfaceRep, order: Sequence[int] | None = None
) -> tuple[dict[tuple[int, ...], int], Callable[[int], HomologyClass]]:
    """(labels, unpack): the d-image of the surface bracket as
    `frontier.labelled_state_sum` sums it, each label a sorted tuple of
    packed classes, and the function that reads one packed class.

    The d-image sends each null-homologous essential symbol to d, so a
    curve's weight is d for a zero class and its symbol otherwise: local,
    with no disk test.  `frontier.labelled_state_sum` sweeps it in `order`
    (default the greedy one) with the packed classes of `_class_steps`.
    """
    tables = StateTables(rep.diagram)
    steps, width = _class_steps(rep, tables)
    dim = 2 * rep.genus
    return labelled_state_sum(tables, steps, order), lambda packed: _unpack_class(packed, dim, width)


def _image_sum(rep: SurfaceRep, order: Sequence[int] | None = None) -> dict[tuple[HomologyClass, ...], int]:
    """The d-image of the surface bracket before its polynomials are read:
    sorted class tuple -> the label's packed polynomial (`frontier.packed_fields`),
    without the free loops' d^free_loops, the labels in the order of the
    smallest state index that reaches them, zero-valued ones included."""
    labels, unpack = _image_labels(rep, order)
    classes: dict[int, HomologyClass] = {}
    out = {}
    for label, value in labels.items():
        for packed in label:
            if packed not in classes:
                classes[packed] = unpack(packed)
        out[tuple(sorted([classes[packed] for packed in label]))] = value
    return out


def _image_classes(rep: SurfaceRep) -> list[HomologyClass]:
    """The distinct classes of the labels of the d-image whose packed
    polynomial is nonzero, as `d_image_bracket(rep).nonzero_classes()` lists
    them: by label, in order, and by coordinates within a label.  Each class
    is unpacked once; no polynomial is read."""
    labels, unpack = _image_labels(rep)
    # packed classes are distinct exactly when their classes are
    classes: dict[int, HomologyClass] = {}
    for label, value in labels.items():
        if value:
            new = {packed: None for packed in label if packed not in classes}
            for cls, packed in sorted([(unpack(packed), packed) for packed in new]):
                classes[packed] = cls
    return list(classes.values())


def _unpack_class(packed: int, dim: int, width: int) -> HomologyClass:
    """The class of `dim` signed coordinates packed by `_pack` with fields
    of `width` bits."""
    return HomologyClass.canonical(signed_fields(packed, width, dim))


def d_image_bracket(rep: SurfaceRep) -> SurfaceBracket:
    """The surface bracket with every null-homologous essential symbol sent
    to d: each key's essential count is 0, and `collapse` is unchanged."""
    return _surface_bracket(rep, (((label, 0), value) for label, value in _image_sum(rep).items()))


# -- criteria -------------------------------------------------------------


class CriterionResult(NamedTuple):
    name: str
    satisfied: bool
    witnesses: tuple = ()
    detail: Mapping = MappingProxyType({})  # read-only, so the shared default stays empty

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "satisfied": self.satisfied,
            "witnesses": [list(w) for w in self.witnesses],
            **{k: v for k, v in sorted(self.detail.items())},
        }


def per_torus_criterion(classes: Sequence[HomologyClass], genus: int) -> CriterionResult:
    """For every torus summand, two curve classes with crossing projections.

    `classes` are the classes of the nonzero keys of a bracket, in order
    (`SurfaceBracket.nonzero_classes`).  Satisfied when each k in 1..g has
    classes c_i, c_j with |a_i b_j - a_j b_i| != 0 in the k-th coordinate
    pair.  It is not sufficient for the non-existence of a cancellation
    curve: `U6-U5+O4-U1-O5+O6-O1-U2-O2-O8+U4-U8+O7-O3+U3+U7-` meets it at
    genus 2 with f = 1, and R1 {2}, R2 {5, 6}, R1 {1}, R2 {4, 8} and R1 {7}
    reduce it to the kink `O3+U3+`; its genus is 1 after R2 {5, 6} already.
    `certify` still issues NonClassical on it (ROADMAP item 1).  Only the
    standard symplectic basis is tried: a swap (a, b) -> (b, -a) within
    a torus keeps every a_i b_j - a_j b_i, and a permutation of the tori
    only reorders the per-torus conditions, so no such relabelling
    satisfies the criterion when the standard basis does not.
    """
    name = "per_torus"
    if genus < 1:
        raise ValueError("criterion requires genus >= 1")
    coords = [c.coords for c in classes]
    witnesses = []
    for k in range(genus):
        found = _crossing_pair(coords, k)
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


def mod2_span_criterion(classes: Sequence[HomologyClass], genus: int) -> CriterionResult:
    """The `classes` of the nonzero keys of a bracket span H_1(F; Z/2)."""
    if genus < 1:
        raise ValueError("criterion requires genus >= 1")
    rank = mod2_rank([c.coords for c in classes])
    return CriterionResult("mod2_span", rank == 2 * genus, detail={"rank": rank, "required": 2 * genus})


# -- certificates ---------------------------------------------------------


class Certificate(NamedTuple):
    """Verdict that a diagram is non-classical and non-trivial, or Inconclusive.

    NonClassical(g) claims that the genus-g representation admits no
    cancellation curve, hence g is the virtual genus and the diagram is
    neither trivial nor classical.  The claim holds when the mod-2 span
    criterion is satisfied.  It can be false when only per-torus is: see
    `per_torus_criterion`, whose example is certified NonClassical(2) with
    f = 1 although it is the unknot.  Inconclusive makes no claim: the
    criteria are not necessary.
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


def certify(d: VirtualLinkDiagram) -> Certificate:
    """Run the full pipeline: Carter surface, the d-image of the surface
    bracket (`_image_classes`), both criteria.

    The criteria read the classes that the image keeps: those of the labels
    whose packed polynomial is nonzero, ordered by the smallest state index
    of their labels and by coordinates within a label, as
    `d_image_bracket(rep).nonzero_classes()` lists them.  No coefficient is
    read: a label's polynomial is zero exactly when its int is.  Sending
    the null-homologous essential symbol to d can merge keys and cancel
    coefficients, never create a class, so these classes are a subset of
    those that survive in the full surface bracket.  Both criteria are
    monotone in that set, so a NonClassical verdict from the image holds
    for the full bracket too.
    """
    rep = build_carter_surface(d)
    code = format_gauss_code(d)
    if rep.genus == 0:
        return Certificate("Inconclusive", 0, (), code)
    classes = _image_classes(rep)
    results = (per_torus_criterion(classes, rep.genus), mod2_span_criterion(classes, rep.genus))
    verdict = "NonClassical" if any(r.satisfied for r in results) else "Inconclusive"
    return Certificate(verdict, rep.genus, results, code)
