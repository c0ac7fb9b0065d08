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
`d_image_bracket` reads those labels only.  A class is packed with
coordinate 0 in the top field (`_pack`), so the int has the sign of the
first nonzero coordinate and ints compare as classes do: a closed loop
adds abs(packed), its canonical class, and a label's sorted ints are its
sorted classes, in that order, never sorted again.

`certify` keeps the distinct packed ints of those labels (`_ImageClasses`),
checks that each fits its fields, and unpacks a class only when the
per-torus scan reads it; the scan stops once every torus has its pair,
which on most diagrams leaves most classes unread.  The mod-2 span reads
no class: the parity vector of a class is its biased int masked to the
low bit of each field (`_ImageClasses.parities`).

The full surface bracket (`surface_bracket`, behind `surface-bracket`)
must tell disk-bounding from null-essential curves.  On a sphere or a
torus there is nothing to tell: every null-homologous simple closed curve
there bounds a disk.  `rep.genus` is the total over the surface's
components, so at genus <= 1 every component is a sphere or a torus, and
the full bracket is the d-image, keys, values and order.  The paper's
surfaces are of this kind: a classical diagram's Carter surface is a
sphere, and its single virtualizations gave genus <= 1 in every case
tried.  So `surface_bracket` sweeps the d-image at genus <= 1
(`_image_sum`), and checks it as the full sweep checks itself: on the
all-A state and on the first state of each class it keeps, each curve's
packed class must match `loop_homology` (`_check_witness_states`).

At genus >= 2 the disk test is not local to a crossing but depends only
on the curve.  The sum there (`_bracket_sum`) is the same sweep with a
finer int per open path: its packed class shifted above 4n bits that name
the joins it passes (`_CurveLabels`).  A closed curve's int then names the
curve in any state, so its weight is known when it closes and is looked
up by that int: its darts are rebuilt from the join key, and
`loop_homology` runs, once per distinct nonzero class up to sign and once
per null-homologous curve, which alone also needs the disk test.  The
finer ints split the frontier keys further than the image's, so this
sweep has more keys, and they grow fast with the crossings (the
18-crossing braid closure of tests/test_d_image.py takes seconds this way
and milliseconds as a d-image), but it never enumerates the 2^n states
either.

Both sums give each key one packed polynomial, relabelled by one helper
(`_relabel`) to a curve-class key, and list the keys in the order of the
smallest state index that reaches them, the order of a state-by-state
sum, on which the per-torus witnesses depend.  `surface_bracket` and
`d_image_bracket` read them with one helper (`_surface_bracket`), which
takes the layout of the polynomials from the surface's tables
(`StateTables.fields`, `frontier.packed_fields`) and the free loops from
its diagram.

Two criteria are checked: the per-torus intersection criterion and the
mod-2 span criterion.  The mod-2 span certifies that no
cancellation curve exists, i.e. that the representation genus is the
virtual genus and the diagram is non-classical and non-trivial.  Per-torus
alone does not: `U6-U5+O4-U1-O5+O6-O1-U2-O2-O8+U4-U8+O7-O3+U3+U7-` meets
it at genus 2, yet Reidemeister moves reduce it to a kink of the unknot.
"""

from __future__ import annotations

import json
from collections import defaultdict
from itertools import chain
from types import MappingProxyType
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence

from .bracket import d_power
from .diagram import VirtualLinkDiagram, format_gauss_code
from .frontier import DISK, SignedFields, labelled_state_sum, read_packed
from .laurent import LaurentPoly
from .surface import (
    HomologyClass,
    SurfaceRep,
    build_carter_surface,
    is_disk_bounding,
    loop_homology,
)
from .symplectic import mod2_rank, parity_rank

#: Grouping key of the surface bracket: canonical multiset of nonzero
#: homology classes plus the count of null-homologous essential curves.
CurveClassKey = tuple[tuple[HomologyClass, ...], int]


class SurfaceBracket(NamedTuple):
    """Curve-class-keyed coefficients of the un-reduced surface bracket."""

    entries: dict[CurveClassKey, LaurentPoly]
    genus: int
    convention = "unreduced"  # a class attribute, not a field: no bracket has another

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


def _pack(pairs: Iterable[tuple[int, int]], width: int, dim: int) -> int:
    """One int holding coordinate k of `dim`, signed, in bits
    [(dim - 1 - k) * width, (dim - k) * width), from (k, value) pairs:
    coordinate 0 in the top field.

    When a signed field of `width` bits holds every coordinate and 2^width
    exceeds every difference of two (as `_class_steps` chooses it), the
    lower fields sum to less than one unit of the top nonzero one, so the
    int has the sign of the first nonzero coordinate, abs(packed) packs
    `HomologyClass.canonical`, and packed ints compare as their coordinate
    tuples do."""
    return sum(v << ((dim - 1 - k) * width) for k, v in pairs)


def _class_steps(rep: SurfaceRep) -> tuple[dict[tuple[int, int], int], int]:
    """(steps, width): the packed class each directed smoothing join of the
    surface's tables (`SurfaceRep.tables`) adds to a curve through it.

    A curve leaves arc end e along its arc (refined dart e), arrives at end
    e ^ 1 and takes the quad side `RefinedMap.join_side` gives for the join
    to the next end f.  steps[e ^ 1, f] is the sum of both
    darts' `dart_vec`, packed by `_pack`, so a curve's packed class is the
    sum of its steps.  A state curve uses each dart at most once, so no
    coordinate of its class exceeds `bound`, the sum over darts of their
    largest |coefficient|; a signed field of `width` bits holds any such
    coordinate, and 2^width exceeds any difference of two: the sum is 0
    exactly for a null-homologous curve, two curves have the same sum up to
    sign exactly when they have the same class up to sign, and the order of
    the packed ints is the order of the classes (`_pack`).

    Each directed join (8 per crossing) is checked here once: its side dart
    exists, starts where the arc arrives and ends where the next arc leaves,
    so every walk over these joins is a closed walk of refined darts.
    """
    m, dart_vec = rep.refined, rep.homology.dart_vec
    join_side, vertex_of, alpha = m.join_side, m.vertex_of, m.alpha
    # an edge's two darts have opposite classes (`MapHomology.dart_vec`)
    forward = [(d, e, dart_vec[d]) for d, e in m.edges if dart_vec[d]]
    bound = 2 * sum(max(abs(v) for _, v in vec) for _, _, vec in forward)
    width = bound.bit_length() + 1
    dim = 2 * rep.genus
    packed = [0] * m.n_darts
    for d, e, vec in forward:
        packed[d] = p = _pack(vec, width, dim)
        packed[e] = -p
    steps = {}
    for joins in rep.tables.joins:
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


class _ImageLabels(dict):
    """The loop labels of the d-image (`frontier.labelled_state_sum`), keyed
    by packed class: a zero class weighs d (DISK, set when made), any other
    class adds itself up to sign, abs(packed)."""

    def __missing__(self, packed: int) -> int:
        self[packed] = label = abs(packed)
        return label


class _CurveLabels(dict):
    """The loop labels of the full surface bracket, filled one distinct state
    curve at a time: a curve's int -> DISK for a disk-bounding curve, 0 for a
    null-homologous essential one, abs(packed class) otherwise.

    A curve's int is the sum of `join_ints` over its joins: for the join
    p-q of smoothing b = (p, q, r, s) of crossing k of the surface's tables
    (`SurfaceRep.tables`), entered at p,
    (steps[p, q] << 4n) + 2^(4k + 2b), and 2^(4k + 2b + 1) for r-s (steps
    from `_class_steps`).  A curve passes each join at most once, so the
    low 4n bits, its join key, are the sum of its bits: they name it
    independently of the state and of the direction of travel.  The high
    bits hold its packed class.  On a miss the curve is rebuilt from its
    join key (`_darts`), and `loop_homology` runs on it for a zero class
    and for the first curve of each nonzero class up to sign: the class
    found must pack to the curve's up to sign, so also be zero exactly when
    it is, or ArithmeticError is raised.  A zero class then gets the disk
    test; only a null-homologous curve can bound a disk.
    """

    def __init__(self, rep: SurfaceRep):
        super().__init__()
        self.rep = rep
        steps, self.width = _class_steps(rep)
        self.shift = shift = 4 * rep.tables.n
        # join j = 4k + 2b + i: p-q (i = 0) or r-s (i = 1) of smoothing b of crossing k
        self.join_of = [pair for joins in rep.tables.joins for p, q, r, s in joins for pair in ((p, q), (r, s))]
        self.join_ints = {}
        for j, (a, f) in enumerate(self.join_of):
            self.join_ints[a, f] = (steps[a, f] << shift) + (1 << j)
            self.join_ints[f, a] = (steps[f, a] << shift) + (1 << j)
        self.checked: set[int] = set()  # nonzero packed classes up to sign

    def __missing__(self, total: int) -> int:
        packed = total >> self.shift
        label = abs(packed)
        if not packed or label not in self.checked:
            darts = self._darts(total & ((1 << self.shift) - 1))
            _check_class(self.rep, darts, packed, self.width)
            if packed:
                self.checked.add(label)
            elif is_disk_bounding(self.rep, darts):
                label = DISK
        self[total] = label
        return label

    def _darts(self, key: int) -> tuple[int, ...]:
        """The refined-map dart cycle (`_curve_darts`) of the curve with join
        key `key`, from the arc ends it leaves from, in order."""
        departure_of = {}
        while key:
            j = key.bit_length() - 1
            key ^= 1 << j
            a, f = self.join_of[j]
            departure_of[a], departure_of[f] = f, a
        ends = [f]
        while (end := departure_of[ends[-1] ^ 1]) != f:
            ends.append(end)
        return _curve_darts(self.rep, ends)


def _curve_darts(rep: SurfaceRep, ends: Sequence[int]) -> tuple[int, ...]:
    """The refined-map dart cycle of the state curve that leaves from the arc
    ends `ends`, in order: each arc's own dart, the end it leaves from, then
    the quad side `RefinedMap.join_side` gives for the join at its far end
    to the next end."""
    join_side = rep.refined.join_side
    return tuple(d for e, f in zip(ends, [*ends[1:], ends[0]]) for d in (e, join_side[e ^ 1, f]))


def _check_class(rep: SurfaceRep, darts: Sequence[int], packed: int, width: int) -> None:
    """Raise ArithmeticError unless the class `loop_homology` finds for the
    curve `darts` packs (`_pack`, fields of `width` bits) to `packed`, the
    sum of its `_class_steps`, up to sign: so also zero exactly when the
    sum is.  An if/raise, which `python -O` keeps."""
    coords = loop_homology(rep, darts).coords
    if _pack(enumerate(coords), width, len(coords)) not in (packed, -packed):
        raise ArithmeticError("packed class sum disagrees with loop_homology")


def _relabel(
    labels: Mapping[tuple[int, ...], Sequence[int]], unpack: Callable[[int], HomologyClass]
) -> dict[CurveClassKey, int]:
    """The labels of `frontier.labelled_state_sum` as curve-class keys, each
    with its value: the classes of each label's nonzero packed classes, each
    unpacked once, and the count of its 0s (null-essential curves).  A
    label is sorted, and int order is class order (`_pack`), so its classes
    come sorted."""
    classes: dict[int, HomologyClass] = {}
    out = {}
    for label, (value, _) in labels.items():
        zeros = label.count(0)
        for packed in label[zeros:]:
            if packed not in classes:
                classes[packed] = unpack(packed)
        out[tuple([classes[packed] for packed in label[zeros:]]), zeros] = value
    return out


def _bracket_sum(rep: SurfaceRep) -> dict[CurveClassKey, int]:
    """The surface state sum: curve-class key -> the sum of A^(n - 2b)
    d^disks over its states, packed as the surface's tables lay out
    (`StateTables.fields`), without the free loops' d^free_loops.

    `frontier.labelled_state_sum` sweeps the surface's tables, each open
    path carrying the packed class and join key of `_CurveLabels`, so a
    curve's weight is known when it closes.  The keys come in the order of
    their smallest state index, the order of first appearance in
    state-index order, on which the per-torus witnesses depend, zero-valued
    ones included.
    """
    curves = _CurveLabels(rep)
    labels = labelled_state_sum(rep.tables, curves.join_ints, curves)
    return _relabel(labels, _class_reader(2 * rep.genus, curves.width))


def _surface_bracket(rep: SurfaceRep, sums: Mapping[CurveClassKey, int]) -> SurfaceBracket:
    """The bracket of the packed sums {key: value} of `rep`: each nonzero
    value read by `frontier.read_packed` as the surface's tables lay it out
    (`StateTables.fields`), times d^free_loops of its diagram."""
    fields, free = rep.tables.fields, d_power(rep.diagram.free_loops)
    entries = {key: read_packed(value, fields) * free for key, value in sums.items() if value}
    return SurfaceBracket(entries=entries, genus=rep.genus)


def surface_bracket(rep: SurfaceRep) -> SurfaceBracket:
    """Group all states by curve-class key and sum coefficients.

    `rep.genus` is the total over the surface's components, so at genus
    <= 1 each component is a sphere or a torus.  There every
    null-homologous simple closed curve bounds a disk, so no symbol is
    null-essential and the d-image is the full bracket: the same keys,
    values and order of first states, so this equals `d_image_bracket(rep)`
    and is swept as such.  Only at genus >= 2 must a null-homologous curve
    be told from a disk-bounding one, which needs the curve, not its class
    (`_bracket_sum`).  Either sweep checks its classes against
    `loop_homology`."""
    return _surface_bracket(rep, (_image_sum if rep.genus <= 1 else _bracket_sum)(rep))


def _image_sweep(rep: SurfaceRep) -> tuple[dict[tuple[int, ...], list[int]], int, dict[tuple[int, int], int]]:
    """(labels, width, steps): the d-image of the surface bracket as
    `frontier.labelled_state_sum` sums it over the surface's tables
    (`SurfaceRep.tables`), each label a sorted tuple of classes packed by
    `_pack` with fields of `width` bits, with the class steps of
    `_class_steps` it was swept with.

    The d-image sends each null-homologous essential symbol to d, so a
    curve's weight is d for a zero class and its symbol otherwise: it
    depends on the class alone and needs no disk test.
    `frontier.labelled_state_sum` sweeps it with the packed classes of
    `_class_steps` and the labels of `_ImageLabels`.  At genus 0 every class
    is zero: every step is 0 (a `defaultdict(int)`), in fields 1 bit wide,
    and neither the refined map nor its homology is built.
    """
    steps, width = _class_steps(rep) if rep.genus else (defaultdict(int), 1)
    return labelled_state_sum(rep.tables, steps, _ImageLabels({0: DISK})), width, steps


def _image_sum(rep: SurfaceRep) -> dict[CurveClassKey, int]:
    """The d-image of the surface bracket before its polynomials are read:
    curve-class key, each with no null-essential curve -> the label's
    packed polynomial (`StateTables.fields`), without the free loops'
    d^free_loops, the
    labels in the order of the smallest state index that reaches them,
    zero-valued ones included.  Its classes are checked against
    `loop_homology` first (`_check_witness_states`)."""
    labels, width, steps = _image_sweep(rep)
    _check_witness_states(rep, labels, width, steps)
    return _relabel(labels, _class_reader(2 * rep.genus, width))


def _check_witness_states(
    rep: SurfaceRep,
    labels: Mapping[tuple[int, ...], Sequence[int]],
    width: int,
    steps: Mapping[tuple[int, int], int],
) -> None:
    """Check the packed classes of a d-image sweep (`_image_sweep`) against
    `loop_homology` on a few states, as `_CurveLabels` checks the full
    sweep's.

    The states are the all-A state (index 0, the first label's) and, per
    distinct class of the labels whose polynomial is nonzero, the state at
    the smallest index of a label that holds it, which the sweep keeps
    anyway: a curve of that state carries the class.  Each curve of these
    states is traced on the surface's tables (`StateTables.trace`), and
    the class `loop_homology` finds must pack to the sum of its steps up to
    sign (`_check_class`), or ArithmeticError is raised.  So every class
    the bracket keeps is checked on a curve that carries it, and a step
    table that sends every class to 0, which would leave no class to check,
    fails on any curve of the all-A state that is not null-homologous.  At genus 0 every class
    has no coordinate, so there is nothing to check."""
    if not rep.genus:
        return
    first = {}
    for label, (value, index) in labels.items():
        if value:
            for packed in label:
                first.setdefault(packed, index)
    for index in sorted({0, *first.values()}):
        for ends in rep.tables.trace(index):
            packed = sum(steps[e ^ 1, f] for e, f in zip(ends, [*ends[1:], ends[0]]))
            _check_class(rep, _curve_darts(rep, ends), packed, width)


def _image_classes(rep: SurfaceRep) -> _ImageClasses:
    """The distinct classes of the labels of the d-image whose packed
    polynomial is nonzero, as `d_image_bracket(rep).nonzero_classes()` lists
    them: by label, in order, and by coordinates within a label, which is
    the order of the label's sorted packed ints (`_pack`).  Packed classes
    are distinct exactly when their classes are, so each class is kept
    once, as its packed int, and unpacked only when it is read; no
    polynomial is read."""
    labels, width, _ = _image_sweep(rep)
    distinct = dict.fromkeys(chain.from_iterable(label for label, (value, _) in labels.items() if value))
    return _ImageClasses(list(distinct), width, 2 * rep.genus)


class _ImageClasses(Sequence[HomologyClass]):
    """Classes packed by `_pack`, each read (`_class_reader`) when it is
    indexed or iterated over, so a scan that stops early reads a prefix.

    Every int is checked to fit its fields (`frontier.SignedFields.biased`)
    when the sequence is made.  The GF(2) rank needs no class: the fields
    are at least 2 bits wide (`_class_steps` makes them one bit wider than
    a nonzero bound), so bit k width of a biased int is the parity of field
    k, and `parities` holds each biased int masked to those bits
    (`SignedFields.lows`), one GF(2) vector per class.
    """

    def __init__(self, packed: Sequence[int], width: int, dim: int):
        fields = SignedFields(width, dim)
        if packed:
            if width < 2:
                raise ArithmeticError("parity bits need fields of at least 2 bits")
            # every int fits exactly when the smallest and the largest do
            fields.biased(min(packed))
            fields.biased(max(packed))
        bias, lows = fields.bias, fields.lows
        self.parities = [(p + bias) & lows for p in packed]
        self.packed = packed
        self._read = _class_reader(dim, width)

    def __len__(self) -> int:
        return len(self.packed)

    def __getitem__(self, i: int) -> HomologyClass:
        return self._read(self.packed[i])

    def __iter__(self) -> Iterator[HomologyClass]:
        return map(self._read, self.packed)


def _class_reader(dim: int, width: int) -> Callable[[int], HomologyClass]:
    """The function that reads the class of `dim` signed coordinates packed
    by `_pack` with fields of `width` bits (`frontier.SignedFields`), the
    top field first.  A label holds abs(packed), which packs the canonical
    class, so the class is read as it is."""
    fields = SignedFields(width, dim)
    return lambda packed: HomologyClass(tuple(fields.read(fields.biased(packed))[::-1]))


def d_image_bracket(rep: SurfaceRep) -> SurfaceBracket:
    """The surface bracket with every null-homologous essential symbol sent
    to d: each key's essential count is 0, and `collapse` is unchanged.
    At genus <= 1 it is the surface bracket itself (`surface_bracket`)."""
    return _surface_bracket(rep, _image_sum(rep))


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
    witnesses = _crossing_pairs((c.coords for c in classes), genus)
    if None in witnesses:
        return CriterionResult(name, False)
    return CriterionResult(name, True, tuple(witnesses), {"basis": "standard"})


def _crossing_pairs(classes: Iterable[tuple[int, ...]], genus: int) -> list[tuple | None]:
    """Per torus k < genus, (k + 1, c_i, c_j, a_i b_j - a_j b_i) for the
    first pair (i < j) with a nonzero determinant in the k-th coordinate
    pair, or None, in one pass over `classes` that stops once every torus
    has its pair.

    A class of zero projection (a, b) pairs with none, so c_i is the first
    class of nonzero projection, and c_j the first later one not parallel
    to it.  When there is no such c_j, every nonzero projection is parallel
    to c_i's, so to every other: no pair has a nonzero determinant."""
    firsts: list[tuple[int, ...] | None] = [None] * genus
    pairs: list[tuple | None] = [None] * genus
    tori = range(genus)
    for c in classes:
        left = []
        for k in tori:
            a, b = c[2 * k], c[2 * k + 1]
            ci = firsts[k]
            if ci is None:
                if a or b:
                    firsts[k] = c
            else:
                val = ci[2 * k] * b - a * ci[2 * k + 1]
                if val:
                    pairs[k] = (k + 1, ci, c, val)
                    continue
            left.append(k)
        if not left:
            break
        tori = left
    return pairs


def mod2_span_criterion(classes: Sequence[HomologyClass], genus: int) -> CriterionResult:
    """The `classes` of the nonzero keys of a bracket span H_1(F; Z/2).
    The classes `certify` reads carry their parity vectors
    (`_ImageClasses.parities`), so none is unpacked for the rank."""
    if genus < 1:
        raise ValueError("criterion requires genus >= 1")
    if isinstance(classes, _ImageClasses):
        rank = parity_rank(classes.parities)
    else:
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
    convention = "unreduced"  # a class attribute, not a field: no certificate has another

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
    `d_image_bracket(rep).nonzero_classes()` lists them, each unpacked only
    if the per-torus scan reaches it.  No coefficient is read: a label's
    polynomial is zero exactly when its int is.  Sending
    the null-homologous essential symbol to d can merge keys and cancel
    coefficients, never create a class, so these classes are a subset of
    those that survive in the full surface bracket.  Both criteria are
    monotone in that set, so a NonClassical verdict from the image holds
    for the full bracket too.
    """
    return certify_surface(build_carter_surface(d))


def certify_surface(rep: SurfaceRep) -> Certificate:
    """`certify` of the diagram of `rep`, on that Carter surface."""
    code = format_gauss_code(rep.diagram)
    if rep.genus == 0:
        return Certificate("Inconclusive", 0, (), code)
    classes = _image_classes(rep)
    results = (per_torus_criterion(classes, rep.genus), mod2_span_criterion(classes, rep.genus))
    verdict = "NonClassical" if any(r.satisfied for r in results) else "Inconclusive"
    return Certificate(verdict, rep.genus, results, code)
