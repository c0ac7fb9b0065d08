"""Frontier (transfer-matrix) evaluation of the planar state sum, and of
the state sum whose loops carry labels: every state sum of the package.

The crossings of a `bracket.StateTables` are added one at a time.  After
each step the smoothed crossings form paths whose ends are the open arc
ends: ends at an added crossing whose arc runs to a crossing not yet
added.  A tangle's boundary ends are terminal path ends from the start
and stay open to the end.  States that pair the open ends the same way
(the frontier key) continue alike, so the sweep carries, per key, the
sum of A^(#A - #B smoothings) d^(closed loops) over its partial states.

Adding a crossing, for each of its two smoothings: join the smoothing's
two pairs of arc ends, then close every arc whose other end is already
added (a kink arc, with both ends at this crossing, once).  Closing an
arc joins the paths at its two ends; when those are the two ends of one
path, a loop is closed.  The cost is the number of keys times the number
of crossings, and the number of keys is bounded by the number of pairings
of the widest frontier, where a state-by-state sum visits all 2^n states.
Every sweep adds the crossings in `greedy_order`, in which the twist
family `catalog_p_family(n)` has width 4 and at most 2 keys at every n up
to 20.  On 8 random Gauss codes of n = 16, 20, 24 and 28 crossings each
(`rng = random.Random(f"doc/{n}/{i}")` for i < 8, then tests/randgen.py
`random_gauss_code(rng, n, rng.randint(1, 2))`) it reaches widths of at
most 10, 10, 12 and 12 and at most 158, 440, 1148 and 2961 keys, and
steps 2533, 6831, 20240 and 55653 keys in all; without the lookahead that
breaks its ties, the widths are 10, 10, 14 and 14, the peaks 158, 450,
2032 and 5134 keys and the totals 2674, 8156, 43251 and 99432.

A key is the tuple of the partners of the open ends, in order: for each
open end, the arc end (or terminal) at the other end of its path.  Its
value is the ring element itself: the polynomial of the key's partial
states in s = A^-2, packed into one int with signed fields
(`packed_fields`, which also gives the argument that no field overflows
and that a value is 0 exactly when its polynomial is).  A key starts at
s^M, a B-smoothing shifts it up by one field, a closed loop multiplies it
in place by d = -(s + 1/s), and merging two keys is one addition;
`read_packed` reads a value once, at the end (Kronecker substitution).  A
step lays the open ends and the crossing's four ends out as slots once,
so each key only copies its partners into the slots, appends the
crossing's four, closes the arcs, re-pairing the two far ends of each
path an arc joins by one slot lookup each, and reads the new key off the
surviving slots with one `itemgetter` call: a far end keeps its id when
the slots move, so no key is relabelled.

`state_sum` returns this value per boundary pairing: `bracket` divides it
by d (`divide_by_d`), and `tangle` reads one coefficient per
boundary matching from it.  `labelled_state_sum` runs the same sweep with
a second kernel whose keys also hold an int per open end, summed along
the path, and the sorted label elements of the loops closed so far; a
closed loop's int is looked up in a mapping that says whether it weighs d
or which element it adds, and each key keeps the smallest state index that
reaches it, which the result hands out with each label's value.  Its
frontier is grouped by pairing, {pairing: {(path ints, closed labels):
[value, smallest index]}}, since many keys share one pairing (about 10
on random 9-11-crossing codes): which arcs join two paths and which
close a loop, and the new pairing, depend on the pairing alone, so a
step works them out once per pairing and smoothing (the per-pairing
transition) and replays them on each key's ints.  The old
frontier, and each pairing's keys, are emptied as they are read, so the
old and the new frontier are not both held in full.  `analysis` sums both
surface brackets with it: for the d-image the int is the loop's packed
homology class, and for the full bracket the class shifted above bits
that name the loop, so that a loop's weight, disk or not, is known when
it closes.  Every state sum is read by `read_packed`.

See Makowsky and Marino, The parametrized complexity of knot polynomials,
JCSS 67 (2003), and Bar-Natan, Fast Khovanov homology computations, JKTR
16 (2007), for the same idea.
"""

from __future__ import annotations

from operator import itemgetter
from typing import TYPE_CHECKING, Mapping, NamedTuple

from .laurent import LaurentPoly

if TYPE_CHECKING:
    from .bracket import StateTables

#: Greater than any growth (at most 4), so an added crossing is never the
#: minimum; also the lookahead of a crossing with no far end left to add.
_PLACED = 5

#: The `loop_label` of a loop that weighs d in `labelled_state_sum`; every
#: other label element is a nonnegative int.
DISK = -1


def greedy_order(tables: StateTables) -> list[int]:
    """Crossing indices in the order that adds, at each step, the crossing
    leaving the fewest open arc ends; ties go to the crossing c whose
    addition leaves the least growth among the crossings still to add at
    the far ends of c's arcs (`_PLACED` when there are none), then to the
    lowest index.

    A crossing's growth is the change in the number of open ends its
    addition makes: +1 for an end whose arc leads to a crossing not yet
    added, -1 for one that closes an arc to an added one (or to a boundary
    end), 0 for a kink arc.  Each crossing k keeps `far[k]`, the crossing
    at the far end of each of its arcs to another crossing, and the
    remaining crossings' growths are kept in a list: adding k lowers the
    growth at each entry of `far[k]` by 2, as that end now closes an arc,
    and changes no other.  So the lookahead of a tie c reads, at each
    crossing j of `far[c]` still to add, its growth less 2 per arc it
    shares with c.

    Ties are frequent (811 of the 1456 steps of the planar_jones
    workload's sweeps have one), and broken by the lowest index alone they
    leave about twice the keys on the heaviest inputs (the module
    docstring's figures).  The order changes the keys, not the values: a
    state of n crossings on r strands has at most n + r loops, by the
    state-graph argument of `packed_fields`, whatever the order, so one
    packed layout serves every order.
    """
    where = {x: k for k, (ends, _) in enumerate(tables.joins) for x in ends}
    far = [
        [j for j in [where.get(x ^ 1) for x in ends] if j is not None and j != k]
        for k, (ends, _) in enumerate(tables.joins)
    ]
    growth = [len(js) for js in far]
    for b in tables.boundary:
        j = where.get(b ^ 1)
        if j is not None:
            growth[j] -= 1
    order = []
    for _ in range(tables.n):
        least = min(growth)
        k = growth.index(least)
        if growth.count(least) > 1:
            # the lookahead, inlined: ties in index order, a strictly smaller key wins
            key = _PLACED
            for c in [c for c, g in enumerate(growth) if g == least]:
                js = far[c]
                for j in js:
                    if growth[j] != _PLACED:
                        g = growth[j] - 2 * js.count(j)
                        if g < key:
                            key, k = g, c
        order.append(k)
        growth[k] = _PLACED
        for j in far[k]:
            if growth[j] != _PLACED:
                growth[j] -= 2
    return order


def state_sum(tables: StateTables) -> dict[tuple[tuple[int, int], ...], int]:
    """The state sum of `tables`, swept in `greedy_order`.

    The result maps the pairing of the boundary ends (empty for a diagram)
    to the sum of A^(n - 2b) d^k over its states, with b B-smoothings and k
    closed loops, packed as `packed_fields` sets out.
    """
    _, width, offset = tables.fields

    def step(frontier, k, closes, pick, slot):
        r0, r3, r1, r2 = tables.joins[k][0]
        smoothings = (((r3, r0, r2, r1), 0), ((r1, r2, r0, r3), width))
        return _step(frontier, smoothings, closes, pick, slot, width)

    frontier, ends = _sweep(tables, lambda key: {key: 1 << offset * width}, step)
    return {
        tuple(sorted((~a, ~b) for a, b in zip(ends, key) if a > b)): value for key, value in frontier.items()
    }


class PackedFields(NamedTuple):
    """The layout of the values of one sweep (`packed_fields`): its n
    crossings, the field width W in bits and the exponent offset M."""

    n: int
    width: int
    offset: int


def packed_fields(n: int, strands: int) -> PackedFields:
    """The layout of the values of every state sum of n crossings on
    r = `strands` strands (a `StateTables` holds it as `fields`): fields
    W = 2n + r + 2 bits wide and the exponent offset M = n + r.

    A value packs a polynomial sum c_j s^j in s = A^-2 as the int
    sum c_j 2^(W j), with signed c_j.  A state adds s^(M + b) d^k to its
    label's value, for b B-smoothings and k loops that weigh d, with
    d = -(s + 1/s), so the label's polynomial in A is A^n s^-M times the
    value.

    A state has at most n + r loops.  Take the state graph: its vertices
    are the state's loops and, for a tangle, its open paths, and each of
    the n crossings is an edge between the one or two of them that pass
    its smoothing.  Each component of the graph lies in one component of
    the diagram (a set of strands that crossings join, or a strand with no
    crossing), and it is connected there: the loops through a crossing
    share its edge, and a loop runs along whole arcs, so through the
    crossings at both ends of each.  So the graph has c <= r components,
    and a graph of n edges and c components has at most n + c vertices.

    A loop closes onto a partial state with at most n + r - 1 loops, as
    they and the new loop are loops of every state that completes it, so
    its exponents are at least M - (n + r) + 1 = 1: the right shift of the
    multiplication by d drops no term.  The coefficients of d^k sum to 2^k
    in absolute value and at most 2^n states meet at a label, so
    |c_j| <= 2^n 2^(n + r) < 2^(W - 1): each coefficient fits its signed
    field, a value is 0 exactly when every coefficient is (the lowest
    nonzero c_j would leave the int nonzero mod 2^(W (j + 1))), and the
    fields read back uniquely.  The same holds for the value divided by d,
    which has one loop fewer per state.
    """
    return PackedFields(n, 2 * n + strands + 2, n + strands)


def labelled_state_sum(
    tables: StateTables,
    join_ints: Mapping[tuple[int, int], int],
    loop_label: Mapping[int, int],
) -> dict[tuple[int, ...], list[int]]:
    """The state sum of a diagram's `tables` with each loop labelled by
    `loop_label`, swept in `greedy_order`.

    `join_ints[p, q]` is the int (additive) a loop gains when it arrives at
    arc end p, along p's arc, and leaves from end q by a smoothing join, and
    a closed loop whose ints sum to v weighs `loop_label[v]`: d for DISK,
    otherwise the label element it adds.  The result maps the sorted tuple
    of the label elements of a state's loops to [value, index]: the value is
    the sum of A^(n - 2b) d^k over its states, with b B-smoothings and k
    loops of weight d, packed in s = A^-2 as `packed_fields` sets out, so
    every label's polynomial is 0 exactly when its int is; the index is the
    smallest state index that reaches the label (bit k of an index is the
    B-smoothing of crossing k).  The labels are listed in the order of that
    index, zero-valued ones included.  `loop_label` is
    read once per closed loop; a mapping that fills itself on a miss
    (`__missing__`) sees each distinct v there first.

    A key adds to the planar one (its pairing, under which the frontier
    groups the keys) the int of each open path, stored at its open ends:
    at end u the int of the path entered at u, with u's arc, and left at
    its other end, without that end's arc; and the sorted label elements
    of the loops it closed.  A join p-q sets
    `join_ints[p, q]` at p and `join_ints[q, p]` at q.  Closing the arc
    from new end x to old end y = x ^ 1 joins the path (u ... x) to the
    path (y ... v): the int at u gains the int at y, which holds x's arc,
    and the int at v gains the int at x.  When u = y the path closes into
    a loop whose int is the one at y.  A key's value is the polynomial of
    its partial states, starting at s^M: a B-smoothing multiplies it by s,
    a left shift by W, and a loop of weight d by d, in place, as
    -((q << W) + (q >> W)); merging keys adds them.  Each key also keeps
    the smallest state index that reaches it: a B-smoothing of crossing k
    adds 1 << k to the index of every key it continues, so the minimum of
    the merged keys is the minimum over their states.
    """
    if tables.boundary:
        raise ValueError("a labelled state sum takes a diagram, not a tangle")
    _, width, offset = tables.fields

    def step(frontier, k, closes, pick, slot):
        r0, r3, r1, r2 = tables.joins[k][0]
        jc = join_ints
        # the partners and the ints of the ends (r0, r3, r1, r2) under A, then under B
        smoothings = (
            ((r3, r0, r2, r1), (jc[r0, r3], jc[r3, r0], jc[r1, r2], jc[r2, r1]), 0, 0),
            ((r1, r2, r0, r3), (jc[r0, r1], jc[r3, r2], jc[r1, r0], jc[r2, r3]), width, 1 << k),
        )
        return _labelled_step(frontier, smoothings, closes, pick, slot, width, loop_label)

    frontier, _ = _sweep(tables, lambda key: {key: {((), ()): [1 << offset * width, 0]}}, step)
    # every end is closed: one pairing, the empty one, with no path ints
    (entries,) = frontier.values()
    return {closed: entry for (_, closed), entry in sorted(entries.items(), key=lambda item: item[1][1])}


def divide_by_d(value: int, fields: PackedFields) -> int:
    """A value of a state sum laid out by `fields` divided by d exactly: at
    s = 2^W, d = -(2^W + 2^-W), so the quotient q has -2^W value =
    q (1 + 2^(2W)).  A remainder raises ArithmeticError (an if/raise, which
    `python -O` keeps)."""
    width = fields.width
    quotient, rest = divmod(-(value << width), 1 + (1 << 2 * width))
    if rest:
        raise ArithmeticError("state sum is not divisible by d")
    return quotient


def read_packed(value: int, fields: PackedFields) -> LaurentPoly:
    """The polynomial in A of a value of a state sum laid out by `fields`:
    field j holds the coefficient of A^n s^(j - M) = A^(n - 2 (j - M)),
    for the n, W and M of `fields`."""
    n, width, offset = fields
    # the top nonzero field j leaves |value| >= 2^(W j) / 3, so j <= bit_length // W + 1
    signed = SignedFields(width, value.bit_length() // width + 2)
    coeffs = signed.read(signed.biased(value))
    return LaurentPoly({n - 2 * (j - offset): c for j, c in enumerate(coeffs) if c})


class SignedFields:
    """`count` signed fields of `width` bits in one int: the c_k of
    packed = sum c_k 2^(k width) with -2^(width - 1) <= c_k < 2^(width - 1),
    lowest first.

    Adding the bias sum 2^(width - 1) 2^(k width), computed here once, turns
    each c_k into the unsigned field c_k + 2^(width - 1), so each field is
    read by one shift and mask and none borrows from the next; `packed`
    fits exactly when the biased value lies in [0, 2^(width count)), so
    -bias and 2^(width count) - 1 - bias are the ends of the range.  For
    width >= 2 each field's bias is even, so bit k width of a biased int is
    the parity of c_k: `lows`, the sum of 2^(k width), masks those bits.
    """

    __slots__ = ("half", "mask", "total", "bias", "lows", "shifts")

    def __init__(self, width: int, count: int):
        self.half, self.total, self.mask = 1 << (width - 1), width * count, (1 << width) - 1
        self.lows = ((1 << self.total) - 1) // self.mask
        self.bias = self.half * self.lows
        self.shifts = range(0, self.total, width)

    def biased(self, packed: int) -> int:
        """packed + bias, or ArithmeticError when `packed` does not fit."""
        biased = packed + self.bias
        if biased < 0 or biased >> self.total:
            raise ArithmeticError("packed value has bits beyond its last field")
        return biased

    def read(self, biased: int) -> list[int]:
        """The signed fields, lowest first, of a value `biased` returned."""
        half, mask = self.half, self.mask
        return [((biased >> shift) & mask) - half for shift in self.shifts]


def _sweep(tables, start, step):
    """Add the crossings of `tables` in `greedy_order` to the frontier
    `start(key)` of the boundary pairing `key`, one `step(frontier, k,
    closes, pick, slot)` per crossing k; the final frontier and its open
    ends.

    A key holds, for each open end in order, the arc end (or terminal ~b)
    at the other end of its path.  The step's slots are the m open ends in
    order, then the crossing's ends (r0, r3, r1, r2) at m .. m + 3; A joins
    r0-r3 and r1-r2, B joins r0-r1 and r2-r3.  `slot[e]` is the slot of
    each of these ends e, in a list of 4 * n_arcs entries: an arc end
    (below 2 * n_arcs) indexes it from the start and a terminal ~b = -1 - b
    from the end, and the entries of ends no longer open are left as they
    were.  `closes` holds (crossing slot, other end, its slot) of each arc
    the step closes back to an added crossing, a kink arc once; and `pick`
    reads the items at the slots left open, in their new order, as a tuple
    (`_picker`).  A path's far end does not move when the slots do, so the
    partners the step picks are the new key as they stand.
    """
    boundary = tables.boundary
    placed = set(boundary)
    # each boundary end b starts as a path from its terminal ~b, and a
    # strand with no crossings is a path between two terminals at once
    ends: list[int] = []
    partner: dict[int, int] = {}
    for b in boundary:
        ends.append(~b)
        if b ^ 1 in placed:
            partner[~b] = ~(b ^ 1)
        else:
            ends.append(b)
            partner[~b], partner[b] = b, ~b
    frontier = start(tuple([partner[e] for e in ends]))
    slot = [0] * 4 * tables.n_arcs
    for k in greedy_order(tables):
        a_joins = tables.joins[k][0]
        placed.update(a_joins)
        m = len(ends)
        for i, e in enumerate(ends):
            slot[e] = i
        for i, x in enumerate(a_joins):
            slot[x] = m + i
        # arcs from this crossing back to an added one, a kink arc once
        closes = [
            (m + i, x ^ 1, slot[x ^ 1])
            for i, x in enumerate(a_joins)
            if x ^ 1 in placed and (x ^ 1 not in a_joins or x & 1)
        ]
        after = [e for e in ends if e < 0 or e ^ 1 not in placed] + [x for x in a_joins if x ^ 1 not in placed]
        frontier = step(frontier, k, closes, _picker([slot[e] for e in after]), slot)
        ends = after
    return frontier, ends


def _step(frontier, smoothings, closes, pick, slot, width):
    """One crossing added to every key, under each of its smoothings.

    `smoothings` holds, per smoothing, the partners of the crossing's four
    ends and the shift it adds (W for B); `closes`, `pick` and `slot` are
    `_sweep`'s.  The partners are laid out by slot, the key's then the
    crossing's; closing an arc from crossing slot x to the end y at slot
    ys joins the path (u ... x) to the path (y ... v), so the slots of u
    and v take v and u as partners, or, when u is y, closes a loop, which
    multiplies the value by d, with fields `width` bits wide
    (`packed_fields`).  The new key is `pick` of the partners.
    """
    out: dict[tuple[int, ...], int] = {}
    for key, value in frontier.items():
        for joined, shift in smoothings:
            partner = [*key, *joined]
            q = value << shift
            for x, y, ys in closes:
                u = partner[x]
                if u == y:
                    q = -((q << width) + (q >> width))
                else:
                    v = partner[ys]
                    partner[slot[u]] = v
                    partner[slot[v]] = u
            new = pick(partner)
            out[new] = out.get(new, 0) + q
    return out


def _labelled_step(frontier, smoothings, closes, pick, slot, width, loop_label):
    """`_step` for the grouped frontier {pairing: {(path ints, closed
    labels): [packed polynomial, smallest state index]}}: each smoothing
    also holds the ints at the crossing's four slots and the bit it adds to
    the index (1 << k for B); a closed loop whose int is v multiplies the
    value by d when `loop_label[v]` is DISK and adds that label element
    otherwise (`labelled_state_sum`).

    The closes depend on the pairing alone, so per pairing and smoothing
    they are run once, on the partners, and give the new pairing and a
    program that replays them on the ints, which are laid out by slot like
    the partners: a merge (us, ys, vs, x) for each arc joining the paths at
    the slots us and vs, whose ints gain the ints at ys and x, and the slot
    ys of each loop closed.  No later merge reads or writes the ints at a
    closed loop's slots, so its int is read after every merge.  Each entry
    of the pairing then runs the program only, and `pick` reads its new
    path ints as it read the new pairing.  The old frontier, and each
    pairing's entries, are emptied as they are read."""
    out: dict[tuple[int, ...], dict[tuple, list[int]]] = {}
    while frontier:
        key, entries = frontier.popitem()
        moves = []
        for joined, joined_vals, shift, bit in smoothings:
            partner = [*key, *joined]
            merges, loops_at = [], []
            for x, y, ys in closes:
                u = partner[x]
                if u == y:
                    loops_at.append(ys)
                else:
                    v = partner[ys]
                    us, vs = slot[u], slot[v]
                    partner[us] = v
                    partner[vs] = u
                    merges.append((us, ys, vs, x))
            new = pick(partner)
            group = out.get(new)
            if group is None:
                out[new] = group = {}
            moves.append((group, joined_vals, merges, loops_at, shift, bit))
        while entries:
            (vals, closed), (value, index) = entries.popitem()
            for group, joined_vals, merges, loops_at, shift, bit in moves:
                val = [*vals, *joined_vals]
                for us, ys, vs, x in merges:
                    val[us] += val[ys]
                    val[vs] += val[x]
                loops = closed
                q = value << shift
                for ys in loops_at:
                    label = loop_label[val[ys]]
                    if label == DISK:
                        q = -((q << width) + (q >> width))
                    else:
                        loops = (*loops, label)
                if loops is not closed:
                    loops = tuple(sorted(loops))
                new = (pick(val), loops)
                entry = group.get(new)
                if entry is None:
                    group[new] = [q, index | bit]
                else:
                    entry[0] += q
                    if index | bit < entry[1]:
                        entry[1] = index | bit
    return out


def _picker(slots):
    """The function that reads the items at `slots` of a list as a tuple:
    one `itemgetter` call, or () for no slot.  Open ends pair up, so a
    frontier has an even number of slots; an odd count is refused (by an
    if/raise, which `python -O` keeps), as itemgetter of one slot would
    return the item itself."""
    if len(slots) % 2:
        raise ValueError(f"{len(slots)} open slots: a frontier's open ends pair up")
    if slots:
        return itemgetter(*slots)
    return lambda items: ()
