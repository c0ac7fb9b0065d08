"""Kauffman bracket state sums, writhe normalisation, and the Jones polynomial.

The bracket here is the planar (reduced) one: loops are counted
abstractly from the Gauss code, a crossingless one-component diagram
evaluates to 1, and each further loop contributes d = -A^2 - A^-2.  The
sum over the 2^n smoothings is evaluated by the frontier sweep of
`vknot.frontier`, which adds one crossing at a time and merges the
partial states that pair the open arc ends alike, so its cost follows
the width of the diagram rather than 2^n.  `bracket_partial` keeps the
state-by-state sum as the reference the sweep is tested against.  The
sweep carries the un-reduced sum, with d per loop, as one packed polynomial
(`frontier.packed_fields`); `kauffman_bracket` divides it by d exactly
(`frontier.divide_by_d`) and reads it with `frontier.read_packed`, the
reader of every state sum.  The
surface-level (un-reduced) convention lives in `vknot.analysis`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .diagram import (
    SmoothingType,
    VirtualLinkDiagram,
    arc_ends,
    smooth_crossing,
    writhe,
)
from .frontier import divide_by_d, packed_fields, read_packed, state_sum
from .laurent import LOOP_VALUE, LaurentPoly

if TYPE_CHECKING:
    from .tangle import Tangle


class StateTables:
    """The smoothing joins of a diagram or tangle, as flat arrays: the input
    of the frontier sweeps of every state sum and of the state-by-state loop
    tracer of the reference sum `bracket_partial`.

    Arc ends are numbered by `diagram.arc_ends`: 2*arc (tail, leaving a
    pass) and 2*arc + 1 (head, arriving at the next pass).  In a crossing's
    counterclockwise rotation (r0, r1, r2, r3) the A-smoothing joins r0-r3
    and r1-r2 and the B-smoothing joins r0-r1 and r2-r3, for either sign,
    so the B-joins `joins[k][1]` of the k-th crossing in id order are its
    rotation, which the Carter surface reads (`surface.SurfaceRep`).
    A tangle's boundary ends are joined to nothing.  `fields` is the
    layout of the packed values of every sweep of the tables
    (`frontier.packed_fields`), which every reader of them takes.
    """

    def __init__(self, d: VirtualLinkDiagram | Tangle):
        self.n = d.n_crossings
        strands = d.arc_strands
        self.n_arcs, rotation, self.boundary = arc_ends(strands, d.signs)
        self.fields = packed_fields(self.n, len(strands))
        # joins[c] = (A-joins, B-joins), each a 4-tuple (p, q, r, s) meaning p<->q, r<->s
        self.joins = [((r0, r3, r1, r2), (r0, r1, r2, r3)) for r0, r1, r2, r3 in rotation]
        # walks start at the boundary ends, so an open strand is walked from
        # one end to the other, then at the tail ends
        self.starts = self.boundary + list(range(0, 2 * self.n_arcs, 2))

    def trace(self, state: int) -> list[list[int]]:
        """Loops of one state, each as the arc ends it leaves from, in order.

        Bit k of `state` selects the B-smoothing of the k-th crossing.  End
        2a runs arc a forward, end 2a + 1 backward.  A boundary end is its
        own partner, so a walk along an open strand stops at its far end.
        The open strands come first: each starts at a boundary end, and the
        arc of its last end e arrives at the other boundary end, e ^ 1.
        """
        partner = [0] * (2 * self.n_arcs)
        for b in self.boundary:
            partner[b] = b
        for k in range(self.n):
            p, q, r, s = self.joins[k][(state >> k) & 1]
            partner[p], partner[q] = q, p
            partner[r], partner[s] = s, r
        seen = [False] * (2 * self.n_arcs)
        loops: list[list[int]] = []
        for start in self.starts:
            if seen[start]:
                continue
            loop: list[int] = []
            end = start
            while not seen[end]:
                seen[end] = True
                seen[end ^ 1] = True
                # traverse the arc from this end to its other end, then the join there
                loop.append(end)
                end = partner[end ^ 1]
            loops.append(loop)
        return loops

    def loop_count(self, state: int) -> int:
        """Number of loops of one state (the walk of the reference sum
        `bracket_partial`)."""
        return len(self.trace(state))


#: d^k at index k, grown on demand; the values never change, so every
#: caller in the process can share them.
_D_POWERS: list[LaurentPoly] = [LaurentPoly.one()]


def d_power(k: int) -> LaurentPoly:
    """The loop value d = -A^2 - A^-2 raised to k >= 0."""
    while len(_D_POWERS) <= k:
        _D_POWERS.append(_D_POWERS[-1] * LOOP_VALUE)
    return _D_POWERS[k]


def bracket_partial(d: VirtualLinkDiagram, start: int, stop: int) -> dict[tuple[int, int], int]:
    """The planar state sum over the state range [start, stop), state by
    state, as counts {(c, loops): number of states}, each state adding
    A^c d^loops (the reference for the sweep, whose packed value is the
    same sum)."""
    tables = StateTables(d)
    n = tables.n
    counts: dict[tuple[int, int], int] = {}
    for state in range(start, stop):
        key = (n - 2 * state.bit_count(), tables.loop_count(state))
        counts[key] = counts.get(key, 0) + 1
    return counts


def kauffman_bracket(d: VirtualLinkDiagram) -> LaurentPoly:
    """Reduced Kauffman bracket: the sum over all 2^n smoothings of
    A^(#alpha - #beta) * d^(loops - 1), evaluated by the frontier sweep.

    The sweep's value has d^loops; every state of a diagram with crossings
    has a loop, so it is divided by d exactly (a remainder raises
    ArithmeticError), then multiplied by d per free loop.  A diagram
    without crossings is d^(free loops - 1), and the empty one 1.
    """
    return tables_bracket(StateTables(d), d.free_loops)


def tables_bracket(tables: StateTables, free: int) -> LaurentPoly:
    """`kauffman_bracket` of the diagram of `tables` with `free` crossingless
    loops (its `free_loops`), for a caller that holds its tables already,
    such as its Carter surface (`surface.SurfaceRep.tables`)."""
    if not tables.n:
        return d_power(max(free - 1, 0))
    return read_packed(divide_by_d(state_sum(tables)[()], tables.fields), tables.fields) * d_power(free)


def f_polynomial(d: VirtualLinkDiagram) -> LaurentPoly:
    """Writhe-normalised bracket (-A)^(-3w) * <K>; invariant under all
    generalized Reidemeister moves."""
    w = writhe(d)
    norm = LaurentPoly.monomial(-3 * w, -1 if w % 2 else 1)
    return norm * kauffman_bracket(d)


def jones(d: VirtualLinkDiagram) -> LaurentPoly:
    """Jones polynomial in the bracket variable A; V_K(t) is read off by
    the substitution t = A^-4 (see jones_in_t)."""
    return f_polynomial(d)


def jones_in_t(p: LaurentPoly) -> LaurentPoly:
    """Convert an A-variable Jones value to the t variable via t = A^-4.

    Raises ValueError when an exponent is not a multiple of 4 (links and
    many virtual knots need fractional t powers).
    """
    terms = {}
    for e, c in p.terms:
        if e % 4:
            raise ValueError(f"exponent {e} not divisible by 4; no integer t-form")
        terms[-e // 4] = c
    return LaurentPoly(terms)


def bracket_by_recursion(d: VirtualLinkDiagram, _memo: dict | None = None) -> LaurentPoly:
    """Independent bracket evaluation by skein recursion on one crossing.

    Serves as an oracle for the state sum; memoised on the diagrams met
    in the recursion (a diagram is hashable and compares exactly).
    """
    memo = _memo if _memo is not None else {}
    if d in memo:
        return memo[d]
    if d.n_crossings == 0:
        result = d_power(max(d.n_components - 1, 0)) if d.n_components else LaurentPoly.one()
    else:
        cid = d.crossing_ids[0]
        a_part = bracket_by_recursion(smooth_crossing(d, cid, SmoothingType.ALPHA), memo)
        b_part = bracket_by_recursion(smooth_crossing(d, cid, SmoothingType.BETA), memo)
        result = a_part.shift(1) + b_part.shift(-1)
    memo[d] = result
    return result
