"""Kauffman bracket state sums, writhe normalisation, and the Jones polynomial.

The bracket here is the planar (reduced) one: loops are counted
abstractly from the Gauss code, a crossingless one-component diagram
evaluates to 1, and each further loop contributes d = -A^2 - A^-2.  The
sum over the 2^n smoothings is evaluated by the frontier sweep of
`vknot.frontier`, which adds one crossing at a time and merges the
partial states that pair the open arc ends alike, so its cost follows
the width of the diagram rather than 2^n.  `bracket_partial` keeps the
state-by-state sum as the reference the sweep is tested against.  The
surface-level (un-reduced) convention lives in `vknot.analysis`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Hashable, Iterable

from .diagram import (
    SmoothingType,
    VirtualLinkDiagram,
    arc_ends,
    canonical_code,
    smooth_crossing,
    writhe,
)
from .frontier import state_sum
from .laurent import LOOP_VALUE, LaurentPoly, try_divide_exact

if TYPE_CHECKING:
    from .tangle import Tangle


class StateTables:
    """The smoothing joins of a diagram or tangle, as flat arrays: the input
    of the frontier sweep and of the state-by-state loop tracer.

    Arc ends are numbered by `diagram.arc_ends`: 2*arc (tail, leaving a
    pass) and 2*arc + 1 (head, arriving at the next pass).  In a crossing's
    counterclockwise rotation (r0, r1, r2, r3) the A-smoothing joins r0-r3
    and r1-r2 and the B-smoothing joins r0-r1 and r2-r3, for either sign.
    A tangle's boundary ends are joined to nothing.
    """

    def __init__(self, d: VirtualLinkDiagram | Tangle):
        self.crossings = list(d.crossing_ids)
        self.n = len(self.crossings)
        self.n_arcs, rotation, self.boundary = arc_ends(d.arc_strands, d.signs)
        # joins[c] = (A-joins, B-joins), each a 4-tuple (p, q, r, s) meaning p<->q, r<->s
        self.joins = [((r0, r3, r1, r2), (r0, r1, r2, r3)) for r0, r1, r2, r3 in rotation.values()]
        # join_bits[c][b]: one bit per join of smoothing b, 4 per crossing
        # (the four joins of a crossing are distinct unordered pairs)
        self.join_bits = [
            ((1 << 4 * k, 1 << 4 * k + 1), (1 << 4 * k + 2, 1 << 4 * k + 3)) for k in range(self.n)
        ]
        # walks start at the boundary ends, so an open strand is walked from
        # one end to the other, then at the tail ends
        self.starts = self.boundary + list(range(0, 2 * self.n_arcs, 2))

    def trace(self, state: int) -> list[tuple[int, list[int]]]:
        """Loops of one state as (join key, arc ends) pairs.

        Bit k of `state` selects the B-smoothing of the k-th crossing.  Each
        loop lists the arc ends it leaves from, in order: end 2a runs arc a
        forward, end 2a + 1 backward.  The join key has one bit per join the
        loop passes through, so it names the curve independently of the
        state and of the direction of travel.  A boundary end is its own
        partner, so a walk along an open strand stops at its far end.  The
        open strands come first: each starts at a boundary end, and the arc
        of its last end e arrives at the other boundary end, e ^ 1.
        """
        partner = [0] * (2 * self.n_arcs)
        bit = [0] * (2 * self.n_arcs)
        for b in self.boundary:
            partner[b] = b
        for k in range(self.n):
            b = (state >> k) & 1
            p, q, r, s = self.joins[k][b]
            partner[p], partner[q] = q, p
            partner[r], partner[s] = s, r
            u, v = self.join_bits[k][b]
            bit[p] = bit[q] = u
            bit[r] = bit[s] = v
        seen = [False] * (2 * self.n_arcs)
        loops: list[tuple[int, list[int]]] = []
        for start in self.starts:
            if seen[start]:
                continue
            loop: list[int] = []
            key = 0
            end = start
            while not seen[end]:
                seen[end] = True
                seen[end ^ 1] = True
                # traverse the arc from this end to its other end, then the join there
                loop.append(end)
                key |= bit[end ^ 1]
                end = partner[end ^ 1]
            loops.append((key, loop))
        return loops

    def loop_count(self, state: int) -> int:
        """len(trace(state)), without building the loops (the walk of the
        reference sum `bracket_partial`)."""
        partner = [0] * (2 * self.n_arcs)
        for b in self.boundary:
            partner[b] = b
        for k in range(self.n):
            p, q, r, s = self.joins[k][(state >> k) & 1]
            partner[p], partner[q] = q, p
            partner[r], partner[s] = s, r
        seen = bytearray(2 * self.n_arcs)
        count = 0
        for start in self.starts:
            if seen[start]:
                continue
            count += 1
            end = start
            while not seen[end]:
                seen[end] = True
                seen[end ^ 1] = True
                end = partner[end ^ 1]
        return count


#: d^k at index k, grown on demand; the values never change, so every
#: caller in the process can share them.
_D_POWERS: list[LaurentPoly] = [LaurentPoly.one()]


def d_power(k: int) -> LaurentPoly:
    """The loop value d = -A^2 - A^-2 raised to k >= 0."""
    while len(_D_POWERS) <= k:
        _D_POWERS.append(_D_POWERS[-1] * LOOP_VALUE)
    return _D_POWERS[k]


#: A state sum over a range of states, before expansion: (label, c, k) ->
#: the number of states that add A^c d^k to the coefficient of `label`.
Tally = dict[tuple[Hashable, int, int], int]


def expand_tallies(tallies: Iterable[Tally]) -> dict[Hashable, LaurentPoly]:
    """Merge state tallies and expand them into Laurent polynomials.

    Tallies of disjoint state ranges merge by adding counts; each label then
    gets sum count * A^c * d^k over its keys, and labels whose sum is zero
    are dropped.  Labels keep the order of their first key.  This is the
    only place where a state sum builds `LaurentPoly` objects.
    """
    merged: dict[Hashable, dict[tuple[int, int], int]] = {}
    for tally in tallies:
        for (label, c, k), count in tally.items():
            slot = merged.setdefault(label, {})
            slot[c, k] = slot.get((c, k), 0) + count
    out: dict[Hashable, LaurentPoly] = {}
    for label, slot in merged.items():
        terms: dict[int, int] = {}
        for (c, k), count in slot.items():
            for e, coeff in d_power(k).terms:
                terms[e + c] = terms.get(e + c, 0) + count * coeff
        p = LaurentPoly(terms)
        if not p.is_zero():
            out[label] = p
    return out


def bracket_partial(d: VirtualLinkDiagram, start: int, stop: int) -> Tally:
    """Tally of the planar state sum over the state range [start, stop),
    state by state: the reference for `planar_tally`."""
    tables = StateTables(d)
    n = tables.n
    free = d.free_loops
    tally: Tally = {}
    for state in range(start, stop):
        t = (None, n - 2 * state.bit_count(), max(tables.loop_count(state) + free - 1, 0))
        tally[t] = tally.get(t, 0) + 1
    return tally


def planar_tally(d: VirtualLinkDiagram) -> Tally:
    """Tally of the planar state sum over all 2^n states, by the frontier
    sweep."""
    free = d.free_loops
    tally: Tally = {}
    for (c, loops), count in state_sum(StateTables(d))[()].items():
        t = (None, c, max(loops + free - 1, 0))
        tally[t] = tally.get(t, 0) + count
    return tally


def kauffman_bracket(d: VirtualLinkDiagram) -> LaurentPoly:
    """Reduced Kauffman bracket: the sum over all 2^n smoothings of
    A^(#alpha - #beta) * d^(loops - 1), evaluated by the frontier sweep."""
    return expand_tallies([planar_tally(d)]).get(None, LaurentPoly.zero())


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


def jones_divisibility(v_in_t: LaurentPoly) -> LaurentPoly | None:
    """The Laurent polynomial W with 1 - V = W (1-t)(1-t^3), or None.

    Classical knots always admit such a W; failure for a virtual diagram
    is informative output.
    """
    one_minus_v = LaurentPoly.one() - v_in_t
    if one_minus_v.is_zero():
        return LaurentPoly.zero()
    factor = LaurentPoly({0: 1, 1: -1}) * LaurentPoly({0: 1, 3: -1})
    return try_divide_exact(one_minus_v, factor)


def bracket_by_recursion(d: VirtualLinkDiagram, _memo: dict | None = None) -> LaurentPoly:
    """Independent bracket evaluation by skein recursion on one crossing.

    Serves as an oracle for the state sum; memoised on canonical codes.
    """
    memo = _memo if _memo is not None else {}
    key = canonical_code(d)
    if key is not None and key in memo:
        return memo[key]
    if d.n_crossings == 0:
        result = d_power(max(d.n_components - 1, 0)) if d.n_components else LaurentPoly.one()
    else:
        cid = d.crossing_ids[0]
        a_part = bracket_by_recursion(smooth_crossing(d, cid, SmoothingType.ALPHA), memo)
        b_part = bracket_by_recursion(smooth_crossing(d, cid, SmoothingType.BETA), memo)
        result = a_part.shift(1) + b_part.shift(-1)
    if key is not None:
        memo[key] = result
    return result
