"""Frontier (transfer-matrix) evaluation of the planar state sum.

The crossings of a `bracket.StateTables` are added one at a time.  After
each step the smoothed crossings form paths whose ends are the open arc
ends: ends at an added crossing whose arc runs to a crossing not yet
added.  A tangle's boundary ends are terminal path ends from the start
and stay open to the end.  States that pair the open ends the same way
(the frontier key) continue alike, so the sweep carries, per key, a count
of partial states by (c, closed loops), with c = #A - #B smoothings.

Adding a crossing, for each of its two smoothings: join the smoothing's
two pairs of arc ends, then close every arc whose other end is already
added (a kink arc, with both ends at this crossing, once).  Closing an
arc joins the paths at its two ends; when those are the two ends of one
path, a loop is closed.  The cost is the number of keys times the number
of crossings, and the number of keys is bounded by the number of pairings
of the widest frontier, where a state-by-state sum visits all 2^n states.
With the greedy order below the twist family `catalog_p_family(n)` has
width 4 and at most 2 keys at every n, and random 1- and 2-component
Gauss codes of 16, 20, 24 and 28 crossings reach widths of at most 10,
12, 14 and 16 and at most 75, 428, 2404 and 8087 keys (8 codes each).

See Makowsky and Marino, The parametrized complexity of knot polynomials,
JCSS 67 (2003), and Bar-Natan, Fast Khovanov homology computations, JKTR
16 (2007), for the same idea.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:
    from .bracket import StateTables

#: Pairs of boundary ends -> {(c, closed loops): number of states}.
FrontierSum = dict[tuple[tuple[int, int], ...], dict[tuple[int, int], int]]


def greedy_order(tables: StateTables) -> list[int]:
    """Crossing indices in the order that adds, at each step, the crossing
    leaving the fewest open arc ends (ties: the lowest index); O(n^2)."""
    where = {x: k for k, (ends, _) in enumerate(tables.joins) for x in ends}
    placed = set(tables.boundary)

    def growth(k: int) -> int:
        # +1 for an end whose arc leads to a crossing not yet added, -1 for
        # one that closes an arc to an added one, 0 for a kink arc
        g = 0
        for x in tables.joins[k][0]:
            if x ^ 1 in placed:
                g -= 1
            elif where.get(x ^ 1) != k:
                g += 1
        return g

    left = list(range(tables.n))
    order = []
    while left:
        k = min(left, key=lambda k: (growth(k), k))
        left.remove(k)
        order.append(k)
        placed.update(tables.joins[k][0])
    return order


def state_sum(tables: StateTables, order: Sequence[int] | None = None) -> FrontierSum:
    """The state sum of `tables` swept in `order` (default `greedy_order`).

    The result maps the pairing of the boundary ends (empty for a diagram)
    to the number of states with each (c, closed loops).  Every order gives
    the same result.
    """
    if order is None:
        order = greedy_order(tables)
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
    frontier = {tuple(ends.index(partner[e]) for e in ends): {(0, 0): 1}}
    for k in order:
        a_joins, b_joins = tables.joins[k]
        placed.update(a_joins)
        # arcs from this crossing back to an added one, a kink arc once
        closes = [(x, x ^ 1) for x in a_joins if x ^ 1 in placed and (x ^ 1 not in a_joins or x & 1)]
        after = [e for e in ends if e < 0 or e ^ 1 not in placed] + [x for x in a_joins if x ^ 1 not in placed]
        frontier = _step(frontier, ends, after, ((a_joins, 1), (b_joins, -1)), closes)
        ends = after
    return {
        tuple(sorted((~a, ~ends[i]) for a, i in zip(ends, key) if a > ends[i])): tally
        for key, tally in frontier.items()
    }


def _step(frontier, before, after, smoothings, closes):
    """One crossing added to every key, under each of its smoothings."""
    pos = {e: i for i, e in enumerate(after)}
    out: dict[tuple[int, ...], dict[tuple[int, int], int]] = {}
    for key, tally in frontier.items():
        for (p, q, r, s), dc in smoothings:
            partner = {e: before[i] for e, i in zip(before, key)}
            partner[p], partner[q], partner[r], partner[s] = q, p, s, r
            loops = 0
            for x, y in closes:
                u = partner.pop(x)
                v = partner.pop(y)
                if u == y:
                    loops += 1
                else:
                    partner[u] = v
                    partner[v] = u
            slot = out.setdefault(tuple(pos[partner[e]] for e in after), {})
            for (c, k), count in tally.items():
                t = (c + dc, k + loops)
                slot[t] = slot.get(t, 0) + count
    return out
