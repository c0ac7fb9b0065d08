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

A key is the tuple of partner positions of the open ends.  Its counts are
packed into one int: the number of partial states with b B-smoothings and
l closed loops sits in field l * (n + 1) + b, W bits wide, with W = n + 1
rounded up to whole bytes.  A field never holds more than C(n, b) < 2^n
states, so fields never carry into each other.  A smoothing that closes l
loops is then one left shift, by (l * (n + 1) + [B]) * W bits, merging two
keys is one addition, and the fields are read once at the end, from the
int's bytes (Kronecker substitution).  A step lays the open ends and the
crossing's four ends out as slots once, so each key only copies its
partner slots, sets the four joins, closes the arcs and reads the new key
off the surviving slots.

See Makowsky and Marino, The parametrized complexity of knot polynomials,
JCSS 67 (2003), and Bar-Natan, Fast Khovanov homology computations, JKTR
16 (2007), for the same idea.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Hashable, Sequence

if TYPE_CHECKING:
    from .bracket import StateTables

#: The one format of a state sum before expansion: label -> {(c, k): number
#: of states}, each state adding A^c d^k to its label's coefficient
#: (`bracket.expand` turns one label's counts into a polynomial).  Here the
#: label is the pairing of the boundary ends and k the closed-loop count.
StateSum = dict[Hashable, dict[tuple[int, int], int]]

#: Greater than any growth (at most 4), so an added crossing is never the minimum.
_PLACED = 5


def greedy_order(tables: StateTables) -> list[int]:
    """Crossing indices in the order that adds, at each step, the crossing
    leaving the fewest open arc ends (ties: the lowest index).

    Each remaining crossing's growth, the change in the number of open ends
    its addition makes, is kept in a list; adding a crossing changes only
    the growth of the crossings at the far ends of its four arcs.
    """
    where = {x: k for k, (ends, _) in enumerate(tables.joins) for x in ends}
    boundary = set(tables.boundary)
    # +1 for an end whose arc leads to a crossing not yet added, -1 for one
    # that closes an arc to an added one (or to a boundary end), 0 for a kink
    growth = [
        sum(-1 if x ^ 1 in boundary else int(where[x ^ 1] != k) for x in ends)
        for k, (ends, _) in enumerate(tables.joins)
    ]
    order = []
    for _ in range(tables.n):
        k = growth.index(min(growth))
        order.append(k)
        growth[k] = _PLACED
        for x in tables.joins[k][0]:
            j = where.get(x ^ 1)
            if j is not None and growth[j] != _PLACED:
                # the far end of x's arc now closes an arc instead of opening one
                growth[j] -= 2
    return order


def state_sum(tables: StateTables, order: Sequence[int] | None = None) -> StateSum:
    """The state sum of `tables` swept in `order` (default `greedy_order`).

    The result maps the pairing of the boundary ends (empty for a diagram)
    to the number of states with each (c, closed loops).  Every order gives
    the same result; an `order` that is not a permutation of the crossing
    indices raises ValueError.
    """
    n = tables.n
    if order is None:
        order = greedy_order(tables)
    elif sorted(order) != list(range(n)):
        raise ValueError(f"crossing order {list(order)} is not a permutation of range({n})")
    # field l * (n + 1) + b of a packed count, `width` bits wide, holds the
    # partial states with b B-smoothings and l closed loops
    width = 8 * ((n + 8) // 8)
    loop_shift = (n + 1) * width
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
    frontier = {tuple(ends.index(partner[e]) for e in ends): 1}
    for k in order:
        a_joins = tables.joins[k][0]
        placed.update(a_joins)
        # slots: the open ends in order, then the crossing's ends (r0, r3,
        # r1, r2); A joins r0-r3 and r1-r2, B joins r0-r1 and r2-r3
        m = len(ends)
        slot = {e: i for i, e in enumerate(ends)}
        slot.update((x, m + i) for i, x in enumerate(a_joins))
        # arcs from this crossing back to an added one, a kink arc once
        closes = [
            (m + i, slot[x ^ 1])
            for i, x in enumerate(a_joins)
            if x ^ 1 in placed and (x ^ 1 not in a_joins or x & 1)
        ]
        after = [e for e in ends if e < 0 or e ^ 1 not in placed] + [x for x in a_joins if x ^ 1 not in placed]
        survivors = [slot[e] for e in after]
        position = [0] * (m + 4)
        for j, s in enumerate(survivors):
            position[s] = j
        frontier = _step(
            frontier,
            (((m + 1, m, m + 3, m + 2), 0), ((m + 2, m + 3, m, m + 1), width)),
            closes,
            survivors,
            position,
            loop_shift,
        )
        ends = after
    return {
        tuple(sorted((~a, ~ends[i]) for a, i in zip(ends, key) if a > ends[i])): _unpack(packed, n, width)
        for key, packed in frontier.items()
    }


def _step(frontier, smoothings, closes, survivors, position, loop_shift):
    """One crossing added to every key, under each of its smoothings.

    `smoothings` holds, per smoothing, the partners of the crossing's four
    slots and the shift it adds (W for B); `closes` the (crossing slot,
    other slot) of each arc it closes; `survivors` the slots left open, in
    their new order, and `position` each slot's new position.
    """
    out: dict[tuple[int, ...], int] = {}
    for key, packed in frontier.items():
        for joined, shift in smoothings:
            partner = [*key, *joined]
            for x, y in closes:
                u = partner[x]
                if u == y:
                    shift += loop_shift
                else:
                    v = partner[y]
                    partner[u] = v
                    partner[v] = u
            new = tuple([position[partner[s]] for s in survivors])
            out[new] = out.get(new, 0) + (packed << shift)
    return out


def _unpack(packed: int, n: int, width: int) -> dict[tuple[int, int], int]:
    """{(c, closed loops): count} from the nonzero `width`-bit fields of a
    packed count, read in one pass over its bytes."""
    step = width // 8
    data = packed.to_bytes((packed.bit_length() + 7) // 8, "little")
    counts = {}
    for f, i in enumerate(range(0, len(data), step)):
        count = int.from_bytes(data[i : i + step], "little")
        if count:
            loops, b = divmod(f, n + 1)
            counts[n - 2 * b, loops] = count
    return counts
