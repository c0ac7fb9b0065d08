"""The frontier sweep against the state-by-state sums and the skein recursion.

The planar bracket and the tangle expansion are frontier sweeps; here each
is checked against a sum over all 2^n states, and the planar bracket also
against `bracket_by_recursion`.  The state counts, not only the
polynomials, must be equal, and they must not depend on the order of the
crossings.  The state-by-state counts are packed term by term by
tests/oracle.py, so the sweep's packed values are compared as ints.
"""

import os
import random
import subprocess
import sys
import time
from math import comb
from pathlib import Path

import oracle
import pytest
from randgen import random_gauss_code, random_tangle

from vknot import frontier
from vknot.bracket import (
    StateTables,
    bracket_by_recursion,
    bracket_partial,
    f_polynomial,
    kauffman_bracket,
)
from vknot.catalog import catalog, catalog_names, catalog_p_family
from vknot.diagram import parse_gauss_code
from vknot.frontier import greedy_order, state_sum
from vknot.laurent import LOOP_VALUE, LaurentPoly
from vknot.tangle import Matching, Tangle, expand_tangle, format_tangle, parse_tangle


def _random_codes(seed: int = 20261018, count: int = 40) -> list[str]:
    rng = random.Random(seed)
    codes = []
    for _ in range(count):
        n = rng.randint(1, 16)
        codes.append(random_gauss_code(rng, n, rng.randint(1, min(3, 2 * n))))
    return codes


DIAGRAMS = (
    [(name, catalog(name)) for name in catalog_names()]
    + [(f"p_family({n})", catalog_p_family(n)) for n in range(7)]
    + [(code, parse_gauss_code(code)) for code in _random_codes()]
)


def _orders(n: int, seed: int) -> dict[str, list[int]]:
    return {
        "identity": list(range(n)),
        "reversed": list(range(n))[::-1],
        "random": random.Random(seed).sample(range(n), n),
    }


#: Most crossings the state-by-state `bracket_partial` is summed over here:
#: 2^16 states.  Larger inputs (`p_family(6)`, 2^18 states, took seconds)
#: are checked against the recursion alone.
MAX_STATE_SUM_CROSSINGS = 16


@pytest.mark.parametrize("d", [d for _, d in DIAGRAMS], ids=[name for name, _ in DIAGRAMS])
def test_frontier_equals_state_sum_and_recursion(d):
    if d.n_crossings <= MAX_STATE_SUM_CROSSINGS:
        counts = bracket_partial(d, 0, 1 << d.n_crossings)
        tables = StateTables(d)
        assert state_sum(tables) == {(): oracle.packed(counts, tables.fields)}
    assert kauffman_bracket(d) == bracket_by_recursion(d)


def _assert_order_independent(tables: StateTables, seed: int) -> None:
    greedy = greedy_order(tables)
    assert greedy == oracle.greedy_order(tables)
    assert sorted(greedy) == list(range(tables.n))
    result = state_sum(tables)
    for name, order in _orders(tables.n, seed).items():
        with oracle.crossing_order(order):
            assert state_sum(tables) == result, name


@pytest.mark.parametrize("d", [d for _, d in DIAGRAMS], ids=[name for name, _ in DIAGRAMS])
def test_tallies_identical_under_every_order(d):
    _assert_order_independent(StateTables(d), d.n_crossings)


def _recorded_schedule(tables: StateTables) -> list[tuple[int, list, list[int]]]:
    """(k, closes, picked slots) of every step of a sweep of `tables`
    whose steps record their schedule and return the frontier unchanged."""
    steps = []

    def step(front, k, closes, pick, slot):
        steps.append((k, closes, list(pick(range(len(slot))))))
        return front

    frontier._sweep(tables, lambda key: None, step)
    return steps


#: Kink arcs: a closed kink strand, kinks of either sign on one or two
#: components, and one crossing between two one-pass components, where one
#: kink's tail comes before its head in the crossing's ends.
KINK_CODES = ["O1+U1+", "O1-U1-", "O1+U1+O2-U2-", "O1+U1+;O2-U2-", "O1+;U1+", "O1-;U1-"]


def test_sweep_schedule_equals_the_list_pass_reference():
    """`_sweep` hands every step the crossing, the closes and the picked
    slots that `oracle.sweep_schedule` builds by list passes, and its
    order is `oracle.greedy_order`, on seeded codes of 1-3 components,
    seeded tangles, codes with kink arcs and tangles with a crossing-free
    strand."""
    rng = random.Random(37)
    diagrams = [parse_gauss_code(random_gauss_code(rng, rng.randint(1, 14), c)) for c in (1, 2, 3) for _ in range(15)]
    diagrams += [random_tangle(rng, rng.randint(0, 9), rng.choice((2, 4, 6, 8))) for _ in range(40)]
    diagrams += [parse_gauss_code(code) for code in KINK_CODES]
    diagrams += [parse_tangle(text) for text in ("B1B2;O1+U1+", "B1B4;B2B3", "B1O1+U2-B2;B3B4;O2-U1+")]
    early_tails = 0
    for d in diagrams:
        tables = StateTables(d)
        order = greedy_order(tables)
        assert order == oracle.greedy_order(tables), d
        schedule = oracle.sweep_schedule(tables, order)
        assert _recorded_schedule(tables) == schedule, d
        early_tails += sum(ys < x for k, closes, _ in schedule for x, y, ys in closes if y in tables.joins[k][0])
    # the sample covers terminals and a kink whose tail is set before its head
    assert any(StateTables(d).boundary for d in diagrams) and early_tails


PICKER_SLOTS = """
from vknot.frontier import _picker
items = [7, 8, 9]
print(_picker([])(items), _picker([2, 0])(items), _picker([1, 2, 0, 1])(items))
for slots in ([0], [0, 1, 2]):
    try:
        _picker(slots)
    except ValueError as exc:
        print("refused:", exc)
"""


def test_picker_refuses_an_odd_slot_count_under_python_O():
    """A frontier's open ends pair up, so `_picker` reads an even number of
    slots as a tuple, () for none, and refuses an odd count by an if/raise,
    which `python -O` keeps."""
    env = dict(os.environ, PYTHONPATH=str(Path(frontier.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-O", "-c", PICKER_SLOTS], capture_output=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.decode().splitlines() == [
        "() (9, 7) (8, 9, 7, 8)",
        "refused: 1 open slots: a frontier's open ends pair up",
        "refused: 3 open slots: a frontier's open ends pair up",
    ]


@pytest.mark.parametrize("sign", "+-")
def test_kink_chain_fills_the_widest_fields(sign):
    """An m-kink unknot has C(m, b) states with b B-smoothings, all with the
    same loop count, up to m + 1, so the packed value runs through m + 1
    multiplications by d; its bracket is (-A^(+-3))^m."""
    kink = LaurentPoly.monomial(3 if sign == "+" else -3, -1)
    for m in range(61):
        d = parse_gauss_code("".join(f"O{i}{sign}U{i}{sign}" for i in range(1, m + 1)) or "U")
        # the smoothing that splits off a loop: A at a positive kink, B at a
        # negative one; with no kink the one loop is a free loop, not swept
        base = 1 - d.free_loops
        counts = {(m - 2 * b, base + (m - b if sign == "+" else b)): comb(m, b) for b in range(m + 1)}
        tables = StateTables(d)
        assert state_sum(tables) == {(): oracle.packed(counts, tables.fields)}, m
        assert kauffman_bracket(d) == kink**m, m
        if m <= 10:
            assert kauffman_bracket(d) == bracket_by_recursion(d), m


def _sum_by_states(t: Tangle) -> dict[tuple, dict[tuple[int, int], int]]:
    """The expansion's state counts state by state: every state is traced,
    its open strands give the pairing of the boundary ends and the rest are
    closed loops."""
    tables = StateTables(t)
    n = tables.n
    n_open = len(tables.boundary) // 2
    counts: dict[tuple, dict[tuple[int, int], int]] = {}
    for state in range(1 << n):
        loops = tables.trace(state)
        # the first n_open loops start at boundary ends; the rest are closed
        pairs = tuple(sorted(tuple(sorted((ends[0], ends[-1] ^ 1))) for ends in loops[:n_open]))
        slot = counts.setdefault(pairs, {})
        key = (n - 2 * state.bit_count(), len(loops) - n_open)
        slot[key] = slot.get(key, 0) + 1
    return counts


def test_tangle_frontier_equals_state_oracle():
    rng = random.Random(20261018)
    tangles = [random_tangle(rng, rng.randint(0, 9), rng.choice((2, 4, 6, 8))) for _ in range(100)]
    # the sample covers strands without crossings and closed strands
    assert any(s.start is not None and not s.passes for t in tangles for s in t.strands)
    assert any(s.start is None for t in tangles for s in t.strands)
    for i, t in enumerate(tangles):
        by_states = _sum_by_states(t)
        fields = StateTables(t).fields
        packed = {pairs: oracle.packed(c, fields) for pairs, c in by_states.items()}
        assert state_sum(StateTables(t)) == packed, format_tangle(t)
        _assert_order_independent(StateTables(t), i)
        # StateTables(t).boundary holds the start and end of each open strand in turn
        points = [b for s in t.strands if s.start is not None for b in (s.start, s.end)]
        label = dict(zip(StateTables(t).boundary, points))
        expected = {Matching((label[a], label[b]) for a, b in pairs): oracle.expand(c) for pairs, c in by_states.items()}
        assert expand_tangle(t).coefficients == {m: p for m, p in expected.items() if not p.is_zero()}


def test_crossing_free_strands_pair_at_the_start():
    assert expand_tangle(parse_tangle("B1B4;B2B3")).coefficients == {Matching([(1, 4), (2, 3)]): LaurentPoly.one()}
    # a closed kink strand next to a crossing-free one: A closes two loops, B one
    t = parse_tangle("B1B2;O1+U1+")
    tables = StateTables(t)
    assert list(state_sum(tables).values()) == [oracle.packed({(1, 2): 1, (-1, 1): 1}, tables.fields)]
    assert expand_tangle(t).coefficients == {
        Matching([(1, 2)]): LaurentPoly.monomial(1) * LOOP_VALUE**2 + LaurentPoly.monomial(-1) * LOOP_VALUE
    }


@pytest.mark.parametrize("sign", "+-")
def test_kinks_on_an_open_strand(sign):
    """An open strand of m kinks expands to (-A^(+-3))^m on its one
    matching; the fields of `packed_fields` hold the tangle sums of 1-40
    crossings."""
    kink = LaurentPoly.monomial(3 if sign == "+" else -3, -1)
    for m in range(1, 41):
        t = parse_tangle("B1" + "".join(f"O{i}{sign}U{i}{sign}" for i in range(1, m + 1)) + "B2")
        assert expand_tangle(t).coefficients == {Matching([(1, 2)]): kink**m}, m


@pytest.mark.parametrize("sep", ["", ";"], ids=["chain", "split"])
@pytest.mark.parametrize("sign", "+-")
def test_tangle_sums_where_the_most_loops_close(sign, sep):
    """Next to a crossing-free strand, a closed chain of m kinks has a state
    with m + 1 loops and m split curls one with 2m, the most any state of m
    crossings has; the offset M of `packed_fields` keeps every exponent
    positive through them all."""
    kink = LaurentPoly.monomial(3 if sign == "+" else -3, -1)
    for m in range(1, 13):
        t = parse_tangle("B1B2;" + sep.join(f"O{i}{sign}U{i}{sign}" for i in range(1, m + 1)))
        by_states = _sum_by_states(t)
        assert max(k for counts in by_states.values() for _, k in counts) == (2 * m if sep else m + 1)
        tables = StateTables(t)
        assert state_sum(tables) == {pairs: oracle.packed(c, tables.fields) for pairs, c in by_states.items()}, m
        expected = kink**m * LOOP_VALUE ** (m if sep else 1)
        assert expand_tangle(t).coefficients == {Matching([(1, 2)]): expected}, m


def _loop_bound_inputs() -> list:
    """Seeded codes of 1-10 crossings with 1-4 components and seeded
    tangles of 0-9 crossings, for `test_no_state_has_more_loops_than_crossings_plus_strands`."""
    rng = random.Random(20261031)
    diagrams = []
    for n in range(1, 11):
        for components in range(1, 5):
            diagrams.append(parse_gauss_code(random_gauss_code(rng, n, min(components, 2 * n))))
    tangles = [random_tangle(rng, rng.randint(0, 9), rng.choice((2, 4, 6, 8))) for _ in range(40)]
    return diagrams + tangles


def test_no_state_has_more_loops_than_crossings_plus_strands():
    """Every state of n crossings on s strands has at most n + s loops and
    open paths, the bound `frontier.packed_fields` sizes its offset M by:
    every state of seeded codes and tangles is traced.  m split curls,
    alone and next to a crossing-free strand, reach n + c, with c the
    components of the diagram: 2m loops, and 2m loops and one path."""
    for d in _loop_bound_inputs():
        tables = StateTables(d)
        strands = len(d.arc_strands)
        most = max(len(tables.trace(state)) for state in range(1 << tables.n))
        assert most <= tables.n + strands == tables.fields.offset, d
    for m in range(1, 9):
        curls = ";".join(f"O{i}+U{i}+" for i in range(1, m + 1))
        for d, c in ((parse_gauss_code(curls), m), (parse_tangle("B1B2;" + curls), m + 1)):
            tables = StateTables(d)
            assert max(len(tables.trace(state)) for state in range(1 << m)) == m + c == tables.fields.offset, m


def _doc_codes(n: int) -> list[str]:
    """The 8 seeded codes of n crossings that the `frontier` module
    docstring measures."""
    codes = []
    for i in range(8):
        rng = random.Random(f"doc/{n}/{i}")
        codes.append(random_gauss_code(rng, n, rng.randint(1, 2)))
    return codes


@pytest.mark.parametrize("n", [24, 28])
def test_lookahead_cuts_the_planar_keys(n, monkeypatch):
    """On the module docstring's 8 codes of n crossings, `greedy_order`,
    with its lookahead, sweeps at most 0.75 times the keys (summed over
    every step of every sweep) that `oracle.min_growth_order`, without it,
    sweeps, to the same values."""
    counts = []
    step = frontier._step

    def counting(*args):
        out = step(*args)
        counts.append(len(out))
        return out

    monkeypatch.setattr(frontier, "_step", counting)
    tables = [StateTables(parse_gauss_code(code)) for code in _doc_codes(n)]
    greedy = [state_sum(t) for t in tables]
    greedy_keys = sum(counts)
    counts.clear()
    for t, result in zip(tables, greedy):
        with oracle.crossing_order(oracle.min_growth_order(t)):
            assert state_sum(t) == result
    assert greedy_keys <= 0.75 * sum(counts)


def test_f_polynomial_trivial_past_the_state_sum_wall():
    """The twist family has a trivial f-polynomial; up to 46 crossings, where
    a sum over 2^n states could never run, the sweep takes under 5 s."""
    start = time.perf_counter()
    for n in range(21):
        assert f_polynomial(catalog_p_family(n)) == LaurentPoly.one(), n
    assert time.perf_counter() - start < 5.0


def test_pack_is_the_inverse_of_read_packed():
    """Seeded polynomials on the fields of a layout, each coefficient within
    its signed field, read back as packed; an exponent of the wrong parity
    or below field 0 has no field."""
    rng = random.Random(41)
    for _ in range(200):
        fields = frontier.packed_fields(rng.randint(0, 8), rng.randint(1, 4))
        n, width, offset = fields
        half = 1 << (width - 1)
        poly = LaurentPoly(
            {n - 2 * (j - offset): rng.randint(-half, half - 1) for j in rng.sample(range(3 * offset + 2), 4)}
        )
        assert frontier.read_packed(frontier.pack(poly, fields), fields) == poly
    fields = frontier.packed_fields(3, 2)
    assert frontier.pack(LaurentPoly.monomial(3 + 2 * fields.offset), fields) == 1
    for bad in (LaurentPoly.monomial(4), LaurentPoly.monomial(5 + 2 * fields.offset)):
        with pytest.raises(ValueError, match="no field"):
            frontier.pack(bad, fields)
