"""The frontier sweep against the state-by-state sums and the skein recursion.

The planar bracket and the tangle expansion are frontier sweeps; here each
is checked against a sum over all 2^n states, and the planar bracket also
against `bracket_by_recursion`.  The tallies, not only the polynomials,
must be equal, and they must not depend on the order of the crossings.
"""

import random
import time

import pytest
from randgen import random_gauss_code, random_tangle

from vknot.bracket import (
    StateTables,
    Tally,
    bracket_by_recursion,
    bracket_partial,
    expand_tallies,
    f_polynomial,
    kauffman_bracket,
    planar_tally,
)
from vknot.catalog import catalog, catalog_names, catalog_p_family
from vknot.diagram import parse_gauss_code
from vknot.frontier import greedy_order, state_sum
from vknot.laurent import LaurentPoly
from vknot.tangle import Matching, Tangle, expand_tangle, expansion_tally, format_tangle, parse_tangle


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


@pytest.mark.parametrize("d", [d for _, d in DIAGRAMS], ids=[name for name, _ in DIAGRAMS])
def test_frontier_equals_state_sum_and_recursion(d):
    tally = planar_tally(d)
    assert tally == bracket_partial(d, 0, 1 << d.n_crossings)
    assert kauffman_bracket(d) == bracket_by_recursion(d)


def _assert_order_independent(tables: StateTables, seed: int) -> None:
    greedy = greedy_order(tables)
    assert sorted(greedy) == list(range(tables.n))
    result = state_sum(tables, greedy)
    for name, order in _orders(tables.n, seed).items():
        assert state_sum(tables, order) == result, name


@pytest.mark.parametrize("d", [d for _, d in DIAGRAMS], ids=[name for name, _ in DIAGRAMS])
def test_tallies_identical_under_every_order(d):
    _assert_order_independent(StateTables(d), d.n_crossings)


def _tally_by_states(t: Tangle) -> Tally:
    """The expansion tally state by state: every state is traced, its open
    strands give the boundary matching and the rest are closed loops."""
    tables = StateTables(t)
    n = tables.n
    points = [b for s in t.strands if s.start is not None for b in (s.start, s.end)]
    label = dict(zip(tables.boundary, points))
    n_open = len(tables.boundary) // 2
    tally: Tally = {}
    for state in range(1 << n):
        loops = tables.trace(state)
        # the first n_open loops start at boundary ends; the rest are closed
        matching = Matching((label[ends[0]], label[ends[-1] ^ 1]) for _, ends in loops[:n_open])
        key = (matching, n - 2 * state.bit_count(), len(loops) - n_open)
        tally[key] = tally.get(key, 0) + 1
    return tally


def test_tangle_frontier_equals_state_oracle():
    rng = random.Random(20261018)
    tangles = [random_tangle(rng, rng.randint(0, 9), rng.choice((2, 4, 6, 8))) for _ in range(100)]
    # the sample covers strands without crossings and closed strands
    assert any(s.start is not None and not s.passes for t in tangles for s in t.strands)
    assert any(s.start is None for t in tangles for s in t.strands)
    for i, t in enumerate(tangles):
        tally = _tally_by_states(t)
        assert expansion_tally(t) == tally, format_tangle(t)
        _assert_order_independent(StateTables(t), i)
        assert expand_tangle(t).coefficients == expand_tallies([tally])


def test_crossing_free_strands_pair_at_the_start():
    assert expansion_tally(parse_tangle("B1B4;B2B3")) == {(Matching([(1, 4), (2, 3)]), 0, 0): 1}
    # a closed kink strand next to a crossing-free one: A closes two loops, B one
    assert expansion_tally(parse_tangle("B1B2;O1+U1+")) == {
        (Matching([(1, 2)]), 1, 2): 1,
        (Matching([(1, 2)]), -1, 1): 1,
    }


def test_f_polynomial_trivial_past_the_state_sum_wall():
    """The twist family has a trivial f-polynomial; up to 46 crossings, where
    a sum over 2^n states could never run, the sweep takes under 5 s."""
    start = time.perf_counter()
    for n in range(21):
        assert f_polynomial(catalog_p_family(n)) == LaurentPoly.one(), n
    assert time.perf_counter() - start < 5.0
