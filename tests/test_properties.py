"""Properties of the state sums on generated signed Gauss codes.

The codes are drawn by hypothesis rather than taken from the catalog: 1-7
crossings, 1-3 components, a random pairing of the passes into crossings,
random O/U roles and random signs.
"""

from hypothesis import given, strategies as st
import oracle
from oracle import bracket_chunk

from vknot.analysis import _bracket_sum, certify, surface_bracket
from vknot.bracket import StateTables, bracket_partial, f_polynomial, kauffman_bracket
from vknot.diagram import VirtualLinkDiagram, mirror, parse_gauss_code
from vknot.frontier import state_sum
from vknot.laurent import LOOP_VALUE
from vknot.surface import build_carter_surface, genus


@st.composite
def gauss_codes(draw) -> str:
    """A valid signed Gauss code: the 2n shuffled O/U passes cut into 1-3
    non-empty words."""
    n = draw(st.integers(1, 7))
    passes = draw(st.permutations([f"{role}{c}" for c in range(1, n + 1) for role in "OU"]))
    signs = draw(st.lists(st.sampled_from("+-"), min_size=n, max_size=n))
    n_words = draw(st.integers(1, min(3, 2 * n)))
    cuts = draw(st.lists(st.integers(1, 2 * n - 1), min_size=n_words - 1, max_size=n_words - 1, unique=True))
    bounds = [0, *sorted(cuts), 2 * n]
    return ";".join(
        "".join(p + signs[int(p[1:]) - 1] for p in passes[a:b]) for a, b in zip(bounds, bounds[1:])
    )


@given(gauss_codes())
def test_generated_codes_are_valid(code):
    d = parse_gauss_code(code)
    assert 1 <= d.n_crossings <= 7 and 1 <= len(code.split(";")) <= 3


@given(gauss_codes())
def test_full_bracket_sweep_matches_state_order_oracle(code):
    rep = build_carter_surface(parse_gauss_code(code))
    assert list(_bracket_sum(rep).items()) == list(bracket_chunk(rep).items())


@given(gauss_codes())
def test_collapse_is_d_times_the_planar_bracket(code):
    d = parse_gauss_code(code)
    assert surface_bracket(build_carter_surface(d)).collapse() == LOOP_VALUE * kauffman_bracket(d)


@given(gauss_codes(), st.data())
def test_frontier_sum_is_independent_of_the_crossing_order(code, data):
    d = parse_gauss_code(code)
    tables = StateTables(d)
    result = state_sum(tables)
    for order in (list(reversed(range(tables.n))), data.draw(st.permutations(range(tables.n)))):
        with oracle.crossing_order(order):
            assert state_sum(tables) == result
    assert result == {(): oracle.packed(bracket_partial(d, 0, 1 << d.n_crossings), tables.fields)}


@given(gauss_codes())
def test_mirror_inverts_the_f_polynomial_and_keeps_the_genus(code):
    d = parse_gauss_code(code)
    m = mirror(d)
    assert f_polynomial(m) == f_polynomial(d).substitute_inverse()
    assert genus(m) == genus(d)


@given(gauss_codes(), st.data())
def test_relabelling_crossings_keeps_the_verdict_and_genus(code, data):
    d = parse_gauss_code(code)
    ids = d.crossing_ids
    relabel = dict(zip(ids, data.draw(st.permutations(ids))))
    comps = tuple(tuple(p._replace(crossing=relabel[p.crossing]) for p in comp) for comp in d.components)
    r = VirtualLinkDiagram(comps, {relabel[c]: s for c, s in d.signs.items()}, d.free_loops)
    assert genus(r) == genus(d)
    assert str(certify(r)) == str(certify(d))
