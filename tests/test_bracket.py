"""Bracket polynomial state sum, normalizations, and the skein recursion."""

import pytest

from vknot.bracket import (
    StateTables,
    bracket_by_recursion,
    d_power,
    expand_tallies,
    f_polynomial,
    jones,
    jones_divisibility,
    jones_in_t,
    kauffman_bracket,
)
from vknot.diagram import SmoothingType, VirtualLinkDiagram, parse_gauss_code, smooth_crossing
from vknot.laurent import LOOP_VALUE, LaurentPoly

TREFOIL = parse_gauss_code("O1+U2+O3+U1+O2+U3+")
FIGURE_EIGHT = parse_gauss_code("O1+U2+O3-U4-O2+U1+O4-U3-")
VIRTUAL_TREFOIL = parse_gauss_code("O1+O2+U1+U2+")
KISHINO = parse_gauss_code("O1+U2-O3+U4-O2-U1+O4-U3+")


def test_unknot_and_unlink():
    assert kauffman_bracket(parse_gauss_code("U")) == LaurentPoly.one()
    assert kauffman_bracket(parse_gauss_code("U;U")) == LOOP_VALUE
    assert kauffman_bracket(parse_gauss_code("U;U;U")) == LOOP_VALUE**2
    # the empty diagram's one state has no loops
    assert kauffman_bracket(VirtualLinkDiagram((), {})) == LaurentPoly.one()


def test_kink_r1_factor():
    pos = kauffman_bracket(parse_gauss_code("O1+U1+"))
    neg = kauffman_bracket(parse_gauss_code("O1-U1-"))
    assert pos == LaurentPoly.monomial(3, -1)
    assert neg == LaurentPoly.monomial(-3, -1)


def test_trefoil_bracket():
    assert kauffman_bracket(TREFOIL) == LaurentPoly({-7: 1, -3: -1, 5: -1})


def test_trefoil_f_polynomial():
    assert f_polynomial(TREFOIL) == LaurentPoly({-4: 1, -12: 1, -16: -1})


def test_figure_eight_f_polynomial_symmetric():
    f = f_polynomial(FIGURE_EIGHT)
    assert f == f.substitute_inverse()
    assert f == LaurentPoly({8: 1, 4: -1, 0: 1, -4: -1, -8: 1})


def test_virtual_trefoil_f_polynomial():
    assert f_polynomial(VIRTUAL_TREFOIL) == LaurentPoly({-4: 1, -6: 1, -10: -1})


def test_kishino_trivial_f_polynomial():
    assert f_polynomial(KISHINO) == LaurentPoly.one()


def test_jones_in_t_trefoil():
    v = jones_in_t(jones(TREFOIL))
    assert v == LaurentPoly({1: 1, 3: 1, 4: -1})


def test_jones_divisibility_classical():
    for d in (TREFOIL, FIGURE_EIGHT):
        assert jones_divisibility(jones_in_t(jones(d))) is not None


def test_skein_identity_at_every_crossing():
    a_mono = LaurentPoly.monomial(1)
    b_mono = LaurentPoly.monomial(-1)
    for d in (TREFOIL, FIGURE_EIGHT, VIRTUAL_TREFOIL, KISHINO):
        for cid in d.crossing_ids:
            lhs = kauffman_bracket(d)
            rhs = a_mono * kauffman_bracket(
                smooth_crossing(d, cid, SmoothingType.ALPHA)
            ) + b_mono * kauffman_bracket(smooth_crossing(d, cid, SmoothingType.BETA))
            assert lhs == rhs, f"skein failed at crossing {cid}"


def test_recursion_matches_state_sum():
    for d in (TREFOIL, FIGURE_EIGHT, VIRTUAL_TREFOIL, KISHINO):
        assert bracket_by_recursion(d) == kauffman_bracket(d)


def test_d_power_table():
    for k in range(6):
        assert d_power(k) == LOOP_VALUE**k
    assert d_power(5) is d_power(5)


def test_expand_tallies_merges_counts_and_drops_zero_sums():
    parts = [
        {("x", 1, 2): 1, ("zero", 0, 1): 1, ("zero", 2, 0): 1},
        {("x", 1, 2): 2, ("zero", -2, 0): 1, ("y", 0, 0): 1},
    ]
    # "zero" sums to d + A^2 + A^-2 = 0
    out = expand_tallies(parts)
    assert out == {"x": LaurentPoly.monomial(1, 3) * LOOP_VALUE**2, "y": LaurentPoly.one()}
    assert list(out) == ["x", "y"]
    assert expand_tallies([]) == {}


def test_state_tables_loop_counts():
    t = StateTables(TREFOIL)
    assert t.n == 3
    # all-alpha state of the positive trefoil has 2 loops; all-beta has 3
    assert t.loop_count(0) == 2
    assert t.loop_count(0b111) == 3


def test_bracket_invariant_under_r2_insertion():
    plain = parse_gauss_code("O1+U2+O3+U4+O5+U1+O2+U3+O4+U5+")
    fattened = parse_gauss_code("O6+O7-O1+U2+U7-U6+O3+U4+O5+U1+O2+U3+O4+U5+")
    assert kauffman_bracket(plain) == kauffman_bracket(fattened)
