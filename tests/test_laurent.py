"""Laurent polynomial arithmetic, division, and 2x2 solving."""

import pytest
from hypothesis import given, strategies as st
from oracle import try_divide_exact

from vknot.laurent import (
    LOOP_VALUE,
    IndivisibleError,
    LaurentPoly,
    SingularSystemError,
    format_laurent,
    laurent_divide_exact,
    solve_2x2_laurent,
)

polys = st.dictionaries(st.integers(-8, 8), st.integers(-9, 9), max_size=6).map(LaurentPoly)
nonzero_polys = polys.filter(lambda p: not p.is_zero())


def test_construction_drops_zero_coefficients():
    p = LaurentPoly({2: 0, -1: 3, 0: 0})
    assert p.terms == ((-1, 3),)
    assert LaurentPoly({}).is_zero()


def test_monomial_one_zero():
    assert LaurentPoly.monomial(0) == LaurentPoly.one()
    assert LaurentPoly.monomial(3, -2) == LaurentPoly({3: -2})
    assert LaurentPoly.zero().is_zero()
    assert not LaurentPoly.one().is_zero()


def test_loop_value():
    assert LOOP_VALUE == LaurentPoly({2: -1, -2: -1})


def test_arithmetic_basics():
    p = LaurentPoly({1: 1, -1: 2})
    q = LaurentPoly({1: -1, 0: 5})
    assert p + q == LaurentPoly({0: 5, -1: 2})
    assert p - p == LaurentPoly.zero()
    assert -p == LaurentPoly({1: -1, -1: -2})
    assert p * LaurentPoly.one() == p
    assert p * LaurentPoly.zero() == LaurentPoly.zero()


def test_pow_shift_scale():
    p = LaurentPoly({1: 1, 0: 1})
    assert p**0 == LaurentPoly.one()
    assert p**2 == LaurentPoly({2: 1, 1: 2, 0: 1})
    assert p.shift(-3) == LaurentPoly({-2: 1, -3: 1})
    assert p.scale(4) == LaurentPoly({1: 4, 0: 4})


def test_substitute_inverse_involution():
    p = LaurentPoly({3: 1, -1: -2, 0: 7})
    assert p.substitute_inverse() == LaurentPoly({-3: 1, 1: -2, 0: 7})
    assert p.substitute_inverse().substitute_inverse() == p


def test_exponent_queries():
    p = LaurentPoly({4: 1, -2: 3})
    assert p.min_exp() == -2 and p.max_exp() == 4
    assert p.coeff(4) == 1 and p.coeff(0) == 0
    assert not p.is_monomial()
    assert LaurentPoly.monomial(-5, 2).is_monomial()


def test_format():
    assert format_laurent(LaurentPoly.zero()) == "0"
    assert format_laurent(LaurentPoly.one()) == "1"
    assert format_laurent(LOOP_VALUE) == "-A^2 - A^-2"
    assert format_laurent(LaurentPoly({1: 1, -3: -2})) == "A - 2A^-3"


def test_json_round_trip():
    p = LaurentPoly({2: -1, 0: 3})
    assert p.to_json() == {"2": -1, "0": 3}
    assert LaurentPoly({int(k): v for k, v in p.to_json().items()}) == p


def test_divide_exact():
    d = LOOP_VALUE
    p = LaurentPoly({5: 2, -1: 1})
    assert laurent_divide_exact(p * d, d) == p
    with pytest.raises(IndivisibleError):
        laurent_divide_exact(LaurentPoly.one(), d)
    assert try_divide_exact(LaurentPoly.one(), d) is None
    assert try_divide_exact(p * d, d) == p


def test_solve_2x2_known():
    one = LaurentPoly.one()
    d = LOOP_VALUE
    alpha, beta = LaurentPoly({0: 1, -4: -1}), LaurentPoly.monomial(2)
    x, y = solve_2x2_laurent(one, d, d, one, alpha + beta * d, alpha * d + beta)
    assert (x, y) == (alpha, beta)


def test_solve_2x2_singular():
    one = LaurentPoly.one()
    with pytest.raises(SingularSystemError):
        solve_2x2_laurent(one, one, one, one, one, one)


@given(polys, polys)
def test_mul_commutes(p, q):
    assert p * q == q * p


@given(polys, polys, polys)
def test_mul_distributes(p, q, r):
    assert p * (q + r) == p * q + p * r


@given(nonzero_polys, polys)
def test_divide_round_trip(den, quot):
    assert laurent_divide_exact(quot * den, den) == quot


@given(polys, polys)
def test_solve_2x2_round_trip(x, y):
    one, d = LaurentPoly.one(), LOOP_VALUE
    got = solve_2x2_laurent(one, d, d, one, x + d * y, d * x + y)
    assert got == (x, y)
