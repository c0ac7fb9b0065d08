"""Bracket polynomial state sum, normalizations, and the skein recursion."""

import os
import subprocess
import sys
from pathlib import Path

import pytest
from oracle import jones_divisibility

from vknot import bracket
from vknot.bracket import (
    StateTables,
    bracket_by_recursion,
    d_power,
    f_polynomial,
    jones,
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


@pytest.mark.parametrize(
    "code",
    ["O1+U1+;U", "O1-U1-;U;U", "O1+U2+O3+U1+O2+U3+;U;U", "O1+U2+;U1+O2+;U", "O1+O2+U1+U2+;U;U;U"],
)
def test_free_loops_next_to_crossings(code):
    """The sweep's value is divided by d once, then multiplied by d per free
    loop; the skein recursion counts the free loops as components."""
    d = parse_gauss_code(code)
    assert 1 <= d.free_loops <= 3 and d.n_crossings
    assert kauffman_bracket(d) == bracket_by_recursion(d)


NOT_DIVISIBLE = """
from vknot.frontier import divide_by_d, packed_fields
assert False, "asserts must be stripped"
fields = packed_fields(3, 1)
try:
    divide_by_d(1 << fields.offset * fields.width, fields)
except ArithmeticError as exc:
    print("refused:", exc)
"""


def test_a_sum_not_divisible_by_d_is_refused(monkeypatch):
    """Every state of a diagram with crossings has a loop; a planar value
    without the factor d (here s^M alone) raises, also under `python -O`,
    which runs the division of the trefoil's layout in a subprocess."""
    _, width, offset = StateTables(TREFOIL).fields
    monkeypatch.setattr(bracket, "state_sum", lambda tables: {(): 1 << offset * width})
    with pytest.raises(ArithmeticError, match="not divisible by d"):
        kauffman_bracket(TREFOIL)
    env = dict(os.environ, PYTHONPATH=str(Path(bracket.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-O", "-c", NOT_DIVISIBLE], capture_output=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.decode().splitlines() == ["refused: state sum is not divisible by d"]


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
