"""Gauss-code parsing, moves, and smoothing."""

import random

import pytest
from oracle import canonical_code
from randgen import random_gauss_code

from vknot.diagram import (
    ParseError,
    Pass,
    SmoothingType,
    UnknownCrossingError,
    ValidationError,
    VirtualLinkDiagram,
    format_gauss_code,
    mirror,
    parse_gauss_code,
    smooth_crossing,
    switch_crossing,
    virtualize_crossing,
    writhe,
)

TREFOIL = "O1+U2+O3+U1+O2+U3+"


def test_parse_round_trip():
    """Fixed and seeded random codes, some with unknot markers, format back
    to their own text, and each diagram survives a format-parse round."""
    codes = [TREFOIL, "O1+O2+U1+U2+", "O1+U2+;U1+O2+", "U", "U;U", "O1-U1-;U"]
    rng = random.Random(11)
    for _ in range(100):
        n = rng.randint(1, 12)
        codes.append(random_gauss_code(rng, n, rng.randint(1, min(3, 2 * n))) + ";U" * rng.randint(0, 2))
    for code in codes:
        d = parse_gauss_code(code)
        text = format_gauss_code(d)
        assert text == code
        assert parse_gauss_code(text) == d
        assert format_gauss_code(parse_gauss_code(text)) == text


def test_parse_whitespace_insensitive():
    assert parse_gauss_code(" O1+ U1+ ") == parse_gauss_code("O1+U1+")


PARSE_ERRORS = [
    ("", ParseError),
    ("O1+;", ParseError),
    ("X1+", ParseError),
    ("O1+U", ParseError),  # marker inside a component
    ("O1+U1-", ValidationError),  # sign mismatch
    ("O1+O1+", ValidationError),  # two over passes
    ("O1+U1+O2+U2+O1+U1+", ValidationError),  # crossing seen four times
    ("B1O1+U1+B2", ParseError),  # tangle boundary tokens
    ("O1+U1+;B1", ParseError),
    # a component is never empty, wherever it stands
    (";O1+U1+", ParseError),
    ("O1+U1+;;O2+U2+", ParseError),
    ("U;;U", ParseError),
]


def test_parse_errors():
    for text, error in PARSE_ERRORS:
        with pytest.raises(error):
            parse_gauss_code(text)


def test_unknot_markers():
    d = parse_gauss_code("U;U;O1+U1+")
    assert d.free_loops == 2
    assert d.n_components == 3
    assert d.n_crossings == 1


def test_queries():
    d = parse_gauss_code(TREFOIL)
    assert d.crossing_ids == (1, 2, 3)
    assert d.positions(2) == ((0, 4), (0, 1))
    with pytest.raises(UnknownCrossingError):
        d.positions(9)


def test_immutability():
    d = parse_gauss_code(TREFOIL)
    with pytest.raises(AttributeError):
        d.signs = {}
    with pytest.raises(TypeError):
        d.components[0][0] = Pass(9, "O")


def test_switch_crossing():
    d = parse_gauss_code("O1+U1+")
    s = switch_crossing(d, 1)
    assert format_gauss_code(s) == "U1-O1-"
    assert switch_crossing(s, 1) == d


def test_virtualize_crossing():
    d = parse_gauss_code("O1+U1+")
    v = virtualize_crossing(d, 1)
    assert format_gauss_code(v) == "O1-U1-"
    assert virtualize_crossing(v, 1) == d


def test_mirror():
    d = parse_gauss_code(TREFOIL)
    m = mirror(d)
    assert format_gauss_code(m) == "U1-O2-U3-O1-U2-O3-"
    assert mirror(m) == d


def test_writhe():
    assert writhe(parse_gauss_code(TREFOIL)) == 3
    assert writhe(parse_gauss_code("O1+U2-O2-U1+")) == 0


def test_smooth_kink():
    d = parse_gauss_code("O1+U1+")
    a = smooth_crossing(d, 1, SmoothingType.ALPHA)
    b = smooth_crossing(d, 1, SmoothingType.BETA)
    counts = sorted((a.free_loops, b.free_loops))
    assert counts == [1, 2]  # one smoothing splits off an extra loop
    assert a.n_crossings == b.n_crossings == 0


def test_smooth_preserves_remaining_crossings():
    d = parse_gauss_code(TREFOIL)
    for s in SmoothingType:
        out = smooth_crossing(d, 1, s)
        assert set(out.signs) == {2, 3}


def test_smooth_sign_flip_on_reversed_segment():
    # the disoriented smoothing reverses a segment; crossings met exactly
    # once inside it change sign
    d = parse_gauss_code(TREFOIL)
    b = smooth_crossing(d, 1, SmoothingType.BETA)
    assert sorted(b.signs.values()) == [-1, -1]


def test_canonical_code_invariance():
    d1 = parse_gauss_code(TREFOIL)
    d2 = parse_gauss_code("O2+U3+O1+U2+O3+U1+")  # relabelled + rotated
    assert canonical_code(d1) == canonical_code(d2)
    h1 = parse_gauss_code("O1+U2+;U1+O2+")
    h2 = parse_gauss_code("U2+O1+;O2+U1+")
    assert canonical_code(h1) == canonical_code(h2)


def test_canonical_code_distinguishes():
    assert canonical_code(parse_gauss_code(TREFOIL)) != canonical_code(
        parse_gauss_code("O1+O2+U1+U2+")
    )
