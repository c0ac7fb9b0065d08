"""Tangles, TL expansion, closures, and virtualization reports."""

import json
import random

import pytest
from oracle import is_noncrossing
from randgen import random_gauss_code, random_tangle

from vknot import cli, tangle
from vknot.bracket import bracket_by_recursion, d_power, kauffman_bracket
from vknot.catalog import catalog, catalog_entry
from vknot.diagram import ParseError, Pass, ValidationError, VirtualLinkDiagram, parse_gauss_code
from vknot.laurent import LaurentPoly, format_laurent
from vknot.surface import genus
from vknot.tangle import (
    DoubleVirtualizationReport,
    Matching,
    Strand,
    Tangle,
    alpha_beta_at_crossing,
    close_tangle,
    closure_consistency,
    double_virtualization_report,
    expand_tangle,
    format_tangle,
    noncrossing_matchings,
    parse_tangle,
    VirtualizationReport,
    virtualization_report,
    zerocor_check,
)

SINGLE_POSITIVE = "B1O1+B3;B2U1+B4"

#: The two matchings of a 2-2 tangle's four boundary points: the identity,
#: whose coefficient is alpha, and the cup-cap, whose coefficient is beta.
IDENTITY_2_2 = Matching([(1, 4), (2, 3)])
CUPCAP_2_2 = Matching([(1, 2), (3, 4)])


def test_parse_format_round_trip():
    """The single crossing and seeded random tangles, among them open strands
    with no pass and closed strands, survive a format-parse round."""
    t = parse_tangle(SINGLE_POSITIVE)
    assert format_tangle(t) == SINGLE_POSITIVE
    assert t.n_boundary == 4
    assert t.n_crossings == 1
    rng = random.Random(11)
    tangles = [random_tangle(rng, rng.randint(0, 9), rng.choice((2, 4, 6, 8))) for _ in range(100)]
    strands = [s for t in tangles for s in t.strands]
    assert any(s.start is None for s in strands) and any(s.start is not None and not s.passes for s in strands)
    for t in tangles:
        text = format_tangle(t)
        u = parse_tangle(text)
        assert (u.strands, u.signs, u.n_boundary) == (t.strands, t.signs, t.n_boundary)
        assert format_tangle(parse_tangle(text)) == text


PARSE_ERRORS = [
    ("O1+B1B2U1+", ParseError),  # boundary tokens not at strand ends
    ("B1O1+B2;B3U1-B4", ValidationError),  # sign mismatch
    ("B1O1+B3;B2U1+B5", ValidationError),  # boundary points not 1..2n
    ("B1O1+B3;B2U1+B4;U", ParseError),  # the Gauss unknot marker
    ("B1O1+B3;U;B2U1+B4", ParseError),
    # a strand is never empty, wherever it stands
    (";B1O1+B3;B2U1+B4", ParseError),
    ("B1O1+B3;;B2U1+B4", ParseError),
    ("B1O1+B3;B2U1+B4;", ParseError),
]


def test_parse_errors():
    for text, error in PARSE_ERRORS:
        with pytest.raises(error):
            parse_tangle(text)


def test_tangle_refuses_a_sign_other_than_plus_or_minus_one():
    """A tangle's crossing signs are checked as a diagram's are."""
    with pytest.raises(ValidationError, match="invalid sign"):
        Tangle([Strand(1, (Pass(1, "O"),), 3), Strand(2, (Pass(1, "U"),), 4)], {1: 5})
    with pytest.raises(ValidationError, match="invalid sign"):
        VirtualLinkDiagram(((Pass(1, "O"), Pass(1, "U")),), {1: 5})


def test_matching_noncrossing():
    assert is_noncrossing(Matching([(1, 4), (2, 3)]))
    assert not is_noncrossing(Matching([(1, 3), (2, 4)]))
    assert str(Matching([(3, 2), (4, 1)])) == "(1-4)(2-3)"


def test_noncrossing_matchings_catalan():
    assert len(noncrossing_matchings(2)) == 1
    assert len(noncrossing_matchings(4)) == 2
    assert len(noncrossing_matchings(6)) == 5
    assert len(noncrossing_matchings(8)) == 14


def test_single_crossing_expansion():
    exp = expand_tangle(parse_tangle(SINGLE_POSITIVE))
    assert exp.coefficients[IDENTITY_2_2] == LaurentPoly.monomial(1)
    assert exp.coefficients[CUPCAP_2_2] == LaurentPoly.monomial(-1)
    assert exp.to_json() == {"(1-2)(3-4)": {"-1": 1}, "(1-4)(2-3)": {"1": 1}}


def test_single_negative_crossing_expansion():
    exp = expand_tangle(parse_tangle("B1O1-B3;B2U1-B4"))
    assert exp.coefficients[IDENTITY_2_2] == LaurentPoly.monomial(-1)
    assert exp.coefficients[CUPCAP_2_2] == LaurentPoly.monomial(1)


def test_closure_consistency_small():
    for code in (SINGLE_POSITIVE, "B1O1-B3;B2U1-B4", "B1O1+U2-B3;B2U1+O2-B4"):
        assert closure_consistency(parse_tangle(code))


def test_close_tangle_identity_cap():
    t = parse_tangle(SINGLE_POSITIVE)
    d = close_tangle(t, IDENTITY_2_2)
    # identity closure of one crossing is a one-crossing unknot diagram
    assert d.n_crossings == 1
    assert kauffman_bracket(d).is_monomial()


def test_section5_tangle_expansion():
    entry = catalog_entry("section5_knot")
    t = parse_tangle(entry.tangle)
    exp = expand_tangle(t)
    assert all(is_noncrossing(m) for m in exp.coefficients)
    assert closure_consistency(t, exp)


def test_alpha_beta_trefoil_every_crossing():
    d = catalog("trefoil")
    for cid in d.crossing_ids:
        a, b = alpha_beta_at_crossing(d, cid)
        assert not a.is_zero() and not b.is_zero()


def test_zerocor_check_cases():
    one = LaurentPoly.one()
    a6 = LaurentPoly.monomial(6)
    assert zerocor_check(a6, one) == "AlphaZero"
    assert zerocor_check(LaurentPoly.monomial(-6), one) == "BetaZero"
    assert zerocor_check(one, one) == "NeitherZero"
    assert zerocor_check(LaurentPoly.zero(), LaurentPoly.zero()) == "Ambiguous"


def test_virtualization_report_trefoil():
    rep = virtualization_report(catalog("trefoil"), 1)
    assert rep.verdict == "NonClassical(1)"
    assert str(rep.certificate) == "NonClassical(1)"
    assert rep.bracket_Kv == rep.bracket_Ks


def test_virtualization_report_linkL_undetected():
    rep = virtualization_report(catalog("linkL"), 1)
    assert rep.alpha.is_zero()
    assert rep.zerocor == "AlphaZero"
    assert rep.verdict == "Undetected"
    assert str(rep.certificate) == "Inconclusive"


#: A virtual link (Carter genus 1) whose crossing 1 has alpha and beta
#: both nonzero, while K_v has genus 0: the tangle criterion fires outside
#: the classical case it is proved for.
VIRTUAL_K_CODE = "U1-O2+;O1-U2+"


def test_virtualization_report_on_a_virtual_k_is_undetected(capsys):
    K = parse_gauss_code(VIRTUAL_K_CODE)
    assert genus(K) == 1
    rep = virtualization_report(K, 1)
    assert not rep.alpha.is_zero() and not rep.beta.is_zero()
    assert str(rep.certificate) == "Inconclusive"
    assert rep.verdict == "Undetected"
    assert cli.main(["virtualize-report", VIRTUAL_K_CODE, "--crossing", "1"]) == 0
    assert json.loads(capsys.readouterr().out)["verdict"] == "Undetected"


def test_virtualization_report_raises_on_no_seeded_code():
    """Seeded random codes of 1-9 crossings, at their first crossing: every
    report completes, and a NonClassical(1) verdict always agrees with the
    certificate of K_v."""
    rng = random.Random(20261019)
    virtual_undetected = 0
    for _ in range(400):
        n = rng.randint(1, 9)
        K = parse_gauss_code(random_gauss_code(rng, n, rng.randint(1, min(3, 2 * n))))
        rep = virtualization_report(K, K.crossing_ids[0])
        if rep.verdict == "NonClassical(1)":
            assert str(rep.certificate) == "NonClassical(1)"
        elif rep.alpha is not None and not rep.alpha.is_zero() and not rep.beta.is_zero():
            assert genus(K) >= 1
            virtual_undetected += 1
    # the sample reaches the path that used to raise
    assert virtual_undetected


def test_virtualization_report_on_a_classical_k_still_checks_the_certificate(monkeypatch):
    class Disagreeing:
        def __str__(self):
            return "Inconclusive"

    monkeypatch.setattr(tangle, "certify", lambda d: Disagreeing())
    with pytest.raises(AssertionError, match="disagrees with tangle criterion"):
        virtualization_report(catalog("trefoil"), 1)


def test_double_virtualization_report_section5():
    entry = catalog_entry("section5_knot")
    rep = double_virtualization_report(
        entry.diagram, *entry.crossings, tangle=parse_tangle(entry.tangle)
    )
    assert rep.verdict == "NonClassical(2)"
    assert rep.expansion_consistent
    assert len(rep.four_states) == 4
    obj = rep.to_json()
    assert set(obj) >= {"diagram", "crossings", "four_states", "verdict", "tangle_expansion"}


def test_both_reports_require_their_certificate():
    # `verdict` and `to_json` read the certificate, so neither report has a default
    for report in (VirtualizationReport, DoubleVirtualizationReport):
        assert "certificate" in report._fields and "certificate" not in report._field_defaults
    with pytest.raises(TypeError, match="certificate"):
        DoubleVirtualizationReport("U", (1, 2), {}, None, None)


def test_double_virtualization_requires_distinct():
    with pytest.raises(ValueError):
        double_virtualization_report(catalog("trefoil"), 1, 1)


def test_virtualization_report_computes_each_bracket_once(monkeypatch):
    calls = []

    def counted(d):
        calls.append(d)
        return kauffman_bracket(d)

    monkeypatch.setattr(tangle, "kauffman_bracket", counted)
    rep = virtualization_report(catalog("trefoil"), 1)
    # <K_A>, <K_B>, <K>, <K_s>, <K_v>; the certificate of K_v takes none
    assert len(calls) == 5
    assert rep.to_json() == virtualization_report(catalog("trefoil"), 1).to_json()


def _cycles(m1: Matching, m2: Matching) -> int:
    """Number of circles in the union of two perfect matchings."""
    partner1, partner2 = ({a: b for a, b in m} | {b: a for a, b in m} for m in (m1, m2))
    seen: set[int] = set()
    cycles = 0
    for start in partner1:
        if start in seen:
            continue
        cycles += 1
        p = start
        while p not in seen:
            seen.add(p)
            q = partner1[p]
            seen.add(q)
            p = partner2[q]
    return cycles


def _random_tangles(seed: int = 20261018, count: int = 40):
    rng = random.Random(seed)
    return [random_tangle(rng, rng.randint(1, 6), rng.choice((4, 6))) for _ in range(count)]


def test_expansion_closes_to_skein_bracket():
    """Every planar closure of the expansion equals the skein recursion of
    the closed-up tangle, on seeded random classical tangles."""
    for t in _random_tangles():
        exp = expand_tangle(t)
        for cap in noncrossing_matchings(t.n_boundary):
            total = LaurentPoly.zero()
            for matching, coeff in exp.coefficients.items():
                total = total + coeff * d_power(_cycles(cap, matching) - 1)
            assert total == bracket_by_recursion(close_tangle(t, cap)), (format_tangle(t), cap)
