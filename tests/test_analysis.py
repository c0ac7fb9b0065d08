"""Surface bracket, criteria, and certificates."""

import json
import random
from itertools import permutations

import pytest

from vknot.analysis import (
    SurfaceBracket,
    certify,
    enumerate_surface_states,
    family_report,
    mod2_span_criterion,
    per_torus_criterion,
    surface_bracket,
)
from vknot.bracket import kauffman_bracket
from vknot.catalog import catalog, catalog_p_family
from vknot.diagram import parse_gauss_code
from vknot.laurent import LOOP_VALUE, LaurentPoly
from vknot.surface import HomologyClass, build_carter_surface

VIRTUAL_TREFOIL = parse_gauss_code("O1+O2+U1+U2+")
KISHINO = parse_gauss_code("O1+U2-O3+U4-O2-U1+O4-U3+")


def test_state_enumeration_counts():
    rep = build_carter_surface(KISHINO)
    states = enumerate_surface_states(rep)
    assert len(states) == 16
    for s in states:
        assert s.loop_count == len(s.loops) + rep.free_loops


def test_collapse_matches_reduced_bracket():
    for d in (VIRTUAL_TREFOIL, KISHINO, catalog("trefoil"), catalog("hopf")):
        rep = build_carter_surface(d)
        sb = surface_bracket(rep)
        assert sb.collapse() == LOOP_VALUE * kauffman_bracket(d)


def test_virtual_trefoil_surface_bracket_keys():
    rep = build_carter_surface(VIRTUAL_TREFOIL)
    sb = surface_bracket(rep)
    by_classes = {
        tuple(c.coords for c in classes): coeff
        for (classes, _), coeff in sb.entries.items()
    }
    assert by_classes[((1, -2),)] == LaurentPoly.monomial(2)
    assert by_classes[((1, 0),)] == LaurentPoly({0: 1, -4: -1})


def test_kishino_grouped_coefficient():
    rep = build_carter_surface(KISHINO)
    sb = surface_bracket(rep)
    assert any(c == LaurentPoly({2: 1, -2: 1}) for c in sb.entries.values())


def test_criteria_on_genus_zero_raise():
    rep = build_carter_surface(catalog("trefoil"))
    sb = surface_bracket(rep)
    with pytest.raises(ValueError):
        per_torus_criterion(sb, 0)
    with pytest.raises(ValueError):
        mod2_span_criterion(sb, 0)


def test_per_torus_criterion_virtual_trefoil():
    rep = build_carter_surface(VIRTUAL_TREFOIL)
    res = per_torus_criterion(surface_bracket(rep), 1)
    assert res.satisfied
    assert res.witnesses


def test_mod2_span_kishino_rank_four():
    rep = build_carter_surface(KISHINO)
    res = mod2_span_criterion(surface_bracket(rep), 2)
    assert res.satisfied
    assert res.detail["rank"] == 4


def test_certify_verdicts():
    assert str(certify(VIRTUAL_TREFOIL)) == "NonClassical(1)"
    assert str(certify(KISHINO)) == "NonClassical(2)"
    assert str(certify(catalog("trefoil"))) == "Inconclusive"
    assert str(certify(catalog("unknot"))) == "Inconclusive"


def test_certificate_json_schema():
    cert = certify(KISHINO)
    obj = json.loads(cert.to_json_str())
    assert set(obj) == {"verdict", "genus", "criteria", "diagram", "convention"}
    assert obj["verdict"] == "NonClassical"
    assert obj["genus"] == 2
    assert obj["convention"] == "unreduced"
    for c in obj["criteria"]:
        assert {"name", "satisfied", "witnesses"} <= set(c)


def test_certify_deterministic_and_parallel_stable():
    a = certify(KISHINO, parallel=1).to_json_str()
    b = certify(KISHINO, parallel=4).to_json_str()
    assert a == b


def test_family_report():
    assert str(family_report(0)) == "NonClassical(2)"


def test_p_family_first_member_is_modified_kishino_size():
    assert catalog_p_family(0).n_crossings == 6
    assert catalog_p_family(2).n_crossings == 10


def _relabel(coords, perm, swaps):
    """Symplectic coordinates with the tori permuted by `perm` and torus k's
    pair rotated (a, b) -> (b, -a) where bit k of `swaps` is set."""
    out = []
    for k in perm:
        a, b = coords[2 * k], coords[2 * k + 1]
        out += (b, -a) if (swaps >> k) & 1 else (a, b)
    return tuple(out)


def test_per_torus_criterion_ignores_torus_order_and_pair_rotation():
    rng = random.Random(20261018)
    outcomes = set()
    for _ in range(60):
        genus = rng.randint(1, 3)
        # sparse classes, so that both outcomes occur
        classes = [
            tuple(rng.choice((0, 0, 0, 1, -1, 2)) for _ in range(2 * genus)) for _ in range(rng.randint(1, 4))
        ]
        classes = [c for c in classes if any(c)]

        def satisfied(cs):
            key = (tuple(HomologyClass(c) for c in cs), 0)
            return per_torus_criterion(SurfaceBracket({key: LaurentPoly.one()}, genus), genus).satisfied

        expected = satisfied(classes)
        outcomes.add(expected)
        for perm in permutations(range(genus)):
            for swaps in range(1 << genus):
                assert satisfied([_relabel(c, perm, swaps) for c in classes]) == expected
    assert outcomes == {True, False}
