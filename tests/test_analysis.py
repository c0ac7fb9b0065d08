"""Surface bracket, criteria, and certificates."""

import json
import random
from itertools import permutations

import pytest
from oracle import crossing_pair, state_curves

from vknot.analysis import (
    _crossing_pairs,
    certify,
    mod2_span_criterion,
    per_torus_criterion,
    surface_bracket,
)
from vknot.bracket import StateTables, kauffman_bracket
from vknot.catalog import catalog, catalog_p_family
from vknot.diagram import parse_gauss_code
from vknot.laurent import LOOP_VALUE, LaurentPoly
from vknot.surface import HomologyClass, build_carter_surface

VIRTUAL_TREFOIL = parse_gauss_code("O1+O2+U1+U2+")
KISHINO = parse_gauss_code("O1+U2-O3+U4-O2-U1+O4-U3+")


def test_state_enumeration_counts():
    # the planar tracer and the surface curves of tests/oracle.py see the
    # same loops in each of the 2^n states
    rep = build_carter_surface(KISHINO)
    tables = StateTables(KISHINO)
    assert tables.n == 4
    for state in range(16):
        assert tables.loop_count(state) == len(state_curves(rep, tables, state)), state


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
        per_torus_criterion(sb.nonzero_classes(), 0)
    with pytest.raises(ValueError):
        mod2_span_criterion(sb.nonzero_classes(), 0)


def test_per_torus_criterion_virtual_trefoil():
    rep = build_carter_surface(VIRTUAL_TREFOIL)
    res = per_torus_criterion(surface_bracket(rep).nonzero_classes(), 1)
    assert res.satisfied
    assert res.witnesses


def test_mod2_span_kishino_rank_four():
    rep = build_carter_surface(KISHINO)
    res = mod2_span_criterion(surface_bracket(rep).nonzero_classes(), 2)
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


def test_certify_is_deterministic():
    # the same bytes on every run
    a = certify(KISHINO).to_json_str()
    assert certify(KISHINO).to_json_str() == a


def test_family_report():
    assert str(certify(catalog_p_family(0))) == "NonClassical(2)"


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
            return per_torus_criterion([HomologyClass(c) for c in cs], genus).satisfied

        expected = satisfied(classes)
        outcomes.add(expected)
        for perm in permutations(range(genus)):
            for swaps in range(1 << genus):
                assert satisfied([_relabel(c, perm, swaps) for c in classes]) == expected
    assert outcomes == {True, False}


def _class_lists(rng: random.Random):
    """Seeded lists of classes for the per-torus pair scan: sparse random
    ones, lists whose projections on torus 0 are all zero, lists whose
    projections are all parallel (zero ones mixed in), and lists with a
    single non-parallel class at the end, after zero and parallel ones."""
    for _ in range(120):
        genus = rng.randint(1, 3)
        dim = 2 * genus
        size = rng.randint(0, 12)
        yield [tuple(rng.choice((0, 0, 0, 1, -1, 2, -3)) for _ in range(dim)) for _ in range(size)]
        yield [(0, 0, *(rng.randint(-2, 2) for _ in range(dim - 2))) for _ in range(size)]
        a, b = rng.choice(((1, 0), (0, 1), (1, 1), (2, -3), (-1, 2)))
        parallel = [
            (m * a, m * b, *(rng.randint(-2, 2) for _ in range(dim - 2))) for m in rng.choices((0, 1, -1, 2, -3), k=size)
        ]
        yield parallel
        yield parallel + [(b, a + b if a == b else -a, *(0 for _ in range(dim - 2)))]


def test_crossing_pair_matches_every_pair_oracle():
    """The one-pass scan finds the pair the scan over every pair finds, the
    same classes and determinant, on every torus."""
    rng = random.Random(20261019)
    outcomes = {"found": 0, "none": 0, "late": 0}
    for classes in _class_lists(rng):
        genus = len(classes[0]) // 2 if classes else 1
        pairs = _crossing_pairs(classes, genus)
        for k in range(genus):
            expected = crossing_pair(classes, k)
            assert pairs[k] == expected, (classes, k)
            outcomes["none" if expected is None else "found"] += 1
            if expected is not None and expected[2] is classes[-1] and len(classes) > 2:
                outcomes["late"] += 1
    assert all(outcomes.values()), outcomes


def test_crossing_pair_edge_cases():
    assert _crossing_pairs([], 1) == [None]
    assert _crossing_pairs([(0, 0), (0, 0)], 1) == [None]
    # all parallel, zero projections mixed in
    assert _crossing_pairs([(0, 0), (1, 2), (0, 0), (-2, -4), (3, 6)], 1) == [None]
    # the witness is the last class, found after parallel and zero ones
    classes = [(0, 0), (1, 2), (2, 4), (0, 0), (-1, -2), (1, 3)]
    assert _crossing_pairs(classes, 1) == [(1, (1, 2), (1, 3), 1)] == [crossing_pair(classes, 0)]
    # torus 1 of genus-2 classes: the first class has a zero projection there
    classes = [(1, 0, 0, 0), (0, 1, 2, 0), (5, 5, 0, 1)]
    assert _crossing_pairs(classes, 2)[1] == (2, (0, 1, 2, 0), (5, 5, 0, 1), 2) == crossing_pair(classes, 1)
    # the scan stops at the class that completes the last pair
    read = []
    classes = [(1, 0, 0, 1), (0, 1, 1, 0), (1, 1, 1, 1)]
    assert _crossing_pairs((read.append(c) or c for c in classes), 2) == [
        (1, (1, 0, 0, 1), (0, 1, 1, 0), 1),
        (2, (1, 0, 0, 1), (0, 1, 1, 0), -1),
    ]
    assert read == classes[:2]
