"""Carter surfaces: combinatorial maps, genus, homology, cutting."""

import pytest
from oracle import (
    CombinatorialMap,
    cycle_coords,
    fundamental_cycles,
    intersection_number,
    is_unimodular,
    pair,
    standard_form,
    state_curves,
)

from vknot.bracket import StateTables
from vknot.diagram import parse_gauss_code
from vknot.surface import (
    HomologyClass,
    _cut_map,
    build_carter_surface,
    genus,
    is_disk_bounding,
    loop_homology,
)

CLASSICAL = [
    "U",
    "O1+U1+",
    "O1+U2+O3+U1+O2+U3+",
    "O1+U2+O3-U4-O2+U1+O4-U3-",
    "O1+U2+;U1+O2+",
    "O1+U2+O3+U4+O5+U1+O2+U3+O4+U5+",
]
VIRTUAL = {
    "O1+O2+U1+U2+": 1,
    "O1+U2-O3+U4-O2-U1+O4-U3+": 2,
    "O1+U2-O5+U6-O3+U4-O2-U1+O6-U5+O4-U3+": 2,
}


def test_combinatorial_map_torus():
    # one vertex, two loops a, b with rotation (a, b, a~, b~): the torus
    m = CombinatorialMap(sigma=[1, 2, 3, 0], alpha=[2, 3, 0, 1])
    assert len(m.vertices) == 1
    assert len(m.edges) == 2
    assert len(m.faces) == 1
    assert m.genus() == 1


def test_combinatorial_map_sphere():
    # one vertex, one loop: the sphere (chi = 1 - 1 + 2)
    m = CombinatorialMap(sigma=[1, 0], alpha=[1, 0])
    assert m.genus() == 0


def test_classical_codes_have_genus_zero():
    for code in CLASSICAL:
        assert genus(parse_gauss_code(code)) == 0, code


def test_virtual_genera():
    for code, g in VIRTUAL.items():
        assert genus(parse_gauss_code(code)) == g, code


def test_refined_map_preserves_genus():
    """The generic map of the refinement's permutations, which computes its
    own components and chi, has the genus of the Carter surface."""
    for code in list(VIRTUAL) + CLASSICAL[1:]:
        rep = build_carter_surface(parse_gauss_code(code))
        refined = rep.refined
        assert CombinatorialMap(refined.sigma, refined.alpha).genus() == rep.genus


def test_homology_basis_is_symplectic():
    for code, g in VIRTUAL.items():
        rep = build_carter_surface(parse_gauss_code(code))
        h = rep.homology
        cycles, form, basis = fundamental_cycles(h), h.form, h.basis
        assert len(cycles) == 2 * g
        assert basis.dim // 2 == g
        assert is_unimodular(form)
        std = standard_form(g)
        for i, ci in enumerate(cycles):
            sym = basis.to_symplectic(cycle_coords(h, ci))
            for j, cj in enumerate(cycles):
                sym_j = basis.to_symplectic(cycle_coords(h, cj))
                assert pair(std, sym, sym_j) == form.entries[i][j]


def test_homology_class_canonical_and_order():
    a = HomologyClass.canonical((1, -2))
    b = HomologyClass.canonical((-1, 2))
    assert a == b
    assert a.coords == (1, -2)
    assert not a.is_zero()
    assert HomologyClass((0, 0)).is_zero()
    assert len(a.coords) // 2 == 1


def test_homology_class_canonical_sign_rule():
    for coords, want in (
        ([0, 0, -3, 1], (0, 0, 3, -1)),
        ([0, 2, -5, 0], (0, 2, -5, 0)),
        ([-1, 4, 0, -2], (1, -4, 0, 2)),
        ([0, 0, 0, 0], (0, 0, 0, 0)),
        ((), ()),
    ):
        c = HomologyClass.canonical(coords)
        assert c.coords == want
        assert type(c.coords) is tuple and all(type(x) is int for x in c.coords)
        assert HomologyClass.canonical([-x for x in coords]) == c
    assert HomologyClass.canonical([0, 0, 0, 0]).is_zero()


def test_homology_classes_order_and_hash_by_coordinates():
    coords = [(0, 2, -5, 0), (1, -4, 0, 2), (0, 0, 3, -1), (0, 2, -5, 1), (1, -4, 0, 2)]
    classes = [HomologyClass(c) for c in coords]
    assert [c.coords for c in sorted(classes)] == sorted(coords)
    assert len(set(classes)) == len(set(coords)) == 4
    assert classes[1] == classes[4] and hash(classes[1]) == hash(classes[4])
    assert classes[0] != classes[3] and classes[0] < classes[3]
    assert HomologyClass(coords=(1, 0)) == HomologyClass((1, 0))


def test_intersection_number_standard():
    m = HomologyClass((1, 0, 0, 0))
    l = HomologyClass((0, 1, 0, 0))
    assert intersection_number(m, l) == 1
    assert intersection_number(l, m) == -1
    assert intersection_number(m, m) == 0


def _loops_of(code: str):
    """The Carter surface of `code` and the dart cycles of each state."""
    d = parse_gauss_code(code)
    rep = build_carter_surface(d)
    tables = StateTables(d)
    return rep, [state_curves(rep, tables, state) for state in range(1 << tables.n)]


def test_virtual_trefoil_essential_loops():
    rep, states = _loops_of("O1+O2+U1+U2+")
    classes = set()
    for loops in states:
        for loop in loops:
            if not is_disk_bounding(rep, loop):
                classes.add(loop_homology(rep, loop))
    assert classes  # the genus-1 representation carries essential state curves
    pairs = [c.coords for c in classes]
    assert any(
        abs(a1 * b2 - a2 * b1) == 2
        for a1, b1 in pairs
        for a2, b2 in pairs
    )


def test_cut_along_essential_loop_gives_annulus_pieces():
    rep, states = _loops_of("O1+O2+U1+U2+")
    for loops in states:
        for loop in loops:
            pieces = _cut_map(rep.refined, loop)
            # Euler characteristics of the pieces reassemble the torus
            assert sum(chi for chi, _ in pieces) == 0
            if is_disk_bounding(rep, loop):
                assert sorted(pieces) == [(0, 1), (1, 1)] or (1, 1) in pieces


def test_disk_bounding_on_sphere():
    rep, states = _loops_of("O1+U1+")
    for loops in states:
        for loop in loops:
            assert is_disk_bounding(rep, loop)


def test_null_homologous_curves_on_kishino():
    rep, states = _loops_of("O1+U2-O3+U4-O2-U1+O4-U3+")
    for loops in states:
        for loop in loops:
            if is_disk_bounding(rep, loop):
                assert loop_homology(rep, loop).is_zero()
