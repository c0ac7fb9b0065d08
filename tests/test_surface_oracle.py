"""The memoised surface bracket against a per-loop reference built here.

The reference walks every state's curves with `state_curves`, classifies
every curve of every state with the union-find cut (disk test first) and
the public `loop_homology` (no memo), and sums `A^c(s) d^k` with
`LaurentPoly`.  The per-dart symplectic table behind `loop_homology` is
checked against the edge-by-edge `cycle_coords`, the one-sweep disk test
against the union-find cut, the frontier sweep of the full bracket
against the state-by-state chunk, and the form read off the walk around
the homology tree against the one-vertex rotation that splicing leaves,
all of tests/oracle.py; and the surface tables written straight from the
crossing rotation against tests/oracle.py's generic `CombinatorialMap` of
the same darts.
"""

import functools
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from oracle import (
    CombinatorialMap,
    bracket_chunk,
    crossing_order,
    cut_map,
    cycle_coords,
    dense_dart_vec,
    fundamental_cycles,
    generic_map,
    rotation_form,
    state_curves,
    tree_parents,
    unpack,
)
from randgen import GENUS_THREE_CODE, random_gauss_code

import vknot.analysis as analysis
from vknot.analysis import SurfaceBracket, _bracket_sum, _CurveLabels, surface_bracket
from vknot.bracket import StateTables, d_power
from vknot.catalog import catalog, catalog_names, catalog_p_family
from vknot.diagram import VirtualLinkDiagram, format_gauss_code, parse_gauss_code
from vknot.frontier import greedy_order
from vknot.laurent import LOOP_VALUE, LaurentPoly
from vknot.surface import (
    HomologyClass,
    LoopNotEmbedded,
    LoopNotOnSurface,
    MapHomology,
    _cut_map,
    build_carter_surface,
    is_disk_bounding,
    loop_homology,
)


def _random_codes(seed: int = 20261018, count: int = 16) -> list[str]:
    rng = random.Random(seed)
    return [random_gauss_code(rng, rng.randint(1, 8), rng.randint(1, 2)) for _ in range(count)]


def _oracle_disk(rep, curve) -> bool:
    return any(chi == 1 and b == 1 for chi, b in cut_map(rep.refined, curve))


def reference_surface_bracket(d) -> SurfaceBracket:
    rep = build_carter_surface(d)
    tables = StateTables(d)
    entries: dict = {}
    for state in range(1 << tables.n):
        disks, classes, null_essential = d.free_loops, [], 0
        for curve in state_curves(rep, tables, state):
            if _oracle_disk(rep, curve):
                disks += 1
                continue
            cls = loop_homology(rep, curve)
            if cls.is_zero():
                null_essential += 1
            else:
                classes.append(cls)
        key = (tuple(sorted(classes)), null_essential)
        term = LaurentPoly.monomial(tables.n - 2 * state.bit_count()) * LOOP_VALUE**disks
        entries[key] = entries.get(key, LaurentPoly.zero()) + term
    return SurfaceBracket({k: v for k, v in entries.items() if not v.is_zero()}, rep.genus)


CASES = (
    [("catalog", name) for name in catalog_names()]
    + [("p_family", n) for n in range(3)]
    + [("random", code) for code in _random_codes()]
)


def _diagram(kind, arg):
    if kind == "catalog":
        return catalog(arg)
    if kind == "p_family":
        return catalog_p_family(arg)
    return parse_gauss_code(arg)


def test_random_codes_cover_both_component_counts():
    codes = _random_codes()
    assert {len(code.split(";")) for code in codes} == {1, 2}
    assert max(parse_gauss_code(c).n_crossings for c in codes) <= 8


@pytest.mark.parametrize("kind,arg", CASES, ids=[f"{k}-{a}" for k, a in CASES])
def test_surface_bracket_matches_reference(kind, arg):
    d = _diagram(kind, arg)
    got = surface_bracket(build_carter_surface(d)).to_json()
    assert got == reference_surface_bracket(d).to_json()


def _genus_two_codes(seed: int = 7, count: int = 4, max_crossings: int = 8) -> list[str]:
    rng = random.Random(seed)
    codes: list[str] = []
    while len(codes) < count:
        code = random_gauss_code(rng, rng.randint(6, max_crossings), rng.randint(1, 2))
        if build_carter_surface(parse_gauss_code(code)).genus >= 2:
            codes.append(code)
    return codes


def test_each_distinct_class_and_null_curve_is_classified_once(monkeypatch):
    # the sweep classifies a closed curve by its packed class sum, so darts
    # are built and `loop_homology` runs once per nonzero class up to sign and
    # once per null-homologous curve, which alone also gets the disk test
    d = catalog_p_family(1)
    rep = build_carter_surface(d)
    tables = StateTables(d)
    curves = {frozenset(c): c for s in range(1 << tables.n) for c in state_curves(rep, tables, s)}
    classes = {_oracle_class(rep, c) for c in curves.values()}
    zero = HomologyClass.canonical([0] * 2 * rep.genus)
    null_homologous = [c for c in curves.values() if _oracle_class(rep, c) == zero]
    assert zero in classes and len(classes) - 1 < len(curves) - len(null_homologous)
    calls = {"homology": 0, "disk": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    monkeypatch.setattr(analysis, "loop_homology", counted("homology", loop_homology))
    monkeypatch.setattr(analysis, "is_disk_bounding", counted("disk", is_disk_bounding))
    surface_bracket(rep)
    assert calls["homology"] == len(classes) - 1 + len(null_homologous)
    assert calls["disk"] == len(null_homologous)


TABLE_CASES = (
    [("catalog", name) for name in catalog_names()]
    + [("p_family", n) for n in range(3)]
    + [("random", code) for code in _genus_two_codes(seed=11, count=8, max_crossings=9)]
)


def _oracle_class(rep, loop) -> HomologyClass:
    """The class of a closed walk from its loop-edge coordinates, edge by edge."""
    h = rep.homology
    raw = cycle_coords(h, loop)
    return HomologyClass.canonical(h.basis.to_symplectic(raw) if h.basis else ())


def _fused_sum(curves: _CurveLabels, ends) -> tuple[int, int]:
    """(packed class, join key) of the state curve that leaves `ends`, in
    order: the sum of the sweep's join ints along the curve, split at its
    key bits."""
    total = sum(curves.join_ints[e ^ 1, f] for e, f in zip(ends, ends[1:] + ends[:1]))
    return total >> curves.shift, total & ((1 << curves.shift) - 1)


@pytest.mark.parametrize("kind,arg", TABLE_CASES, ids=[f"{k}-{a}" for k, a in TABLE_CASES])
def test_dart_table_class_matches_edge_coordinates(kind, arg):
    d = _diagram(kind, arg)
    rep = build_carter_surface(d)
    tables = StateTables(d)
    assert len(rep.refined.join_side) == 8 * d.n_crossings
    labels = _CurveLabels(rep)
    edge_of = rep.refined.edge_of
    curves = set()
    for state in range(1 << tables.n):
        walked = state_curves(rep, tables, state)
        # the darts rebuilt from each curve's join key, from the joins and
        # `join_side`, and the position_of/side_dart walk give the same
        # curves, either way round
        darts = [labels._darts(_fused_sum(labels, ends)[1]) for ends in tables.trace(state)]
        assert {frozenset(edge_of[x] for x in c) for c in darts} == {frozenset(edge_of[x] for x in c) for c in walked}
        curves.update(walked)
        curves.update(darts)
    for curve in curves:
        assert loop_homology(rep, curve) == _oracle_class(rep, curve)


PACKED_CASES = sorted(set(CASES) | set(TABLE_CASES), key=str)


@pytest.mark.parametrize("kind,arg", PACKED_CASES, ids=[f"{k}-{a}" for k, a in PACKED_CASES])
def test_packed_class_sum_unpacks_to_edge_coordinates(kind, arg):
    d = _diagram(kind, arg)
    rep = build_carter_surface(d)
    tables = StateTables(d)
    labels = _CurveLabels(rep)
    dim = 2 * rep.genus
    classes: dict[frozenset, tuple[int, ...]] = {}
    keys: dict[frozenset, int] = {}
    for state in range(1 << tables.n):
        traced = tables.trace(state)
        for curve, ends in zip(state_curves(rep, tables, state), traced):
            cycle = frozenset(curve)
            if cycle not in classes:
                classes[cycle] = _oracle_class(rep, curve).coords
            packed, join_key = _fused_sum(labels, ends)
            # the join key names the curve, in any state and from either end
            assert keys.setdefault(cycle, join_key) == join_key, (state, ends)
            assert _fused_sum(labels, [e ^ 1 for e in reversed(ends)])[1] == join_key, (state, ends)
            coords = unpack(packed, dim, labels.width)
            assert coords in (classes[cycle], tuple(-x for x in classes[cycle])), (state, ends)
            # coordinate 0 packs into the top field: abs() is the canonical class
            assert unpack(abs(packed), dim, labels.width) == HomologyClass.canonical(coords).coords, (state, ends)
    # and one key names one curve
    assert len(set(keys.values())) == len(keys)


#: The split union of two virtual trefoils: its refined map has two
#: components of genus 1, so the form is one block per component.
SPLIT_CODE = "O1+O2+U1+U2+;O3+O4+U3+U4+"


#: Zero-crossing components, alone and beside a split link.
FREE_LOOP_CODES = ["U", "U;U", "O1+O2+U1+U2+;U", "U;O1+U2-O3+U4-O2-U1+O4-U3+;O5+O6+U5+U6+"]


def _rotation_diagrams(group):
    if group == "catalog":
        return [catalog(name) for name in catalog_names()]
    if group == "p_family":
        return [catalog_p_family(n) for n in range(7)]
    if group == "split":
        return [parse_gauss_code(SPLIT_CODE)]
    if group == "free_loops":
        return [parse_gauss_code(code) for code in FREE_LOOP_CODES]
    rng = random.Random(20261024)
    codes = []
    for _ in range(300):
        n = rng.randint(1, 12)
        codes.append(random_gauss_code(rng, n, rng.randint(1, min(3, 2 * n))))
    return [parse_gauss_code(code) for code in codes]


@pytest.mark.parametrize("group", ["catalog", "p_family", "split", "free_loops", "random"])
def test_oracle_tree_is_the_homology_tree(group):
    """The spanning tree that tests/oracle.py `tree_parents` rebuilds has one
    edge per vertex but the component roots, and each of its edges is one
    that `MapHomology` treats as a tree edge (no loop-edge coordinates) and
    none a loop edge, on the Carter map and on the refined map."""
    for d in _rotation_diagrams(group):
        rep = build_carter_surface(d)
        for m in (generic_map(rep), rep.refined):
            h = MapHomology(m)
            parents = tree_parents(h)
            tree = {m.edge_of[dart] for dart in parents.values()}
            assert len(tree) == len(parents) == len(m.vertices) - len(m.components), format_gauss_code(d)
            assert not tree & set(h.loop_edges) and all(not h._edge_coords[e] for e in tree), format_gauss_code(d)


@pytest.mark.parametrize("group", ["catalog", "p_family", "split", "random"])
def test_tree_walk_form_matches_the_splicing_contraction(group):
    """The form `MapHomology` reads off its walk around the tree equals the
    one read from the rotation that contracting the tree edge by edge, by
    splicing rotation lists, leaves (tests/oracle.py `rotation_form`), on the
    Carter map and on the refined map."""
    for d in _rotation_diagrams(group):
        rep = build_carter_surface(d)
        for m in (generic_map(rep), rep.refined):
            h = MapHomology(m)
            assert [list(row) for row in h.form.entries] == rotation_form(h), format_gauss_code(d)
        if group == "split":
            assert len(rep.refined.components) == 2 and rep.genus == 2


@pytest.mark.parametrize("group", ["catalog", "p_family", "split", "random"])
def test_dart_classes_match_the_dense_change_of_basis(group):
    """Each dart's class, summed from the sparse loop-edge coordinates of its
    edge over columns of `basis.inverse`, equals the dense
    `to_symplectic` of those coordinates (tests/oracle.py `dense_dart_vec`),
    on the Carter map and on the refined map."""
    for d in _rotation_diagrams(group):
        rep = build_carter_surface(d)
        for m in (generic_map(rep), rep.refined):
            h = MapHomology(m)
            assert h.dart_vec == dense_dart_vec(h), format_gauss_code(d)


@pytest.mark.parametrize("group", ["catalog", "p_family", "split", "free_loops", "random"])
def test_direct_tables_match_the_generic_map(group):
    """The Carter surface read off the crossing rotation has the faces,
    components and genus of the generic `CombinatorialMap` of the same
    darts; `RefinedMap` writes every table as the generic map of its sigma
    and alpha builds it, and `MapHomology` reads the same form, basis,
    loop edges, edge coordinates and dart classes from both.  Every face
    boundary of the refined map sums to zero in loop-edge coordinates."""
    for d in _rotation_diagrams(group):
        code = format_gauss_code(d)
        rep = build_carter_surface(d)
        carter = generic_map(rep)
        assert rep.genus == carter.genus(), code
        assert rep.faces == carter.faces, code
        assert rep.components == tuple(
            tuple(sorted(x for v in comp for x in carter.vertices[v])) for comp in carter.components
        ), code
        m = rep.refined
        generic = CombinatorialMap(m.sigma, m.alpha)
        for slot in CombinatorialMap.__slots__:
            assert getattr(m, slot) == getattr(generic, slot), (code, slot)
        h, g = rep.homology, MapHomology(generic)
        for attr in ("form", "basis", "loop_edges", "_edge_coords", "dart_vec"):
            assert getattr(h, attr) == getattr(g, attr), (code, attr)
        for face in m.faces:
            total = [0] * len(h.loop_edges)
            for dart in face:
                sign = 1 if dart < m.alpha[dart] else -1
                for k, v in h._edge_coords[m.edge_of[dart]].items():
                    total[k] += sign * v
            assert not any(total), (code, face)


TABLE_CHECKS = """
from vknot.catalog import catalog
from vknot.surface import MapHomology, build_carter_surface

assert False, "asserts must be stripped"
# two ends of one crossing swapped in the rotation the refinement reads, the
# B-joins of the surface's tables: the refined tables then describe a
# surface of another genus
rep = build_carter_surface(catalog("trefoil"))
joins_a, (a, b, c, d) = rep.tables.joins[0]
rep.tables.joins[0] = (joins_a, (a, c, b, d))
try:
    rep.refined
except AssertionError as exc:
    print("refused:", exc)
# each face boundary followed by its reverse: every cotree edge cancels in
# the face it is eliminated from
m = build_carter_surface(catalog("kishino")).refined
m.faces = tuple(f + tuple(m.alpha[x] for x in reversed(f)) for f in m.faces)
try:
    MapHomology(m)
except AssertionError as exc:
    print("refused:", exc)
"""


def test_corrupt_tables_are_refused_under_python_O():
    """The refinement's genus check and the cotree-face check are if/raise
    statements, which `python -O` keeps."""
    env = dict(os.environ, PYTHONPATH=str(Path(analysis.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-O", "-c", TABLE_CHECKS], capture_output=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.decode().splitlines() == [
        "refused: refinement changed the surface genus",
        "refused: cotree edge must appear once in its face boundary",
    ]


def _fundamental_walks(rep):
    """(generator index, fundamental cycle) grouped by the root they start at."""
    h = rep.homology
    roots: dict[int, list] = {}
    for i, cycle in enumerate(fundamental_cycles(h)):
        roots.setdefault(h.map.vertex_of[cycle[0]], []).append((i, cycle))
    return roots.values()


@pytest.mark.parametrize("kind,arg", TABLE_CASES, ids=[f"{k}-{a}" for k, a in TABLE_CASES])
def test_repeated_and_combined_fundamental_cycles(kind, arg):
    rep = build_carter_surface(_diagram(kind, arg))
    h = rep.homology
    m = h.map
    dim = 2 * rep.genus
    for group in _fundamental_walks(rep):
        coeffs = [0] * dim
        combined: list[int] = []
        for j, (i, cycle) in enumerate(group):
            unit = [int(k == i) for k in range(dim)]
            assert cycle_coords(h, cycle) == tuple(unit)
            reverse = tuple(m.alpha[d] for d in reversed(cycle))
            thrice = HomologyClass.canonical([3 * x for x in h.basis.to_symplectic(unit)])
            assert loop_homology(rep, cycle * 3) == thrice
            assert loop_homology(rep, reverse * 3) == thrice
            # each cycle starts and ends at the root, so any concatenation of
            # them is a closed walk: 11 x the first, -3 x the second, ...
            times = (11, -3, 7, -12)[j % 4]
            coeffs[i] = times
            combined += (cycle if times > 0 else reverse) * abs(times)
        assert cycle_coords(h, combined) == tuple(coeffs)
        assert loop_homology(rep, combined) == HomologyClass.canonical(h.basis.to_symplectic(coeffs))


@pytest.mark.parametrize("name", ["trefoil", "kishino"])
def test_loop_homology_refuses_walks_off_the_surface(name):
    d = catalog(name)
    rep = build_carter_surface(d)
    n_darts = rep.refined.n_darts
    curve = next(c for c in state_curves(rep, StateTables(d), 0) if len(c) >= 4)
    loop_homology(rep, curve)
    with pytest.raises(LoopNotOnSurface, match="closed walk"):
        loop_homology(rep, curve[:-1])
    for bad in (-1, n_darts):
        with pytest.raises(LoopNotOnSurface, match="not on the surface"):
            loop_homology(rep, (bad,) + curve[1:])
        with pytest.raises(LoopNotOnSurface, match="not on the surface"):
            loop_homology(rep, curve[:-1] + (bad,))


@pytest.mark.parametrize("name", ["kishino", "section5_knot"])
def test_broken_side_table_is_refused_when_the_walk_is_built(name, monkeypatch):
    d = catalog(name)
    swept = []
    sweep = analysis.labelled_state_sum

    def recorded_sweep(*args):
        swept.append(args)
        return sweep(*args)

    monkeypatch.setattr(analysis, "labelled_state_sum", recorded_sweep)
    # every directed join of every crossing: removed, or pointed at a side
    # dart that leaves the right corner for the wrong one, one that arrives at
    # the right corner from the wrong one, or the same side of the next
    # crossing; refused before any key is swept
    n_joins = len(build_carter_surface(d).refined.join_side)
    for i in range(n_joins):
        for change in ("remove", "wrong end", "wrong start", "next crossing"):
            rep = build_carter_surface(d)
            refined, join_side = rep.refined, rep.refined.join_side
            vertex_of, alpha = refined.vertex_of, refined.alpha
            join = list(join_side)[i]
            side = join_side.pop(join)
            base = 2 * rep.tables.n_arcs
            others = [x for x in range(base, refined.n_darts) if x != side]
            if change == "wrong end":
                join_side[join] = next(x for x in others if vertex_of[x] == vertex_of[side])
            elif change == "wrong start":
                join_side[join] = next(x for x in others if vertex_of[alpha[x]] == vertex_of[alpha[side]])
            elif change == "next crossing":
                join_side[join] = (side - base + 8) % (8 * d.n_crossings) + base
            with pytest.raises(AssertionError, match="jumps between crossings"):
                _bracket_sum(rep)
    assert n_joins == 8 * d.n_crossings and swept == []
    _bracket_sum(build_carter_surface(d))
    assert swept


def _traced_curves(d) -> list[tuple[int, ...]]:
    rep = build_carter_surface(d)
    tables = StateTables(d)
    curves = {frozenset(c): c for s in range(1 << tables.n) for c in state_curves(rep, tables, s)}
    return list(curves.values())


def _outcome(cut, m, walk):
    """Sorted pieces of a cut, or the type of the exception it raised."""
    try:
        return sorted(cut(m, walk))
    except (LoopNotOnSurface, LoopNotEmbedded) as exc:
        return type(exc)


CUT_CASES = sorted(set(CASES) | set(TABLE_CASES), key=str)


@pytest.mark.parametrize("kind,arg", CUT_CASES, ids=[f"{k}-{a}" for k, a in CUT_CASES])
def test_disk_test_matches_union_find_cut(kind, arg):
    d = _diagram(kind, arg)
    rep = build_carter_surface(d)
    refined = rep.refined
    for curve in _traced_curves(d):
        assert sorted(_cut_map(refined, curve)) == sorted(cut_map(refined, curve))
        assert is_disk_bounding(rep, curve) == _oracle_disk(rep, curve)
    # face boundaries of both maps, either way round: disks, and walks that
    # repeat an edge or meet a vertex twice; `_cut_map` refuses a walk that
    # meets a vertex twice, which only the 4-valent Carter map has
    carter = generic_map(rep)
    for m in (carter, refined):
        for face in m.faces:
            for walk in (face, tuple(m.alpha[x] for x in reversed(face))):
                simple = len({m.edge_of[x] for x in walk}) == len(walk)
                if simple and len({m.vertex_of[x] for x in walk}) < len(walk):
                    assert m is carter and _outcome(_cut_map, m, walk) is LoopNotEmbedded
                else:
                    assert _outcome(_cut_map, m, walk) == _outcome(cut_map, m, walk)


@pytest.mark.parametrize("kind,arg", CUT_CASES, ids=[f"{k}-{a}" for k, a in CUT_CASES])
def test_refined_map_is_three_valent(kind, arg):
    # every corner has one arc dart and two quad sides, and no edge joins a
    # corner to itself, so a walk that repeats no edge meets each vertex at
    # most once: the only walks `_cut_map` cuts
    m = build_carter_surface(_diagram(kind, arg)).refined
    assert all(len(v) == 3 for v in m.vertices)
    assert all(m.vertex_of[d] != m.vertex_of[e] for d, e in m.edges)


@pytest.mark.parametrize("name", ["trefoil", "kishino", "section5_knot"])
def test_disk_test_refusals_match_union_find_cut(name):
    d = catalog(name)
    rep = build_carter_surface(d)
    refined = rep.refined
    curve = max(_traced_curves(d), key=len)
    refusals = {
        (): LoopNotOnSurface,
        curve[:-1]: LoopNotOnSurface,
        curve * 2: LoopNotEmbedded,
    }
    for walk, exc in refusals.items():
        assert _outcome(_cut_map, refined, walk) is exc
        assert _outcome(cut_map, refined, walk) is exc
    # each component runs straight through its crossings on the Carter map:
    # a closed walk with no repeated edge that crosses itself at a vertex
    carter = generic_map(rep)
    base = 0
    for comp in d.components:
        walk = [2 * (base + i) for i in range(len(comp))]
        base += len(comp)
        if len({p.crossing for p in comp}) < len(comp):
            assert _outcome(_cut_map, carter, walk) is LoopNotEmbedded
            assert _outcome(cut_map, carter, walk) is LoopNotEmbedded


SWEEP_CASES = (
    [("catalog", name) for name in catalog_names()]
    + [("p_family", n) for n in range(5)]
    + [("random", code) for code in _genus_two_codes(seed=23, count=8, max_crossings=10)]
)


@functools.cache
def _oracle_items(kind, arg) -> list:
    return list(bracket_chunk(build_carter_surface(_diagram(kind, arg))).items())


def _sweep_items(d) -> list:
    return list(_bracket_sum(build_carter_surface(d)).items())


def _three_orders(d) -> dict[str, list[int]]:
    n = d.n_crossings
    return {
        "greedy": greedy_order(StateTables(d)),
        "identity": list(range(n)),
        "reversed": list(range(n))[::-1],
    }


@pytest.mark.parametrize("kind,arg", SWEEP_CASES, ids=[f"{k}-{a}" for k, a in SWEEP_CASES])
def test_gray_walk_tally_matches_state_order_oracle(kind, arg):
    """The full bracket's sweep against the state-by-state oracle, items and
    order, under three crossing orders.  (The Gray walk of the name is
    gone; the sweep it tests replaced it.)"""
    d = _diagram(kind, arg)
    for name, order in _three_orders(d).items():
        with crossing_order(order):
            assert _sweep_items(d) == _oracle_items(kind, arg), name


def _seeded_codes(seed: int = 20261019, count: int = 40, max_crossings: int = 10) -> list[str]:
    rng = random.Random(seed)
    codes = []
    for _ in range(count):
        n = rng.randint(1, max_crossings)
        codes.append(random_gauss_code(rng, n, rng.randint(1, min(3, 2 * n))))
    return codes


def test_full_bracket_matches_state_order_oracle_on_seeded_codes():
    codes = _seeded_codes()
    assert max(parse_gauss_code(code).n_crossings for code in codes) == 10
    for code in codes:
        d = parse_gauss_code(code)
        expected = list(bracket_chunk(build_carter_surface(d)).items())
        for name, order in _three_orders(d).items():
            with crossing_order(order):
                assert _sweep_items(d) == expected, (code, name)


def test_full_bracket_sweep_on_a_crossingless_diagram():
    d = VirtualLinkDiagram((), {}, free_loops=2)
    assert d.n_crossings == 0
    rep = build_carter_surface(d)
    assert _sweep_items(d) == list(bracket_chunk(rep).items()) == [(((), 0), 1)]
    assert surface_bracket(rep).entries == {((), 0): d_power(2)}


@pytest.mark.parametrize(
    "d,genus", [(catalog("kishino"), 2), (parse_gauss_code(GENUS_THREE_CODE), 3)], ids=["kishino", "genus-3"]
)
def test_packed_field_width_follows_the_coefficients(d, genus):
    # every dart's class scaled by 2^40 + 1: the packed sums must still unpack
    # to the classes, which fields of any fixed width the unscaled classes
    # fit in would not hold, and the sweep must still sum as the
    # state-by-state oracle does
    scale = (1 << 40) + 1
    rep = build_carter_surface(d)
    h = rep.homology
    h.dart_vec = [tuple((k, v * scale) for k, v in vec) if vec else vec for vec in h.dart_vec]
    tables = StateTables(d)
    labels = _CurveLabels(rep)
    assert rep.genus == genus and labels.width > 41
    nonzero = 0
    keys: dict[frozenset, int] = {}
    for state in range(1 << tables.n):
        for curve, ends in zip(state_curves(rep, tables, state), tables.trace(state)):
            coords = loop_homology(rep, curve).coords
            packed, join_key = _fused_sum(labels, ends)
            assert keys.setdefault(frozenset(curve), join_key) == join_key
            assert unpack(packed, 2 * rep.genus, labels.width) in (coords, tuple(-x for x in coords))
            assert unpack(abs(packed), 2 * rep.genus, labels.width) == HomologyClass.canonical(coords).coords
            nonzero += any(coords)
    assert len(set(keys.values())) == len(keys)
    assert nonzero
    assert list(_bracket_sum(rep).items()) == list(bracket_chunk(rep).items())


@pytest.mark.parametrize("kind,arg", CASES, ids=[f"{k}-{a}" for k, a in CASES])
def test_entries_keep_first_state_order(kind, arg):
    # `per_torus` takes its witnesses in this order, so it is part of the
    # certificate's bytes
    d = _diagram(kind, arg)
    entries = surface_bracket(build_carter_surface(d)).entries
    assert list(entries) == list(reference_surface_bracket(d).entries)
