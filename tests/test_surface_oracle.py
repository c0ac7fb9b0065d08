"""The memoised surface bracket against a per-loop reference built here.

The reference walks every state's curves itself, classifies every curve of
every state with the public `is_disk_bounding` and `loop_homology` (no memo,
disk test first), and sums `A^c(s) d^k` with `LaurentPoly`.
"""

import multiprocessing
import random

import pytest
from randgen import random_gauss_code
from test_parallel import _RecordingPool

import vknot.analysis as analysis
import vknot.parallel as parallel
from vknot.analysis import SurfaceBracket, certify, surface_bracket
from vknot.bracket import StateTables, bracket_by_recursion, kauffman_bracket
from vknot.catalog import catalog, catalog_names, catalog_p_family
from vknot.diagram import parse_gauss_code
from vknot.laurent import LOOP_VALUE, LaurentPoly
from vknot.surface import build_carter_surface, is_disk_bounding, loop_homology


def _random_codes(seed: int = 20261018, count: int = 16) -> list[str]:
    rng = random.Random(seed)
    return [random_gauss_code(rng, rng.randint(1, 8), rng.randint(1, 2)) for _ in range(count)]


def _state_curves(rep, tables: StateTables, state: int) -> list[tuple[int, ...]]:
    """Refined-map dart cycles of one state, walked from the smoothing joins."""
    partner = {}
    for k in range(tables.n):
        p, q, r, s = tables.joins[k][(state >> k) & 1]
        partner.update({p: q, q: p, r: s, s: r})
    refined = rep.refined
    seen: set[int] = set()
    curves = []
    for start in range(0, 2 * tables.n_arcs, 2):
        if start in seen:
            continue
        darts = []
        end = start
        while end not in seen:
            seen.update((end, end ^ 1))
            nxt = partner[end ^ 1]
            ci, k_in = refined.position_of[end ^ 1]
            cj, k_out = refined.position_of[nxt]
            assert ci == cj
            darts += [end, refined.side_dart(ci, k_in, k_out)]
            end = nxt
        curves.append(tuple(darts))
    return curves


def reference_surface_bracket(d) -> SurfaceBracket:
    rep = build_carter_surface(d)
    tables = StateTables(d)
    entries: dict = {}
    for state in range(1 << tables.n):
        disks, classes, null_essential = rep.free_loops, [], 0
        for curve in _state_curves(rep, tables, state):
            if is_disk_bounding(rep, curve):
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


def _genus_two_codes(seed: int = 7, count: int = 4) -> list[str]:
    rng = random.Random(seed)
    codes: list[str] = []
    while len(codes) < count:
        code = random_gauss_code(rng, rng.randint(6, 8), rng.randint(1, 2))
        if build_carter_surface(parse_gauss_code(code)).genus >= 2:
            codes.append(code)
    return codes


def test_parallel_two_matches_serial(monkeypatch):
    rep = build_carter_surface(catalog_p_family(1))
    assert rep.diagram.n_crossings == 8
    assert surface_bracket(rep, parallel=1).to_json() == surface_bracket(rep, parallel=2).to_json()
    # ranges merged in process: each range numbers its classes in its own
    # order, and the merge must not depend on that
    diagrams = [catalog_p_family(0), catalog_p_family(1)] + [parse_gauss_code(c) for c in _genus_two_codes()]
    monkeypatch.setattr(multiprocessing, "Pool", _RecordingPool)
    for cpus in (3, 5):
        monkeypatch.setattr(parallel, "usable_cpus", lambda: cpus)
        _RecordingPool.sizes = []
        for d in diagrams:
            rep = build_carter_surface(d)
            assert surface_bracket(rep, parallel=cpus).to_json() == surface_bracket(rep).to_json()
            assert certify(d, parallel=cpus).to_json() == certify(d).to_json()
            assert kauffman_bracket(d) == bracket_by_recursion(d)
        assert _RecordingPool.sizes == [cpus] * (2 * len(diagrams))


def test_each_distinct_curve_is_classified_once(monkeypatch):
    d = catalog_p_family(1)
    rep = build_carter_surface(d)
    tables = StateTables(d)
    curves = {frozenset(c): c for s in range(1 << tables.n) for c in _state_curves(rep, tables, s)}
    null_homologous = [c for c in curves.values() if loop_homology(rep, c).is_zero()]
    calls = {"homology": 0, "disk": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    monkeypatch.setattr(analysis, "loop_homology", counted("homology", loop_homology))
    monkeypatch.setattr(analysis, "is_disk_bounding", counted("disk", is_disk_bounding))
    surface_bracket(rep)
    assert calls["homology"] == len(curves)
    assert calls["disk"] == len(null_homologous)
