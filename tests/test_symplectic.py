"""Integer skew forms, symplectic reduction, and GF(2) rank."""

import importlib.util
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from oracle import check_standard, det_fraction, det_int, is_unimodular, pair, standard_form
from randgen import random_unimodular

from vknot import symplectic
from vknot.catalog import catalog, catalog_names, catalog_p_family
from vknot.diagram import parse_gauss_code
from vknot.surface import build_carter_surface
from vknot.symplectic import (
    NotUnimodularError,
    SkewForm,
    mod2_rank,
    symplectic_reduce,
)


def test_det_int_small():
    assert det_int([[2]]) == 2
    assert det_int([[1, 2], [3, 4]]) == -2
    assert det_int([[0, 1, 0], [1, 0, 0], [0, 0, 1]]) == -1


def test_det_int_matches_permanent_free_identity():
    rng = random.Random(7)
    for _ in range(20):
        n = rng.randrange(1, 5)
        m = [[rng.randrange(-4, 5) for _ in range(n)] for _ in range(n)]
        t = [[m[j][i] for j in range(n)] for i in range(n)]
        assert det_int(m) == det_int(t)


def test_det_int_matches_fraction_elimination():
    rng = random.Random(12)
    checked = {"singular": 0, "zero_lead": 0}
    for n in range(9):
        for trial in range(40):
            m = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
            if n and trial % 4 == 1:  # a row copied onto another, or a zero 1x1: singular
                if n == 1:
                    m = [[0]]
                else:
                    i, j = rng.sample(range(n), 2)
                    sign = rng.choice((1, -1))
                    m[j] = [sign * x for x in m[i]]
            if n > 1 and trial % 4 == 2:  # the first pivot is zero
                m[0][0] = 0
            det = det_fraction(m)
            assert det_int(m) == det
            checked["singular"] += det == 0
            checked["zero_lead"] += bool(n) and m[0][0] == 0
    assert checked["singular"] >= 50 and checked["zero_lead"] >= 50
    for name in catalog_names():
        form = build_carter_surface(catalog(name)).homology.form
        assert det_int(form.entries) == det_fraction(form.entries)
    for n in range(4):
        form = build_carter_surface(catalog_p_family(n)).homology.form
        assert det_int(form.entries) == det_fraction(form.entries) in (1, -1)


def test_standard_form():
    j = standard_form(2)
    assert j.dim == 4
    assert pair(j, [1, 0, 0, 0], [0, 1, 0, 0]) == 1
    assert pair(j, [0, 1, 0, 0], [1, 0, 0, 0]) == -1
    assert is_unimodular(j)


def test_skew_form_rejects_non_skew():
    with pytest.raises(ValueError):
        SkewForm.from_rows([[1, 0], [0, 1]])


def test_reduce_standard_is_identity_like():
    basis = symplectic_reduce(standard_form(3))
    assert basis.dim // 2 == 3
    assert basis.to_symplectic([1, 0, 0, 0, 0, 0])  # well-defined


def test_reduce_rejects_degenerate():
    form = SkewForm.from_rows([[0, 2], [-2, 0]])
    with pytest.raises(NotUnimodularError):
        symplectic_reduce(form)


def _congruent(rows, u):
    """u^T . rows . u."""
    n = len(rows)
    pairs = [(a, b) for a in range(n) for b in range(n)]
    return [[sum(u[a][i] * rows[a][b] * u[b][j] for a, b in pairs) for j in range(n)] for i in range(n)]


def test_reduce_refuses_forms_that_are_not_unimodular_without_a_determinant():
    """A singular 4x4 form and J + 3J (determinant 9), as given and under 30
    seeded unimodular congruences each, are refused with NotUnimodularError
    by the pivot checks of the reduction; no determinant is taken, as
    `vknot.symplectic` defines no determinant routine."""
    names = [*vars(symplectic), *vars(symplectic.SkewForm)]
    assert not [name for name in names if name.startswith("det") or "determinant" in name]
    singular = [[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]
    det_nine = [[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 3], [0, 0, -3, 0]]
    rng = random.Random(20261025)
    for rows in (singular, det_nine):
        assert det_fraction(rows) == (0 if rows is singular else 9)
        for u in [[[int(i == j) for j in range(4)] for i in range(4)]] + [random_unimodular(4, rng) for _ in range(30)]:
            with pytest.raises(NotUnimodularError):
                symplectic_reduce(SkewForm.from_rows(_congruent(rows, u)))
    # a unimodular form still reduces
    unimodular = _congruent(standard_form(2).entries, random_unimodular(4, rng))
    assert symplectic_reduce(SkewForm.from_rows(unimodular)).dim // 2 == 2


def _conjugated_standard(g: int, rng) -> SkewForm:
    dim = 2 * g
    u = random_unimodular(dim, rng)
    j = standard_form(g).entries
    m = [[0] * dim for _ in range(dim)]
    for i in range(dim):
        for k in range(dim):
            m[i][k] = sum(u[a][i] * j[a][b] * u[b][k] for a in range(dim) for b in range(dim))
    return SkewForm.from_rows(m)


def test_reduce_postcondition_random_conjugates():
    """symplectic_reduce recovers a standard basis from 100 U^T J U inputs."""
    rng = random.Random(2026)
    for trial in range(100):
        g = 1 + trial % 3  # dims 2, 4, 6
        form = _conjugated_standard(g, rng)
        basis = symplectic_reduce(form)
        assert basis.dim // 2 == g
        dim = 2 * g
        vecs = [[1 if i == k else 0 for k in range(dim)] for i in range(dim)]
        std = standard_form(g)
        sym = [basis.to_symplectic(v) for v in vecs]
        # the recovered coordinates carry the form to the standard one
        for a in range(dim):
            for b in range(dim):
                assert form.entries[a][b] == pair(std, sym[a], sym[b])


def test_random_unimodular_has_unit_determinant():
    rng = random.Random(5)
    for dim in (2, 3, 4, 6):
        assert det_int(random_unimodular(dim, rng)) in (1, -1)


def _rank_oracle(vectors):
    rows = [sum((v & 1) << i for i, v in enumerate(vec)) for vec in vectors]
    rank = 0
    for col in range(64):
        idx = next((k for k, r in enumerate(rows) if (r >> col) & 1), None)
        if idx is None:
            continue
        pivot = rows.pop(idx)
        rows = [r ^ pivot if (r >> col) & 1 else r for r in rows]
        rank += 1
    return rank


def test_mod2_rank_against_oracle():
    rng = random.Random(11)
    for _ in range(100):
        n, dim = rng.randrange(0, 6), rng.randrange(1, 7)
        vecs = [[rng.randrange(-3, 4) for _ in range(dim)] for _ in range(n)]
        assert mod2_rank(vecs) == _rank_oracle(vecs)
    # repeated parity vectors (repeated vectors, and others of the same
    # parity), and all-even vectors, which reduce to zero
    for _ in range(100):
        n, dim = rng.randrange(1, 6), rng.randrange(1, 7)
        vecs = [[rng.randrange(-3, 4) for _ in range(dim)] for _ in range(n)]
        repeated = vecs + [rng.choice(vecs) for _ in range(rng.randrange(1, 6))]
        repeated += [[v + 2 * rng.randrange(-2, 3) for v in rng.choice(vecs)] for _ in range(3)]
        rng.shuffle(repeated)
        evens = [[2 * rng.randrange(-3, 4) for _ in range(dim)] for _ in range(rng.randrange(1, 6))]
        for case in (repeated, evens, evens + vecs, vecs + evens + vecs):
            assert mod2_rank(case) == _rank_oracle(case), case
        assert mod2_rank(evens) == 0
        assert mod2_rank(repeated) == mod2_rank(vecs)


def test_mod2_rank_basics():
    assert mod2_rank([]) == 0
    assert mod2_rank([[2, 4], [6, 8]]) == 0
    assert mod2_rank([[1, 0], [0, 1], [1, 1]]) == 2


def test_failed_postcondition_raises_without_assert(monkeypatch):
    """A corrupted column step, which the form takes once and `change`
    twice, is caught by the postcondition: ArithmeticError, not
    AssertionError, and no pivot refusal."""
    form = build_carter_surface(catalog("kishino")).homology.form
    add = symplectic._add

    def corrupt_add(entries, change, i, j, q):
        add(entries, change, i, j, q)
        for row in change:
            row[j] += q * row[i]

    monkeypatch.setattr(symplectic, "_add", corrupt_add)
    with pytest.raises(ArithmeticError, match="postcondition failed") as err:
        symplectic_reduce(form)
    assert not isinstance(err.value, (AssertionError, NotUnimodularError))


#: The corrupted column step of the test above, under `python -O`.
POSTCONDITION_UNDER_O = """
import vknot.symplectic as symplectic
from vknot.catalog import catalog
from vknot.surface import build_carter_surface

assert False, "asserts must be stripped"
form = build_carter_surface(catalog("kishino")).homology.form
add = symplectic._add


def corrupt_add(entries, change, i, j, q):
    add(entries, change, i, j, q)
    for row in change:
        row[j] += q * row[i]


symplectic._add = corrupt_add
try:
    symplectic.symplectic_reduce(form)
except ArithmeticError as exc:
    print(type(exc).__name__, exc)
"""


def test_failed_postcondition_raises_under_python_O():
    """The postcondition is an if/raise, which `python -O` keeps: a
    corrupted column step still makes `symplectic_reduce` raise it."""
    env = dict(os.environ, PYTHONPATH=str(Path(symplectic.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-O", "-c", POSTCONDITION_UNDER_O], capture_output=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.decode().splitlines() == [
        "ArithmeticError symplectic reduction postcondition failed: change^T . form . change != J"
    ]


def _random_certify_pool() -> list[str]:
    """The Gauss codes of the benchmark's random_certify workload."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return [argv[1] for argv, _ in workloads.all_ops("random_certify")]


def _pool_forms() -> list:
    """The nonzero forms of the catalog, `catalog_p_family(0..9)` and the
    benchmark's random_certify pool."""
    diagrams = [catalog(name) for name in catalog_names()] + [catalog_p_family(n) for n in range(10)]
    diagrams += [parse_gauss_code(code) for code in _random_certify_pool()]
    return [h for h in (build_carter_surface(d).homology for d in diagrams) if h.basis is not None]


def test_check_standard_matches_quadruple_sum():
    """The package's postcondition and the quadruple-sum reference accept
    every basis of the pool and refuse two perturbed changes per form."""
    checked = 0
    for h in _pool_forms():
        assert symplectic._certified_inverse(h.form, h.basis.change) == h.basis.inverse
        assert check_standard(h.form, h.basis)
        # change + e_i e_j^T has determinant det(change) + cofactor(i, j), with
        # cofactor(i, j) = inverse[j][i] * det(change); where that is nonzero
        # the determinant moves, but every change taking the form to J has
        # determinant 1 / Pf(form)
        n = h.form.dim
        entries = [(i, j) for j in range(n) for i in range(n) if h.basis.inverse[j][i]]
        for i, j in {entries[0], entries[-1]}:
            change = [list(row) for row in h.basis.change]
            change[i][j] += 1
            broken = h.basis._replace(change=tuple(map(tuple, change)))
            with pytest.raises(ArithmeticError, match="postcondition failed"):
                symplectic._certified_inverse(h.form, broken.change)
            assert not check_standard(h.form, broken)
        checked += 1
    assert checked > 90


def test_inverse_times_change_is_identity():
    """`inverse`, read off the postcondition's product, is the inverse of
    `change` on every form of the pool."""
    checked = 0
    for h in _pool_forms():
        n, inverse, change = h.basis.dim, h.basis.inverse, h.basis.change
        product = [[sum(inverse[i][k] * change[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
        assert product == [[int(i == j) for j in range(n)] for i in range(n)]
        checked += 1
    assert checked > 90
