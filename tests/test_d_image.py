"""The frontier sweep of the d-image of the surface bracket, which `certify`
runs, against the full surface bracket (`analysis._bracket_sum`), which
`surface_bracket` runs.

The d-image sends each null-homologous essential symbol to d, so its
state sum is the full one with the null-essential count merged into the
loop count; both list their labels by smallest state index.  Both are
swept by `frontier.labelled_state_sum`, so the full bracket is checked on
its own against the state-by-state oracle (tests/test_surface_oracle.py),
and both against the planar bracket by `collapse()`.  At Carter genus <= 1
`surface_bracket` is the d-image, checked here against the curve-named
sweep `_bracket_sum` that it runs at genus >= 2.
"""

import importlib.util
import os
import random
import subprocess
import sys
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import oracle
import pytest
from randgen import GENUS_THREE_CODE, braid_closure, random_braid_word, random_gauss_code

from vknot import analysis, frontier, surface
from vknot.analysis import certify, d_image_bracket, per_torus_criterion, surface_bracket
from vknot.bracket import StateTables, bracket_partial, d_power, f_polynomial, kauffman_bracket
from vknot.catalog import catalog, catalog_names, catalog_p_family
from vknot.diagram import VirtualLinkDiagram, format_gauss_code, parse_gauss_code, virtualize_crossing
from vknot.frontier import SignedFields, greedy_order, packed_fields, read_packed
from vknot.laurent import LOOP_VALUE, LaurentPoly
from vknot.surface import HomologyClass, build_carter_surface, genus

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

#: Genus 2, NonClassical(2) on per-torus alone: every surviving class is
#: orthogonal to (0, 1, 0, -1).
PER_TORUS_CODE = "U4+U7+O5+O8-O4+U9-O3-U5+O7+U3-U6+U1+O2+O6+O9-O1+U2+U8-"
#: Genus 4: the one code of the 618 compared whose per-torus witnesses
#: differ between the d-image and the full bracket (same classes, same
#: verdict; see `test_witness_order_may_differ_but_not_the_classes`).
WITNESS_ORDER_CODE = "U6-O1+O5-U2+O3-O12-O2+U12-O8-U3-U11-O9+U9+O6-;U10-O11-O10-U8-U1+U7-O4+U5-;O7-U4+"
#: Genus 2: 8 classes survive in the full bracket, 4 of them in the d-image,
#: and per-torus still holds on those 4.
CLASS_LOSING_CODE = "U4+;O5+O4+U5+O1-U2-U1-O3+U3+;O2-"
#: Genus 2, f = 1, NonClassical(2) by per-torus alone: a false certificate,
#: since the removal moves of UNKNOTTING_MOVES reduce it to a kink.
FALSE_CERTIFICATE_CODE = "U6-U5+O4-U1-O5+O6-O1-U2-O2-O8+U4-U8+O7-O3+U3+U7-"
#: R1 {2}, R2 {5, 6}, R1 {1}, R2 {4, 8}, R1 {7}.
UNKNOTTING_MOVES = ({2}, {5, 6}, {1}, {4, 8}, {7})
#: Genus 2, 4 crossings, f = 1, NonClassical(2): the smallest false
#: certificate known, a diagram of the unknot by R2 {1, 2} and R2 {3, 4}.
SMALLEST_FALSE_CERTIFICATE_CODE = "O1+O2-O3+U4-U3+O4-U1+U2-"


def _pool_codes() -> list[str]:
    """The Gauss codes of the `random_certify` benchmark pool, read from
    perfbench/workloads.py, which is neither changed nor run as a script."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [argv[1] for argv, _ in module.all_ops("random_certify")]


def _random_codes(seed: int = 20261019, count: int = 60) -> list[str]:
    rng = random.Random(seed)
    codes = []
    for _ in range(count):
        n = rng.randint(1, 12)
        codes.append(random_gauss_code(rng, n, rng.randint(1, min(3, 2 * n))))
    return codes


#: Every diagram of 12 crossings or fewer that these tests name.
SMALL = (
    [(name, catalog(name)) for name in catalog_names()]
    + [(f"p_family({n})", catalog_p_family(n)) for n in range(4)]
    + [(code, parse_gauss_code(code)) for code in (GENUS_THREE_CODE, PER_TORUS_CODE, WITNESS_ORDER_CODE, CLASS_LOSING_CODE)]
    + [(code, parse_gauss_code(code)) for code in _random_codes()]
)
POOL = _pool_codes()
#: The twist family at 14 and 16 crossings, where most of the 2^n states
#: repeat the curves of others.
TWIST = [(f"p_family({n})", catalog_p_family(n)) for n in (4, 5)]


def test_unpack_class_inverts_pack_up_to_sign():
    """`analysis._pack` puts coordinate 0 in the top field, from the nonzero
    (k, value) pairs in any order.  The class reader reads a packed int as
    it is: -packed reads as the negated class, and abs(packed), which a
    label holds, as the canonical class."""
    rng = random.Random(20261019)
    for _ in range(300):
        width, dim = rng.randint(2, 9), 2 * rng.randint(1, 5)
        coords = [rng.randint(-(1 << (width - 2)), 1 << (width - 2)) for _ in range(dim)]
        packed = analysis._pack(enumerate(coords), width, dim)
        pairs = [(k, v) for k, v in enumerate(coords) if v]
        rng.shuffle(pairs)
        assert analysis._pack(pairs, width, dim) == packed
        assert oracle.unpack(packed, dim, width) == tuple(coords)
        read = analysis._class_reader(dim, width)
        assert read(packed) == HomologyClass(tuple(coords))
        assert read(-packed) == HomologyClass(tuple(-x for x in coords))
        assert read(abs(packed)) == HomologyClass.canonical(coords)


def test_packed_int_order_is_class_order():
    """In fields of the width `_class_steps` gives a coordinate bound, the
    top nonzero field, coordinate 0's side, fixes the sign of a packed int:
    abs() packs the canonical class, the reader returns it from there, and
    packed ints, signed or canonical, sort as their classes do."""
    rng = random.Random(20261024)
    for _ in range(300):
        bits = rng.randint(1, 40)
        bound = rng.choice((1, 2, 3, 1 << bits, (1 << bits) - 1, rng.randint(1, 1 << 50)))
        width, dim = bound.bit_length() + 1, 2 * rng.randint(1, 5)
        read = analysis._class_reader(dim, width)
        values = (bound, -bound, 0, 1, -1)
        vectors = [[rng.choice(values + (rng.randint(-bound, bound),)) for _ in range(dim)] for _ in range(12)]
        packed = [analysis._pack(enumerate(c), width, dim) for c in vectors]
        for c, p in zip(vectors, packed):
            canonical = HomologyClass.canonical(c)
            assert abs(p) == analysis._pack(enumerate(canonical.coords), width, dim)
            assert read(abs(p)) == canonical
        assert [read(p) for p in sorted(packed)] == sorted(HomologyClass(tuple(c)) for c in vectors)
        assert [read(p) for p in sorted(map(abs, packed))] == sorted(map(HomologyClass.canonical, vectors))


def test_signed_fields_round_trip_at_the_widest_coefficients():
    """A field of `frontier.packed_fields(n, s)` holds the coefficient bound
    2^n 2^(n + s) of the value of a state sum on s strands, and every
    coefficient up to +-(2^(W - 1) - 1), next to any others, reads back
    unchanged, in every field up to the top exponent M + n + (n + s)."""
    rng = random.Random(20261019)
    for n in range(13):
        for strands in range(1, 5):
            fields = packed_fields(n, strands)
            _, width, offset = fields
            top = (1 << (width - 1)) - 1
            bound = 1 << 2 * n + strands
            assert bound <= top and offset >= n + strands
            signed = SignedFields(width, 3 * n + 2 * strands + 1)
            for _ in range(30):
                coeffs = [
                    rng.choice((top, -top, bound, -bound, 0, rng.randint(-top, top)))
                    for _ in range(3 * n + 2 * strands + 1)
                ]
                packed = sum(c << (j * width) for j, c in enumerate(coeffs))
                assert signed.read(signed.biased(packed)) == coeffs
                expected = LaurentPoly({n - 2 * (j - offset): c for j, c in enumerate(coeffs)})
                assert read_packed(packed, fields) == expected
            with pytest.raises(ArithmeticError, match="beyond its last field"):
                SignedFields(width, 1).biased(1 << (width - 1))


SIGNED_FIELDS_EDGES = """
from vknot.frontier import SignedFields

assert False, "asserts must be stripped"
for width, count in ((2, 1), (3, 4), (5, 0), (8, 2), (35, 57)):
    half = 1 << (width - 1)
    bias = sum(half << (k * width) for k in range(count))
    low, high = -bias, (1 << (width * count)) - 1 - bias
    signed = SignedFields(width, count)
    print(signed.read(signed.biased(low)) == [-half] * count, signed.read(signed.biased(high)) == [half - 1] * count)
    for outside in (low - 1, high + 1):
        try:
            signed.biased(outside)
        except ArithmeticError as exc:
            print("refused:", exc)
"""


def test_signed_fields_range_ends_under_python_O():
    """The two ends of the range, -bias and 2^(W count) - 1 - bias, read
    back as all-lowest and all-highest fields; one past either end is
    refused by an if/raise, which `python -O` keeps."""
    env = dict(os.environ, PYTHONPATH=str(Path(frontier.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-O", "-c", SIGNED_FIELDS_EDGES], capture_output=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    refused = "refused: packed value has bits beyond its last field"
    assert proc.stdout.decode().splitlines() == ["True True", refused, refused] * 5


def test_signed_fields_match_the_borrowing_reader():
    """The biased one-pass read against the field-by-field reader with
    borrows (tests/oracle.py `borrowed_fields`), inside and just outside the range."""
    rng = random.Random(20261019)
    for _ in range(500):
        width, count = rng.randint(2, 12), rng.randint(0, 9)
        half = 1 << (width - 1)
        bias = sum(half << (k * width) for k in range(count))
        low, high = -bias, (1 << (width * count)) - 1 - bias
        signed = SignedFields(width, count)
        for packed in (low, high, rng.randint(low, high), low - 1, high + 1, low - rng.randint(1, 1 << 20)):
            try:
                expected = list(oracle.borrowed_fields(packed, count, width))
            except ValueError:
                expected = None
            if expected is None:
                with pytest.raises(ArithmeticError):
                    signed.biased(packed)
            else:
                assert signed.read(signed.biased(packed)) == expected


def _kinks(m: int, sign: str, sep: str):
    """m one-crossing kinks of one sign: one chain with sep "", m split
    curls with sep ";"."""
    return parse_gauss_code(sep.join(f"O{i}{sign}U{i}{sign}" for i in range(1, m + 1)))


@pytest.mark.parametrize("sep", ["", ";"], ids=["chain", "split"])
@pytest.mark.parametrize("sign", "+-")
def test_d_image_collapses_where_the_most_loops_close(sign, sep):
    """A chain of m kinks has a state with m + 1 loops, and m split curls
    one with 2m, the most any state of m crossings has; the offset M of
    `frontier.packed_fields` keeps every exponent positive through them
    all.  The planar sweep is the oracle."""
    for m in range(1, 13):
        d = _kinks(m, sign, sep)
        loops = max(k for _, k in bracket_partial(d, 0, 1 << m))
        assert loops == (2 * m if sep else m + 1)
        assert d_image_bracket(build_carter_surface(d)).collapse() == LOOP_VALUE * kauffman_bracket(d), m


def test_d_image_collapses_to_the_planar_bracket_at_26_to_46_crossings():
    for n in range(10, 21):
        d = catalog_p_family(n)
        assert d_image_bracket(build_carter_surface(d)).collapse() == LOOP_VALUE * kauffman_bracket(d), n


@pytest.mark.parametrize("n", [5, 6, 7], ids=lambda n: f"p_family({n})")
def test_full_bracket_collapses_and_merges_to_the_d_image_at_16_to_20_crossings(n):
    """Past the state-by-state oracle's reach: the full bracket collapses to
    d times the planar bracket, and sending its null-essential symbols to d
    gives the d-image."""
    d = catalog_p_family(n)
    rep = build_carter_surface(d)
    assert d.n_crossings == 6 + 2 * n
    full = surface_bracket(rep)
    assert full.collapse() == LOOP_VALUE * kauffman_bracket(d)
    merged = {key: p for key, p in _merged(rep).items() if not p.is_zero()}
    assert list(merged.items()) == list(d_image_bracket(rep).entries.items())


def _merged(rep):
    """The polynomials of the full surface state sum (`analysis._bracket_sum`)
    with each label's null-essential symbols sent to d, and the free loops'
    d^free_loops, labels in their first order, zero-valued ones included."""
    fields = rep.tables.fields
    out = {}
    for (classes, essential), value in analysis._bracket_sum(rep).items():
        key = (classes, 0)
        out[key] = out.get(key, LaurentPoly.zero()) + read_packed(value, fields) * d_power(essential)
    return {key: p * d_power(rep.diagram.free_loops) for key, p in out.items()}


def _read(rep, image):
    """The packed polynomials of `analysis._image_sum`, laid out by the
    surface's tables, read, with the free loops' d^free_loops."""
    fields, free = rep.tables.fields, d_power(rep.diagram.free_loops)
    return {label: read_packed(value, fields) * free for label, value in image.items()}


@pytest.mark.parametrize("d", [d for _, d in SMALL + TWIST], ids=[name for name, _ in SMALL + TWIST])
def test_sweep_equals_merged_gray_walk_under_three_orders(d):
    """The d-image swept in three crossing orders equals the full sweep
    with its null-essential symbols sent to d, labels and order.  (The
    state-by-state Gray walk of the name is gone; the full sweep took its
    place as the reference.)"""
    rep = build_carter_surface(d)
    expected = _merged(rep)
    n = d.n_crossings
    greedy = greedy_order(StateTables(d))
    for name, order in (("greedy", greedy), ("identity", list(range(n))), ("reversed", list(range(n))[::-1])):
        with oracle.crossing_order(order):
            got = _read(rep, analysis._image_sum(rep))
        assert got == expected, name
        assert list(got) == list(expected), name


def test_image_sweep_equals_merged_full_sweep_on_the_pool():
    for code in POOL:
        rep = build_carter_surface(parse_gauss_code(code))
        got = _read(rep, analysis._image_sum(rep))
        expected = _merged(rep)
        assert got == expected and list(got) == list(expected), code


def test_class_set_equals_surface_bracket_on_the_pool():
    assert len(POOL) == 96
    for code in POOL:
        rep = build_carter_surface(parse_gauss_code(code))
        assert set(d_image_bracket(rep).nonzero_classes()) == set(surface_bracket(rep).nonzero_classes()), code


@pytest.mark.parametrize("d", [d for _, d in SMALL], ids=[name for name, _ in SMALL])
def test_d_image_collapses_to_the_planar_bracket(d):
    rep = build_carter_surface(d)
    image = d_image_bracket(rep)
    assert all(essential == 0 for _, essential in image.entries)
    assert image.collapse() == surface_bracket(rep).collapse()
    assert list(analysis._image_classes(rep)) == image.nonzero_classes()


def test_image_classes_keep_the_bracket_order_on_the_pool_and_the_twist_family():
    """`certify`'s classes, read from the labels whose int is nonzero, are
    the d-image bracket's nonzero classes in its order (label order, then
    coordinates within a label), beyond the small cases."""
    diagrams = [(code, parse_gauss_code(code)) for code in POOL]
    diagrams += [(f"p_family({n})", catalog_p_family(n)) for n in range(7)]
    for name, d in diagrams:
        rep = build_carter_surface(d)
        assert list(analysis._image_classes(rep)) == d_image_bracket(rep).nonzero_classes(), name


def test_family_report_through_46_crossings():
    for n in range(21):
        assert str(certify(catalog_p_family(n))) == "NonClassical(2)", n
        assert f_polynomial(catalog_p_family(n)) == LaurentPoly.one(), n


def test_witness_order_may_differ_but_not_the_classes():
    """Sending the null-essential symbol to d merges keys, so a class can
    first survive at a different key; the class set and the verdict stay."""
    rep = build_carter_surface(parse_gauss_code(WITNESS_ORDER_CODE))
    full, image = surface_bracket(rep), d_image_bracket(rep)
    assert rep.genus == 4
    assert set(image.nonzero_classes()) == set(full.nonzero_classes())
    assert image.nonzero_classes() != full.nonzero_classes()
    satisfied = [per_torus_criterion(sb.nonzero_classes(), 4).satisfied for sb in (image, full)]
    assert satisfied[0] == satisfied[1]


def test_d_image_may_lose_classes():
    """Keys that differ only in their null-essential count merge in the
    d-image, and their coefficients can cancel: fewer classes survive, never
    others, so a NonClassical verdict from the image is sound."""
    rep = build_carter_surface(parse_gauss_code(CLASS_LOSING_CODE))
    full, image = set(surface_bracket(rep).nonzero_classes()), set(d_image_bracket(rep).nonzero_classes())
    assert (rep.genus, len(full), len(image)) == (2, 8, 4)
    assert image < full
    assert str(certify(parse_gauss_code(CLASS_LOSING_CODE))) == "NonClassical(2)"


def _rational_rank(rows) -> int:
    rows = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                f = rows[r][col] / rows[rank][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def test_per_torus_holds_on_classes_orthogonal_to_one_class():
    """The surviving classes of this genus-2 code span a rank-3 sublattice,
    all orthogonal to gamma = (0, 1, 0, -1), and still meet per-torus (a
    fact the criterion's argument has to cover, not a verdict)."""
    rep = build_carter_surface(parse_gauss_code(PER_TORUS_CODE))
    assert rep.genus == 2
    gamma = HomologyClass((0, 1, 0, -1))
    for sb in (surface_bracket(rep), d_image_bracket(rep)):
        classes = sb.nonzero_classes()
        assert per_torus_criterion(classes, 2).satisfied
        assert _rational_rank([c.coords for c in classes]) == 3 == 2 * rep.genus - 1
        assert all(oracle.intersection_number(gamma, c) == 0 for c in classes)


def test_per_torus_certifies_a_diagram_of_the_unknot():
    """Per-torus alone gives NonClassical(2), yet five Reidemeister moves
    that keep f reduce the diagram to a kink; the genus is 1 after the
    second."""
    d = parse_gauss_code(FALSE_CERTIFICATE_CODE)
    cert = certify(d)
    assert str(cert) == "NonClassical(2)"
    assert [c.satisfied for c in cert.criteria] == [True, False]
    assert f_polynomial(d) == LaurentPoly.one()
    genera = []
    for crossings in UNKNOTTING_MOVES:
        d = oracle.removal_move(d, crossings)
        assert f_polynomial(d) == LaurentPoly.one(), crossings
        genera.append(genus(d))
    assert format_gauss_code(d) == "O3+U3+"
    assert genera == [2, 1, 1, 0, 0]


def test_removal_moves_keep_the_f_polynomial_on_seeded_codes():
    """Every R1 and R2 removal that `oracle.removal_move` accepts, on 600
    seeded codes of 2-10 crossings and 1-3 components, keeps the
    f-polynomial: 608 R1 and 144 R2 moves."""
    rng = random.Random(5)
    counts = {1: 0, 2: 0}
    for _ in range(600):
        n = rng.randint(2, 10)
        d = parse_gauss_code(random_gauss_code(rng, n, rng.randint(1, 3)))
        f = f_polynomial(d)
        for size in counts:
            for crossings in combinations(d.crossing_ids, size):
                try:
                    moved = oracle.removal_move(d, set(crossings))
                except ValueError:
                    continue
                counts[size] += 1
                assert f_polynomial(moved) == f, (format_gauss_code(d), crossings)
    assert counts == {1: 608, 2: 144}


def test_two_r2_moves_reduce_the_smallest_false_certificate_to_the_unknot():
    d = parse_gauss_code(SMALLEST_FALSE_CERTIFICATE_CODE)
    assert f_polynomial(d) == LaurentPoly.one()
    d = oracle.removal_move(d, {1, 2})
    assert (format_gauss_code(d), genus(d)) == ("O3+U4-U3+O4-", 1)
    d = oracle.removal_move(d, {3, 4})
    assert format_gauss_code(d) == "U"


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1")
@pytest.mark.parametrize("code", [FALSE_CERTIFICATE_CODE, SMALLEST_FALSE_CERTIFICATE_CODE])
def test_a_diagram_of_the_unknot_is_not_certified(code):
    assert certify(parse_gauss_code(code)).verdict != "NonClassical"


def _genus_at_most_one_codes(seed: int = 20261025, count: int = 60) -> list[str]:
    """`count` distinct seeded codes of 1-10 crossings and Carter genus <= 1."""
    rng = random.Random(seed)
    codes: dict[str, None] = {}
    while len(codes) < count:
        n = rng.randint(1, 10)
        code = random_gauss_code(rng, n, rng.randint(1, min(3, 2 * n)))
        if genus(parse_gauss_code(code)) <= 1:
            codes[code] = None
    return list(codes)


#: The catalog's classical entries (Carter genus 0) with a crossing.
CLASSICAL = [name for name in catalog_names() if catalog(name).n_crossings and genus(catalog(name)) == 0]
#: Every single virtualization of a classical catalog entry.
VIRTUALIZATIONS = [
    (f"{name}-v{c}", virtualize_crossing(catalog(name), c)) for name in CLASSICAL for c in catalog(name).crossing_ids
]
ORACLE_CASES = (
    [(name, catalog(name)) for name in catalog_names()]
    + [(code, parse_gauss_code(code)) for code in _genus_at_most_one_codes()]
    + VIRTUALIZATIONS
)


def test_single_virtualizations_of_classical_entries_have_genus_at_most_one():
    """A torus, but for the kink's one crossing and `linkL`'s crossing 4,
    where the surface stays a sphere."""
    assert len(CLASSICAL) == 6 and len(VIRTUALIZATIONS) == 21
    assert {name: genus(d) for name, d in VIRTUALIZATIONS if genus(d) != 1} == {"kink-v1": 0, "linkL-v4": 0}


@pytest.mark.parametrize("d", [d for _, d in ORACLE_CASES], ids=[name for name, _ in ORACLE_CASES])
def test_surface_bracket_equals_the_curve_named_sweep(d):
    """`surface_bracket` against the full sweep `_bracket_sum` on every
    catalog entry, seeded codes of genus <= 1 and the single
    virtualizations of the classical entries: at genus <= 1 every
    null-homologous curve bounds a disk, so the d-image it sweeps there is
    the full bracket, the same JSON and the same entries in the same order."""
    rep = build_carter_surface(d)
    got = surface_bracket(rep)
    expected = analysis._surface_bracket(rep, analysis._bracket_sum(rep))
    assert got.to_json() == expected.to_json()
    assert list(got.entries.items()) == list(expected.entries.items())


def test_surface_brackets_build_no_homology_at_genus_zero():
    """At Carter genus 0 every class is zero, so `surface_bracket` and
    `d_image_bracket` build neither the refined map nor its homology."""
    names = [name for name in catalog_names() if genus(catalog(name)) == 0]
    assert len(names) == 8
    for name in names:
        for bracket in (surface_bracket, d_image_bracket):
            rep = build_carter_surface(catalog(name))
            bracket(rep)
            assert not {"refined", "homology"} & set(vars(rep)), (name, bracket.__name__)


def _braid_closures() -> list[VirtualLinkDiagram]:
    """The 18-crossing closure of `random_braid_word(random.Random(1), 4, 18)`
    and its virtualization at crossing 1 (timed in CHANGES.md), and seeded
    closures of 10-16 crossings on 2-5 strands with one virtualization each."""
    d = parse_gauss_code(braid_closure(random_braid_word(random.Random(1), 4, 18), 4))
    out = [d, virtualize_crossing(d, 1)]
    rng = random.Random(20261026)
    for _ in range(6):
        strands = rng.randint(2, 5)
        d = parse_gauss_code(braid_closure(random_braid_word(rng, strands, rng.randint(10, 16)), strands))
        out += [d, virtualize_crossing(d, rng.choice(d.crossing_ids))]
    return out


class _Forbidden(Exception):
    pass


def _forbid(*_args, **_kwargs):
    raise _Forbidden


def test_certify_takes_no_state_walk_and_no_disk_test(monkeypatch):
    """`certify` reads only which labels of the d-image are nonzero: no state
    walk, no disk test, and no polynomial is read or built."""
    diagrams = [catalog(name) for name in catalog_names()] + [catalog_p_family(n) for n in (2, 3, 4, 9)]
    for module, name in (
        (analysis, "_bracket_sum"),
        (analysis, "_CurveLabels"),
        (analysis, "is_disk_bounding"),
        (analysis, "loop_homology"),
        (analysis, "read_packed"),
        (surface, "is_disk_bounding"),
        (surface, "loop_homology"),
        (frontier, "read_packed"),
        (LaurentPoly, "__init__"),
    ):
        monkeypatch.setattr(module, name, _forbid)
    for d in diagrams:
        certify(d)
    assert str(certify(catalog_p_family(9))) == "NonClassical(2)"
    with pytest.raises(_Forbidden):
        surface_bracket(build_carter_surface(catalog("kishino")))


def test_surface_bracket_names_no_curve_and_takes_no_disk_test_at_genus_at_most_one(monkeypatch):
    """At genus <= 1 `surface_bracket` sweeps the d-image: no curve-named
    sweep, no curve labels and no disk test, also on the 18-crossing braid
    closure and its virtualization, where the curve-named sweep takes
    seconds.  Its bracket still collapses to d times the planar one.  At
    genus 2 (`kishino`) it still takes the curve-named sweep."""
    diagrams = [d for d in [d for _, d in ORACLE_CASES] + _braid_closures() if genus(d) <= 1]
    assert len(diagrams) > 100
    for module, name in (
        (analysis, "_bracket_sum"),
        (analysis, "_CurveLabels"),
        (analysis, "is_disk_bounding"),
        (surface, "is_disk_bounding"),
    ):
        monkeypatch.setattr(module, name, _forbid)
    for d in diagrams:
        assert surface_bracket(build_carter_surface(d)).collapse() == LOOP_VALUE * kauffman_bracket(d)
    with pytest.raises(_Forbidden):
        surface_bracket(build_carter_surface(catalog("kishino")))
