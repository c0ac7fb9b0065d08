"""How `certify` reads its classes off the d-image: each distinct packed int
is kept, range-checked and reduced to its parity vector, and a class is
unpacked only when the per-torus scan reads it (`analysis._ImageClasses`).

Checked here against the criteria run on `d_image_bracket(rep).nonzero_classes()`,
which unpacks every class, on seeded codes and on the benchmark pool; the
parity vectors against `mod2_rank` of the unpacked coordinates at every
field width the packing can take; and the range check under `python -O`.
"""

import importlib.util
import os
import random
import subprocess
import sys
from pathlib import Path

from randgen import random_gauss_code

from vknot import analysis
from vknot.analysis import certify, d_image_bracket, mod2_span_criterion, per_torus_criterion
from vknot.diagram import parse_gauss_code
from vknot.surface import HomologyClass, build_carter_surface
from vknot.symplectic import mod2_rank, parity_rank

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _pool_codes() -> list[str]:
    """The Gauss codes of the `random_certify` benchmark pool, read from
    perfbench/workloads.py, which is neither changed nor run as a script."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [argv[1] for argv, _ in module.all_ops("random_certify")]


def _seeded_codes(count: int = 300) -> list[str]:
    """Distinct seeded codes of 3-11 crossings and 1-3 components whose
    Carter surface has genus at least 1."""
    rng = random.Random(20261025)
    codes: dict[str, None] = {}
    while len(codes) < count:
        n = rng.randint(3, 11)
        code = random_gauss_code(rng, n, rng.randint(1, 3))
        if build_carter_surface(parse_gauss_code(code)).genus >= 1:
            codes[code] = None
    return list(codes)


def test_certify_criteria_equal_the_criteria_on_the_unpacked_image():
    """On 300 seeded codes of genus >= 1, genus 4 or more and failed
    per-torus scans among them, `certify`'s criteria are those run on every
    unpacked class of the d-image, in its order."""
    high_genus = per_torus_failed = 0
    for code in _seeded_codes():
        d = parse_gauss_code(code)
        rep = build_carter_surface(d)
        classes = d_image_bracket(rep).nonzero_classes()
        expected = (per_torus_criterion(classes, rep.genus), mod2_span_criterion(classes, rep.genus))
        cert = certify(d)
        assert cert.criteria == expected, code
        assert [c.to_json() for c in cert.criteria] == [c.to_json() for c in expected], code
        high_genus += rep.genus >= 4
        per_torus_failed += not expected[0].satisfied
    assert high_genus >= 10 and per_torus_failed >= 10, (high_genus, per_torus_failed)


def test_certify_unpacks_fewer_classes_than_it_keeps_on_the_pool(monkeypatch):
    """A counting class reader: on the benchmark pool the per-torus scan
    stops early, so `certify` unpacks fewer classes than the d-image keeps,
    on no code more, and all of them only where per-torus fails."""
    reads: list[int] = []
    real_reader = analysis._class_reader

    def counting_reader(dim, width):
        read = real_reader(dim, width)

        def count(packed):
            reads.append(packed)
            return read(packed)

        return count

    unpacked = distinct = 0
    for code in _pool_codes():
        d = parse_gauss_code(code)
        rep = build_carter_surface(d)
        kept = len(d_image_bracket(rep).nonzero_classes())
        reads.clear()
        with monkeypatch.context() as m:
            m.setattr(analysis, "_class_reader", counting_reader)
            cert = certify(d)
        assert len(reads) <= kept, code
        if cert.genus and not cert.criteria[0].satisfied:
            assert len(reads) == kept, code
        unpacked += len(reads)
        distinct += kept
    assert unpacked < distinct / 2, (unpacked, distinct)


def _field_vectors(rng: random.Random, width: int, dim: int) -> list[list[int]]:
    """Coordinate vectors over the whole signed field range: both ends,
    odd negatives, zeros and random values."""
    low, high = -(1 << (width - 1)), (1 << (width - 1)) - 1
    odd_negatives = [v for v in (-1, -3, low + 1) if low <= v]
    values = [low, high, 0, 1, *odd_negatives]
    return [[rng.choice(values + [rng.randint(low, high)]) for _ in range(dim)] for _ in range(rng.randint(0, 14))]


def test_parity_rank_equals_mod2_rank_of_the_unpacked_coordinates():
    rng = random.Random(20261025)
    for width in range(2, 13):
        for _ in range(40):
            genus = rng.randint(1, 6)
            dim = 2 * genus
            vectors = _field_vectors(rng, width, dim)
            packed = [analysis._pack(enumerate(v), width, dim) for v in vectors]
            classes = analysis._ImageClasses(packed, width, dim)
            assert list(classes) == [HomologyClass(tuple(v)) for v in vectors]
            assert parity_rank(classes.parities) == mod2_rank(vectors)
            assert mod2_span_criterion(classes, genus) == mod2_span_criterion(list(classes), genus)


OUT_OF_RANGE = """
from vknot.analysis import _ImageClasses, _class_reader

assert False, "asserts must be stripped"
for width, dim in ((2, 2), (3, 4), (7, 12), (12, 8)):
    half = 1 << (width - 1)
    bias = sum(half << (k * width) for k in range(dim))
    low, high = -bias, (1 << (width * dim)) - 1 - bias
    print(len(_ImageClasses([low, 0, high], width, dim)) == 3, _class_reader(dim, width)(low).coords == (-half,) * dim)
    for packed in ([high + 1], [0, low - 1, 1], [1, high, 2 * high]):
        try:
            _ImageClasses(packed, width, dim)
        except ArithmeticError as exc:
            print("refused:", exc)
"""


def test_ints_beyond_their_last_field_are_refused_under_python_O():
    """Every distinct int is range-checked when the classes are made, read
    or not, by an if/raise that `python -O` keeps; the field ends read back."""
    env = dict(os.environ, PYTHONPATH=str(Path(analysis.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-O", "-c", OUT_OF_RANGE], capture_output=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    refused = "refused: packed value has bits beyond its last field"
    assert proc.stdout.decode().splitlines() == ["True True", refused, refused, refused] * 4
