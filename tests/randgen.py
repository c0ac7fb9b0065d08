"""Seeded random inputs shared by the tests: unimodular matrices, Gauss codes
and tangles."""

from vknot.diagram import OVER, UNDER, Pass
from vknot.tangle import Strand, Tangle


def random_unimodular(dim: int, rng, steps: int = 20) -> list[list[int]]:
    """Random unimodular integer matrix built from shears and swaps."""
    m = [[int(i == j) for j in range(dim)] for i in range(dim)]
    for _ in range(steps):
        i, j = rng.sample(range(dim), 2)
        q = rng.randint(-3, 3)
        for row in m:
            row[j] += q * row[i]
        if rng.random() < 0.3:
            for row in m:
                row[i], row[j] = row[j], row[i]
    return m


def random_gauss_code(rng, n_crossings: int, n_components: int) -> str:
    """A valid signed Gauss code: shuffled O/U passes cut into non-empty words
    (at most 2 * n_crossings of them)."""
    passes = [f"{role}{c}" for c in range(1, n_crossings + 1) for role in "OU"]
    rng.shuffle(passes)
    sign = {c: rng.choice("+-") for c in range(1, n_crossings + 1)}
    cuts = [0, *sorted(rng.sample(range(1, len(passes)), n_components - 1)), len(passes)]
    words = [passes[a:b] for a, b in zip(cuts, cuts[1:])]
    return ";".join("".join(p + sign[int(p[1:])] for p in word) for word in words)


def random_tangle(rng, n_crossings: int, n_boundary: int) -> Tangle:
    """A classical tangle: both passes of every crossing lie on its strands.

    The 2n shuffled passes are cut into n_boundary / 2 open strands, each
    between two random boundary points, and sometimes one closed strand.
    """
    passes = [Pass(c, role) for c in range(1, n_crossings + 1) for role in (OVER, UNDER)]
    rng.shuffle(passes)
    n_open = n_boundary // 2
    n_closed = int(n_crossings > 0 and rng.random() < 0.3)
    # the closed strand needs a pass; open strands may have none
    cuts = sorted(rng.randint(n_closed, len(passes)) for _ in range(n_open + n_closed - 1))
    pieces = [passes[a:b] for a, b in zip([0, *cuts], [*cuts, len(passes)])]
    points = list(range(1, n_boundary + 1))
    rng.shuffle(points)
    strands = [Strand(None, tuple(pieces[0]), None)] if n_closed else []
    for k, piece in enumerate(pieces[n_closed:]):
        strands.append(Strand(points[2 * k], tuple(piece), points[2 * k + 1]))
    signs = {c: rng.choice((1, -1)) for c in range(1, n_crossings + 1)}
    return Tangle(strands, signs)
