"""Seeded random inputs shared by the tests: unimodular matrices, Gauss codes,
braid closures and tangles."""

from typing import Sequence

from vknot.diagram import OVER, UNDER, Pass
from vknot.tangle import Strand, Tangle

#: A 9-crossing knot whose Carter surface has genus 3 (a `random_gauss_code`
#: draw from seed 3).
GENUS_THREE_CODE = "O2+U7-U6-O9-U2+O8-U9-O5-O6-O4+U8-U4+O3-O1+O7-U5-U1+U3-"


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


def braid_closure(word: Sequence[int], strands: int) -> str:
    """The signed Gauss code of the closure of a braid on `strands` strands.

    Letter k (from 1) of `word` is sigma_i (i > 0) or its inverse (-i), with
    1 <= i < strands: the strands at positions i and i + 1 (from 1) swap,
    and letter k is crossing k.  Under sigma_i the strand at position i
    passes over, and the crossing is positive; under its inverse that strand
    passes under, and the crossing is negative.  Each cycle of the braid's
    permutation is one component, read from its smallest starting position,
    so the closure is a classical (planar) diagram.  A strand that meets no
    letter would be a component with no pass, so every strand must meet one.
    """
    passes: list[list[str]] = [[] for _ in range(strands)]
    at = list(range(strands))  # at[p]: the strand at position p
    for k, g in enumerate(word, 1):
        i = abs(g) - 1
        left, right = at[i], at[i + 1]
        over, under = (left, right) if g > 0 else (right, left)
        sign = "+" if g > 0 else "-"
        passes[over].append(f"O{k}{sign}")
        passes[under].append(f"U{k}{sign}")
        at[i], at[i + 1] = right, left
    # the strand that ends at position p continues as the one that starts there
    next_strand = {s: p for p, s in enumerate(at)}
    if not all(passes):
        raise ValueError("every strand of the braid must meet a letter")
    words, seen = [], set()
    for start in range(strands):
        if start in seen:
            continue
        component, s = [], start
        while s not in seen:
            seen.add(s)
            component += passes[s]
            s = next_strand[s]
        words.append("".join(component))
    return ";".join(words)


def random_braid_word(rng, strands: int, length: int) -> list[int]:
    """A random braid word of `length` letters on `strands` strands in which
    every generator sigma_1 .. sigma_(strands - 1) appears (so every strand
    meets a letter); `length` must be at least strands - 1."""
    if length < strands - 1:
        raise ValueError(f"{length} letters cannot hold all {strands - 1} generators")
    while True:
        word = [rng.choice((1, -1)) * rng.randint(1, strands - 1) for _ in range(length)]
        if len({abs(g) for g in word}) == strands - 1:
            return word


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
