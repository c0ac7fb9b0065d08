"""Integer skew-symmetric forms, symplectic basis reduction, and GF(2) rank.

The intersection form of a closed orientable surface is skew and
unimodular; reducing it to the standard block-diagonal form J (blocks
[[0,1],[-1,0]]) fixes meridian/longitude coordinates for every homology
class this package publishes.
"""

from __future__ import annotations

from operator import mul
from typing import Iterable, NamedTuple, Sequence

Matrix = list[list[int]]


class NotUnimodularError(ArithmeticError):
    """Skew form whose determinant is not +-1 (signals a surface-construction bug)."""


class SkewForm(NamedTuple):
    """A skew-symmetric integer bilinear form of even dimension."""

    dim: int
    entries: tuple[tuple[int, ...], ...]

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]]) -> "SkewForm":
        dim = len(rows)
        if dim % 2:
            raise ValueError("skew form must have even dimension")
        ent = tuple(tuple(int(x) for x in row) for row in rows)
        for i in range(dim):
            if len(ent[i]) != dim:
                raise ValueError("form matrix must be square")
            if ent[i][i]:
                raise ValueError("skew form must have zero diagonal")
            for j in range(dim):
                if ent[i][j] != -ent[j][i]:
                    raise ValueError("form matrix must be skew-symmetric")
        return cls(dim, ent)


class SymplecticBasis(NamedTuple):
    """A unimodular change of basis bringing a skew form to standard J.

    `change` has the new basis vectors as columns: change^T . form . change = J.
    `inverse` is its integer inverse, read off M = change^T . form once the
    reduction has checked M . change = J: then (-J . M) . change = -J . J = I,
    so inverse = -J . M.  Old-basis coordinates x become symplectic
    coordinates inverse . x.
    """

    dim: int
    change: tuple[tuple[int, ...], ...]
    inverse: tuple[tuple[int, ...], ...]

    def to_symplectic(self, coords: Sequence[int]) -> tuple[int, ...]:
        """Express an old-basis coordinate vector in the symplectic basis."""
        return tuple(sum(self.inverse[i][j] * coords[j] for j in range(self.dim)) for i in range(self.dim))


# The congruence generators: each changes the basis by one column step,
# taken by the columns of the form and of `change`, then by the form's rows.


def _swap(entries: Matrix, change: Matrix, i: int, j: int) -> None:
    """Exchange basis vectors i and j."""
    for row in (*entries, *change):
        row[i], row[j] = row[j], row[i]
    entries[i], entries[j] = entries[j], entries[i]


def _negate(entries: Matrix, change: Matrix, i: int) -> None:
    """Negate basis vector i."""
    for row in (*entries, *change):
        row[i] = -row[i]
    entries[i] = [-x for x in entries[i]]


def _add(entries: Matrix, change: Matrix, i: int, j: int, q: int) -> None:
    """Basis vector j += q * basis vector i."""
    for row in (*entries, *change):
        row[j] += q * row[i]
    entries[j] = [a + q * b for a, b in zip(entries[j], entries[i])]


def symplectic_reduce(form: SkewForm) -> SymplecticBasis:
    """Reduce a unimodular skew form to standard J by a unimodular basis change.

    Deterministic gcd pivoting: the pivot is the smallest nonzero entry in
    absolute value, ties broken by lowest (row, column) index.  Only the
    working form and `change` are updated on the way; the inverse is read
    off the postcondition (`_certified_inverse`).

    No determinant is taken up front: a form that is not unimodular is
    refused on the way.  Each step is a unimodular congruence, so every
    pivot, the gcd of a row of the trailing block, divides the determinant
    of that block; a zero trailing block or a pivot other than +-1 raises
    NotUnimodularError.  When every pivot is a unit the reduction ends, and
    the postcondition checks change^T . form . change = J; taking
    determinants, det(change)^2 det(form) = det(J) = 1 with integer
    det(change), so det(form) = 1: the form was unimodular, det(change) is
    +-1, and the integer matrix -J . change^T . form, which the check shows
    to be a left inverse of change, is its inverse.
    """
    n = form.dim
    q_work: Matrix = [list(row) for row in form.entries]
    change: Matrix = [[int(i == j) for j in range(n)] for i in range(n)]

    for base in range(0, n, 2):
        # Move the minimal-absolute-value pivot of the trailing block to
        # (base, base+1); no nonzero entry is smaller than a unit, so the first unit is it.
        best, least = None, 0
        for i in range(base, n):
            row = q_work[i]
            for j in range(base, n):
                v = abs(row[j])
                if v and (not least or v < least):
                    best, least = (i, j), v
                    if v == 1:
                        break
            if least == 1:
                break
        if best is None:
            raise NotUnimodularError("zero trailing block; form is not unimodular")
        bi, bj = best
        if bi != base:
            _swap(q_work, change, base, bi)
            if bj == base:
                bj = bi
        if bj != base + 1:
            _swap(q_work, change, base + 1, bj)
        if q_work[base][base + 1] < 0:
            _negate(q_work, change, base + 1)

        # Euclidean clearing of the pivot row; skewness mirrors it to the column.
        while True:
            p = q_work[base][base + 1]
            k = next((k for k in range(base + 2, n) if q_work[base][k] % p), None)
            if k is None:
                break
            q = q_work[base][k] // p
            _add(q_work, change, base + 1, k, -q)
            _swap(q_work, change, base + 1, k)
            if q_work[base][base + 1] < 0:
                _negate(q_work, change, base + 1)
        p = q_work[base][base + 1]
        if abs(p) != 1:
            raise NotUnimodularError("pivot gcd exceeds 1; form is not unimodular")
        for k in range(base + 2, n):
            if q_work[base][k]:
                _add(q_work, change, base + 1, k, -q_work[base][k] // p)
        for k in range(base + 2, n):
            if q_work[base + 1][k]:
                # base column pairs only with base+1 now; q_work[base+1][base] = -1.
                _add(q_work, change, base, k, q_work[base + 1][k])

    return SymplecticBasis(dim=n, change=tuple(map(tuple, change)), inverse=_certified_inverse(form, change))


def _certified_inverse(form: SkewForm, change: Sequence[Sequence[int]]) -> tuple[tuple[int, ...], ...]:
    """The inverse of `change`, -J . M for M = change^T . form, once the
    postcondition M . change = J holds; ArithmeticError (an if/raise, which
    `python -O` keeps) when it does not.  O(n^3): M is computed once and
    serves the check and the inverse, whose row 2k is -(row 2k + 1 of M)
    and row 2k + 1 is row 2k of M."""
    form_cols = list(zip(*form.entries))
    cols = list(zip(*change))  # the new basis vectors
    m = [[sum(map(mul, ci, fc)) for fc in form_cols] for ci in cols]  # change^T . form
    for i, row in enumerate(m):
        std_row = [0] * form.dim  # row i of J: 1 at i + 1 for even i, -1 at i - 1 for odd i
        std_row[i ^ 1] = -1 if i & 1 else 1
        if [sum(map(mul, row, cj)) for cj in cols] != std_row:
            raise ArithmeticError("symplectic reduction postcondition failed: change^T . form . change != J")
    return tuple(tuple(m[i ^ 1]) if i & 1 else tuple(-x for x in m[i ^ 1]) for i in range(form.dim))


def mod2_rank(vectors: Sequence[Sequence[int]]) -> int:
    """Rank over GF(2) of a collection of integer vectors: the
    `parity_rank` of their parity vectors, bit k for coordinate k."""
    return parity_rank(sum(1 << k for k, v in enumerate(vec) if v & 1) for vec in vectors)


def parity_rank(vectors: Iterable[int]) -> int:
    """Rank over GF(2) of vectors given as int bit masks, by elimination
    on the top bit: `pivots` keeps one reduced vector per top bit, and a
    vector is reduced by the pivot of its top bit until it is 0 or has a
    new top bit.  Equal vectors span what one of them does, so each
    distinct vector is reduced once."""
    pivots: dict[int, int] = {}
    for x in set(vectors):
        while x:
            top = x.bit_length()
            pivot = pivots.get(top)
            if pivot is None:
                pivots[top] = x
                break
            x ^= pivot
    return len(pivots)
