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
    `inverse` is its integer inverse; old-basis coordinates x become
    symplectic coordinates inverse . x.
    """

    dim: int
    change: tuple[tuple[int, ...], ...]
    inverse: tuple[tuple[int, ...], ...]

    @property
    def genus(self) -> int:
        return self.dim // 2

    def to_symplectic(self, coords: Sequence[int]) -> tuple[int, ...]:
        """Express an old-basis coordinate vector in the symplectic basis."""
        return tuple(sum(self.inverse[i][j] * coords[j] for j in range(self.dim)) for i in range(self.dim))


def _transform(entries: Matrix, change: Matrix, inverse: Matrix, op: str, i: int, j: int, q: int = 0) -> None:
    """Apply a congruence generator to the form and track change/inverse.

    op "swap": exchange basis vectors i, j; "neg": negate vector i;
    "add": basis vector j += q * basis vector i.
    """
    n = len(entries)
    if op == "swap":
        for row in entries:
            row[i], row[j] = row[j], row[i]
        entries[i], entries[j] = entries[j], entries[i]
        for row in change:
            row[i], row[j] = row[j], row[i]
        inverse[i], inverse[j] = inverse[j], inverse[i]
    elif op == "neg":
        for row in entries:
            row[i] = -row[i]
        for c in range(n):
            entries[i][c] = -entries[i][c]
        for row in change:
            row[i] = -row[i]
        inverse[i] = [-x for x in inverse[i]]
    elif op == "add":
        for row in entries:
            row[j] += q * row[i]
        for c in range(n):
            entries[j][c] += q * entries[i][c]
        for row in change:
            row[j] += q * row[i]
        inverse[i] = [a - q * b for a, b in zip(inverse[i], inverse[j])]
    else:  # pragma: no cover
        raise AssertionError(op)


def symplectic_reduce(form: SkewForm) -> SymplecticBasis:
    """Reduce a unimodular skew form to standard J by a unimodular basis change.

    Deterministic gcd pivoting: the pivot is the smallest nonzero entry in
    absolute value, ties broken by lowest (row, column) index.

    No determinant is taken up front: a form that is not unimodular is
    refused on the way.  Each step is a unimodular congruence, so every
    pivot, the gcd of a row of the trailing block, divides the determinant
    of that block; a zero trailing block or a pivot other than +-1 raises
    NotUnimodularError.  When every pivot is a unit the reduction ends, and
    the postcondition checks change^T . form . change = J; taking
    determinants, det(change)^2 det(form) = det(J) = 1 with integer
    det(change), so det(form) = 1: the form was unimodular.
    """
    n = form.dim
    q_work: Matrix = [list(row) for row in form.entries]
    change: Matrix = [[int(i == j) for j in range(n)] for i in range(n)]
    inverse: Matrix = [[int(i == j) for j in range(n)] for i in range(n)]

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
            _transform(q_work, change, inverse, "swap", base, bi)
            if bj == base:
                bj = bi
        if bj != base + 1:
            _transform(q_work, change, inverse, "swap", base + 1, bj)
        if q_work[base][base + 1] < 0:
            _transform(q_work, change, inverse, "neg", base + 1, base + 1)

        # Euclidean clearing of the pivot row; skewness mirrors it to the column.
        while True:
            p = q_work[base][base + 1]
            k = next((k for k in range(base + 2, n) if q_work[base][k] % p), None)
            if k is None:
                break
            q = q_work[base][k] // p
            _transform(q_work, change, inverse, "add", base + 1, k, -q)
            _transform(q_work, change, inverse, "swap", base + 1, k)
            if q_work[base][base + 1] < 0:
                _transform(q_work, change, inverse, "neg", base + 1, base + 1)
        p = q_work[base][base + 1]
        if abs(p) != 1:
            raise NotUnimodularError("pivot gcd exceeds 1; form is not unimodular")
        for k in range(base + 2, n):
            if q_work[base][k]:
                _transform(q_work, change, inverse, "add", base + 1, k, -q_work[base][k] // p)
        for k in range(base + 2, n):
            if q_work[base + 1][k]:
                # base column pairs only with base+1 now; q_work[base+1][base] = -1.
                _transform(q_work, change, inverse, "add", base, k, q_work[base + 1][k])

    basis = SymplecticBasis(
        dim=n,
        change=tuple(tuple(row) for row in change),
        inverse=tuple(tuple(row) for row in inverse),
    )
    if not _check_standard(form, basis):
        raise ArithmeticError("symplectic reduction postcondition failed: change^T . form . change != J")
    return basis


def _check_standard(form: SkewForm, basis: SymplecticBasis) -> bool:
    """change^T . form . change == J, as (change^T . form) . change: O(n^3)."""
    form_cols = list(zip(*form.entries))
    cols = list(zip(*basis.change))  # the new basis vectors
    for i, ci in enumerate(cols):
        row = [sum(map(mul, ci, fc)) for fc in form_cols]  # row i of change^T . form
        std_row = [0] * form.dim  # row i of J: 1 at i + 1 for even i, -1 at i - 1 for odd i
        std_row[i ^ 1] = -1 if i & 1 else 1
        if [sum(map(mul, row, cj)) for cj in cols] != std_row:
            return False
    return True


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
