"""Exact integer Laurent polynomials in the bracket variable A.

Every invariant in this package takes values in Z[A, A^-1]; this module
provides the ring together with exact division and a small linear solver
used to extract tangle coefficients.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping


class ZeroDivisorError(ZeroDivisionError):
    """Division by the zero polynomial."""


class IndivisibleError(ArithmeticError):
    """Exact division was requested but the quotient is not a Laurent polynomial."""


class SingularSystemError(ArithmeticError):
    """2x2 system with vanishing determinant."""


class NoLaurentSolutionError(ArithmeticError):
    """2x2 system whose solution lies in the fraction field but not the ring."""


class LaurentPoly:
    """Immutable Laurent polynomial with integer coefficients.

    Internally a mapping exponent -> nonzero coefficient; the zero
    polynomial has no terms.
    """

    __slots__ = ("_terms", "_hash")

    def __init__(self, terms: Mapping[int, int] | Iterable[tuple[int, int]] = ()):
        items = terms.items() if isinstance(terms, Mapping) else terms
        acc: dict[int, int] = {}
        for e, c in items:
            if c:
                acc[e] = acc.get(e, 0) + c
                if not acc[e]:
                    del acc[e]
        self._terms = tuple(sorted(acc.items()))
        self._hash = hash(self._terms)

    # -- constructors ----------------------------------------------------

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return _ZERO

    @classmethod
    def one(cls) -> "LaurentPoly":
        return _ONE

    @classmethod
    def monomial(cls, exponent: int, coeff: int = 1) -> "LaurentPoly":
        return cls(((exponent, coeff),))

    @classmethod
    def from_json(cls, obj: Mapping[str, int]) -> "LaurentPoly":
        return cls({int(k): int(v) for k, v in obj.items()})

    # -- basic queries ---------------------------------------------------

    @property
    def terms(self) -> tuple[tuple[int, int], ...]:
        """Terms as (exponent, coefficient) pairs, sorted by exponent."""
        return self._terms

    def is_zero(self) -> bool:
        return not self._terms

    def coeff(self, exponent: int) -> int:
        for e, c in self._terms:
            if e == exponent:
                return c
        return 0

    def min_exp(self) -> int:
        if not self._terms:
            raise ValueError("zero polynomial has no degree")
        return self._terms[0][0]

    def max_exp(self) -> int:
        if not self._terms:
            raise ValueError("zero polynomial has no degree")
        return self._terms[-1][0]

    def is_monomial(self) -> bool:
        return len(self._terms) == 1

    # -- ring operations -------------------------------------------------

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        acc = dict(self._terms)
        for e, c in other._terms:
            acc[e] = acc.get(e, 0) + c
        return LaurentPoly(acc)

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly({e: -c for e, c in self._terms})

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        acc: dict[int, int] = {}
        for e1, c1 in self._terms:
            for e2, c2 in other._terms:
                e = e1 + e2
                acc[e] = acc.get(e, 0) + c1 * c2
        return LaurentPoly(acc)

    def scale(self, factor: int) -> "LaurentPoly":
        return LaurentPoly({e: c * factor for e, c in self._terms})

    def shift(self, exponent: int) -> "LaurentPoly":
        """Multiply by A**exponent."""
        return LaurentPoly({e + exponent: c for e, c in self._terms})

    def __pow__(self, n: int) -> "LaurentPoly":
        if n < 0:
            raise ValueError("negative powers are only defined for monomials; invert explicitly")
        result = _ONE
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def substitute_inverse(self) -> "LaurentPoly":
        """The image under A -> A^-1."""
        return LaurentPoly({-e: c for e, c in self._terms})

    # -- comparisons / hashing -------------------------------------------

    def __eq__(self, other: object) -> bool:
        return isinstance(other, LaurentPoly) and self._terms == other._terms

    def __hash__(self) -> int:
        return self._hash

    def __bool__(self) -> bool:
        return bool(self._terms)

    # -- presentation ----------------------------------------------------

    def to_json(self) -> dict[str, int]:
        """JSON encoding: decimal exponent strings -> coefficients."""
        return {str(e): c for e, c in self._terms}

    def __str__(self) -> str:
        return format_laurent(self, "A")

    def __repr__(self) -> str:
        return f"LaurentPoly({dict(self._terms)!r})"


_ZERO = LaurentPoly()
_ONE = LaurentPoly({0: 1})

#: Loop value d = -A^2 - A^-2 of the bracket axiom.
LOOP_VALUE = LaurentPoly({2: -1, -2: -1})


def format_laurent(p: LaurentPoly, var: str = "A") -> str:
    """Human-readable form, highest exponent first."""
    if p.is_zero():
        return "0"
    pieces = []
    for e, c in reversed(p.terms):
        if e == 0:
            mon = ""
        elif e == 1:
            mon = var
        else:
            mon = f"{var}^{e}"
        if mon:
            if c == 1:
                term = mon
            elif c == -1:
                term = "-" + mon
            else:
                term = f"{c}{mon}"
        else:
            term = str(c)
        pieces.append(term)
    out = pieces[0]
    for term in pieces[1:]:
        out += " - " + term[1:] if term.startswith("-") else " + " + term
    return out


def laurent_divide_exact(num: LaurentPoly, den: LaurentPoly) -> LaurentPoly:
    """Exact quotient q with q * den == num.

    Raises ZeroDivisorError if den is zero and IndivisibleError if no
    Laurent-polynomial quotient exists.
    """
    if den.is_zero():
        raise ZeroDivisorError("division by zero polynomial")
    if num.is_zero():
        return LaurentPoly.zero()
    # Long division from the top; Laurent shifts make the den's lowest
    # term a unit times an ordinary polynomial leading term.
    rem = dict(num.terms)
    den_terms = den.terms
    den_lead_e, den_lead_c = den_terms[-1]
    # When num = q * den, the lowest quotient exponent is exactly this
    # (lowest terms multiply in a domain); going below it proves indivisibility.
    min_shift = num.min_exp() - den.min_exp()
    q: dict[int, int] = {}
    while rem:
        e = max(rem)
        c = rem[e]
        if c % den_lead_c:
            raise IndivisibleError(f"{num} is not divisible by {den}")
        factor = c // den_lead_c
        shift = e - den_lead_e
        if shift < min_shift:
            raise IndivisibleError(f"{num} is not divisible by {den}")
        q[shift] = q.get(shift, 0) + factor
        for de, dc in den_terms:
            k = de + shift
            rem[k] = rem.get(k, 0) - dc * factor
            if not rem[k]:
                del rem[k]
    return LaurentPoly(q)


def solve_2x2_laurent(
    m11: LaurentPoly,
    m12: LaurentPoly,
    m21: LaurentPoly,
    m22: LaurentPoly,
    r1: LaurentPoly,
    r2: LaurentPoly,
) -> tuple[LaurentPoly, LaurentPoly]:
    """Solve [[m11,m12],[m21,m22]] (x,y)^T = (r1,r2)^T over Z[A,A^-1].

    Cramer's rule over the fraction field followed by exact divisibility
    checks; raises SingularSystemError or NoLaurentSolutionError.
    """
    det = m11 * m22 - m12 * m21
    if det.is_zero():
        raise SingularSystemError("2x2 system has zero determinant")
    x_num = r1 * m22 - r2 * m12
    y_num = m11 * r2 - m21 * r1
    try:
        return laurent_divide_exact(x_num, det), laurent_divide_exact(y_num, det)
    except IndivisibleError as exc:
        raise NoLaurentSolutionError("solution is not a Laurent polynomial") from exc
