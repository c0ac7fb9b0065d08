"""Classical tangles, Temperley-Lieb expansion, and virtualization reports.

A 2n-boundary-point tangle expands, by smoothing every crossing, into a
Z[A, A^-1]-linear combination of non-crossing perfect matchings of its
boundary circle (the Temperley-Lieb basis; 2 elements for 2n = 4, 14 for
2n = 8).  For a 2-2 tangle the two coefficients alpha (identity matching
(1-4)(2-3)) and beta (cup-cap (1-2)(3-4)) drive the single-virtualization
analysis: if both are nonzero, virtualizing the complementary crossing
yields a non-classical, non-trivial virtual link.

Input grammar: the diagram Gauss grammar extended with boundary tokens
"B1".."B2n"; an open strand starts and ends with a boundary token, e.g.
"B1 O1+ B3 ; B2 U1+ B4" is the single positive crossing, and a strand is
never empty.  `diagram.read_strands` reads the text, and
`diagram.check_crossings` checks the crossings of a tangle as it does
those of a diagram; a crossing without both of its passes inside the
tangle is refused with NonClassicalTangle.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

from .analysis import Certificate, certify
from .bracket import StateTables, d_power, kauffman_bracket
from .diagram import (
    ParseError,
    Pass,
    SmoothingType,
    ValidationError,
    VirtualLinkDiagram,
    check_crossings,
    format_gauss_code,
    format_passes,
    read_strands,
    reverse_signs,
    smooth_crossing,
    switch_crossing,
    virtualize_crossing,
)
from .frontier import read_packed, state_sum
from .laurent import LOOP_VALUE, LaurentPoly, NoLaurentSolutionError, solve_2x2_laurent
from .surface import genus


class NonClassicalTangle(ValueError):
    """Tangle contains non-classical content and cannot be expanded."""


class Matching(tuple):
    """A perfect matching of boundary points 1..2n, canonically sorted."""

    def __new__(cls, pairs):
        norm = tuple(sorted(tuple(sorted(p)) for p in pairs))
        return super().__new__(cls, norm)

    def __str__(self) -> str:
        return "".join(f"({a}-{b})" for a, b in self)


def noncrossing_matchings(n_points: int) -> list[Matching]:
    """All non-crossing perfect matchings of 1..n_points, in canonical
    (lexicographic) order; the TL basis labels s_1, s_2, ... follow it."""
    points = list(range(1, n_points + 1))

    def rec(pts):
        if not pts:
            yield []
            return
        a = pts[0]
        for i in range(1, len(pts), 2):
            b = pts[i]
            inside, outside = pts[1:i], pts[i + 1 :]
            for m1 in rec(inside):
                for m2 in rec(outside):
                    yield [(a, b)] + m1 + m2

    out = [Matching(m) for m in rec(points)]
    out.sort()
    return out


class Strand(NamedTuple):
    """Open strand from boundary `start` to boundary `end` (or a closed loop)."""

    start: int | None
    passes: tuple[Pass, ...]
    end: int | None


def _unpaired(cid: int, roles: list[str]) -> NonClassicalTangle:
    return NonClassicalTangle(f"crossing {cid} lacks a full Over/Under pair inside the tangle")


class Tangle:
    """A classical tangle with 2n marked boundary points."""

    def __init__(self, strands: Sequence[Strand], signs: dict[int, int]):
        self.strands = tuple(strands)
        self.signs = dict(signs)
        self._validate()

    def _validate(self) -> None:
        bpts = []
        for s in self.strands:
            if (s.start is None) != (s.end is None):
                raise ValidationError("strand must be open at both ends or closed")
            if s.start is not None:
                bpts.extend((s.start, s.end))
            elif not s.passes:
                raise ValidationError("closed strand with no passes")
        if sorted(bpts) != list(range(1, len(bpts) + 1)):
            raise ValidationError("boundary points must be exactly 1..2n, each once")
        check_crossings((s.passes for s in self.strands), self.signs, _unpaired)
        self.n_boundary = len(bpts)

    @property
    def n_crossings(self) -> int:
        return len(self.signs)

    @property
    def arc_strands(self) -> tuple[tuple[tuple[Pass, ...], bool], ...]:
        """(passes, is_open) per strand, the input of `arc_ends`."""
        return tuple((s.passes, s.start is not None) for s in self.strands)

    def __repr__(self) -> str:
        return f"Tangle({format_tangle(self)!r})"


def parse_tangle(text: str) -> Tangle:
    """Parse the extended Gauss grammar with B1..B2n boundary tokens."""
    raw, signs = read_strands(text)
    if not raw:
        raise ParseError("empty tangle")
    if any("U" in items for items in raw):
        raise ParseError("unknot marker 'U' is Gauss-code input, not a tangle strand")
    strands = []
    for items in raw:
        ends = [i for i, tok in enumerate(items) if isinstance(tok, int)]
        if not ends:
            strands.append(Strand(None, tuple(items), None))
        elif ends == [0, len(items) - 1]:
            strands.append(Strand(items[0], tuple(items[1:-1]), items[-1]))
        else:
            raise ParseError("boundary tokens must begin and end an open strand")
    return Tangle(strands, signs)


def format_tangle(t: Tangle) -> str:
    parts = []
    for s in t.strands:
        passes = format_passes(s.passes, t.signs)
        parts.append(passes if s.start is None else f"B{s.start}{passes}B{s.end}")
    return ";".join(parts)


# -- expansion ------------------------------------------------------------


class TangleExpansion(NamedTuple):
    """Mapping from boundary matchings to Laurent coefficients."""

    coefficients: dict[Matching, LaurentPoly]

    def to_json(self) -> dict:
        return {str(m): c.to_json() for m, c in sorted(self.coefficients.items())}


def expand_tangle(t: Tangle) -> TangleExpansion:
    """The sum over all 2^crossings smoothings of A^(#alpha - #beta) times
    d per closed loop times the boundary matching, evaluated by the
    frontier sweep, whose boundary ends stay open to the end."""
    tables = StateTables(t)
    # tables.boundary holds the start and end of each open strand in turn
    points = [b for s in t.strands if s.start is not None for b in (s.start, s.end)]
    label = dict(zip(tables.boundary, points))
    coefficients = {}
    for pairs, value in state_sum(tables).items():
        if value:
            coefficients[Matching((label[a], label[b]) for a, b in pairs)] = read_packed(value, tables.fields)
    return TangleExpansion(coefficients)


# -- closures -------------------------------------------------------------


def close_tangle(t: Tangle, cap: Matching) -> VirtualLinkDiagram:
    """Close a tangle by joining boundary points according to `cap`.

    Traversal directions are propagated through the cap, and the signs
    follow the strands that run backward (`diagram.reverse_signs`).
    """
    cap_of = {}
    for a, b in cap:
        cap_of[a] = b
        cap_of[b] = a
    start_of = {s.start: i for i, s in enumerate(t.strands) if s.start is not None}
    end_of = {s.end: i for i, s in enumerate(t.strands) if s.start is not None}
    direction: dict[int, int] = {}  # strand index -> +1 forward / -1 backward
    order: list[list[tuple[int, int]]] = []
    for si, s in enumerate(t.strands):
        if s.start is None or si in direction:
            continue
        comp = []
        cur, d = si, 1
        while cur not in direction:
            direction[cur] = d
            comp.append((cur, d))
            out_pt = t.strands[cur].end if d > 0 else t.strands[cur].start
            nxt_pt = cap_of[out_pt]
            if nxt_pt in start_of:
                cur, d = start_of[nxt_pt], 1
            else:
                cur, d = end_of[nxt_pt], -1
        order.append(comp)

    signs = reverse_signs(t.signs, (p for si, d in direction.items() if d < 0 for p in t.strands[si].passes))
    comps = []
    free = 0
    for comp in order:
        seq: list[Pass] = []
        for si, d in comp:
            ps = t.strands[si].passes
            seq.extend(ps if d > 0 else tuple(reversed(ps)))
        if seq:
            comps.append(tuple(seq))
        else:
            free += 1
    for s in t.strands:
        if s.start is None:
            comps.append(s.passes)
    return VirtualLinkDiagram(tuple(comps), signs, free)


def closure_consistency(t: Tangle, exp: TangleExpansion | None = None) -> bool:
    """Closing the expansion by every planar cap reproduces the closed bracket.

    For each non-crossing cap M:  sum_N coeff(N) * d^(cycles(M u N) - 1)
    must equal kauffman_bracket(close_tangle(t, M)).
    """
    if exp is None:
        exp = expand_tangle(t)
    for cap in noncrossing_matchings(t.n_boundary):
        total = LaurentPoly.zero()
        for matching, coeff in exp.coefficients.items():
            cycles = _union_cycles(cap, matching)
            total = total + coeff * d_power(cycles - 1)
        if total != kauffman_bracket(close_tangle(t, cap)):
            return False
    return True


def _union_cycles(m1: Matching, m2: Matching) -> int:
    nxt1 = {a: b for a, b in m1} | {b: a for a, b in m1}
    nxt2 = {a: b for a, b in m2} | {b: a for a, b in m2}
    seen = set()
    cycles = 0
    for p in nxt1:
        if p in seen:
            continue
        cycles += 1
        cur = p
        while cur not in seen:
            seen.add(cur)
            q = nxt1[cur]
            seen.add(q)
            cur = nxt2[q]
    return cycles


# -- alpha/beta analysis ---------------------------------------------------


def alpha_beta_at_crossing(K: VirtualLinkDiagram, v: int) -> tuple[LaurentPoly, LaurentPoly]:
    """Expansion coefficients of the tangle complementary to crossing v.

    Recovered from the two smoothings of K at v via the linear system
    alpha + beta*d = <K_A>, alpha*d + beta = <K_B> (determinant 1 - d^2),
    then checked against the identities <K> = -A^-3 alpha - A^3 beta and
    <K_s> = -A^3 alpha - A^-3 beta.
    """
    alpha, beta, _, _ = _alpha_beta_brackets(K, v)
    return alpha, beta


def _alpha_beta_brackets(
    K: VirtualLinkDiagram, v: int
) -> tuple[LaurentPoly, LaurentPoly, LaurentPoly, LaurentPoly]:
    """(alpha, beta, <K>, <K_s>) of alpha_beta_at_crossing, with both brackets it checked."""
    one = LaurentPoly.one()
    bA = kauffman_bracket(smooth_crossing(K, v, SmoothingType.ALPHA))
    bB = kauffman_bracket(smooth_crossing(K, v, SmoothingType.BETA))
    alpha, beta = solve_2x2_laurent(one, LOOP_VALUE, LOOP_VALUE, one, bA, bB)
    bK = kauffman_bracket(K)
    bKs = kauffman_bracket(switch_crossing(K, v))
    m3, p3 = LaurentPoly.monomial(-3, -1), LaurentPoly.monomial(3, -1)
    if bK != m3 * alpha + p3 * beta or bKs != p3 * alpha + m3 * beta:
        raise AssertionError("alpha/beta identities failed (convention bug)")
    return alpha, beta, bK, bKs


def zerocor_check(bK: LaurentPoly, bKs: LaurentPoly) -> str:
    """AlphaZero | BetaZero | NeitherZero | Ambiguous from the two brackets.

    <K> = A^6 <K_s> iff alpha = 0; <K> = A^-6 <K_s> iff beta = 0.
    """
    if bK.is_zero() and bKs.is_zero():
        return "Ambiguous"
    if bK == LaurentPoly.monomial(6) * bKs:
        return "AlphaZero"
    if bK == LaurentPoly.monomial(-6) * bKs:
        return "BetaZero"
    return "NeitherZero"


# -- virtualization reports ------------------------------------------------


class VirtualizationReport(NamedTuple):
    diagram: str
    crossing: int
    alpha: LaurentPoly | None  # None when the complementary tangle is virtual
    beta: LaurentPoly | None
    bracket_K: LaurentPoly
    bracket_Ks: LaurentPoly
    bracket_Kv: LaurentPoly
    verdict: str  # "NonClassical(1)" | "Undetected"
    zerocor: str
    certificate: Certificate  # of K_v

    def to_json(self) -> dict:
        return {
            "diagram": self.diagram,
            "crossing": self.crossing,
            "alpha": None if self.alpha is None else self.alpha.to_json(),
            "beta": None if self.beta is None else self.beta.to_json(),
            "bracket_K": self.bracket_K.to_json(),
            "bracket_Ks": self.bracket_Ks.to_json(),
            "bracket_Kv": self.bracket_Kv.to_json(),
            "verdict": self.verdict,
            "zerocor": self.zerocor,
            "certificate": self.certificate.to_json(),
        }


def virtualization_report(K: VirtualLinkDiagram, v: int) -> VirtualizationReport:
    """Single-virtualization analysis of crossing v.

    When the tangle complementary to v is virtual, alpha and beta are not
    Laurent polynomials: the report gives them as None, the verdict as
    Undetected, and still checks <K_v> = <K_s>.

    The theorem behind the verdict (alpha and beta both nonzero makes K_v
    non-classical) covers classical K only.  When it fires but the surface
    pipeline does not certify NonClassical(1) for K_v, a classical K (Carter
    genus 0) raises AssertionError, a convention bug; a virtual K, to which
    the theorem does not apply, is reported Undetected.
    """
    try:
        alpha, beta, bK, bKs = _alpha_beta_brackets(K, v)
    except NoLaurentSolutionError:
        alpha = beta = None
        bK, bKs = kauffman_bracket(K), kauffman_bracket(switch_crossing(K, v))
    Kv = virtualize_crossing(K, v)
    bKv = kauffman_bracket(Kv)
    if bKv != bKs:
        raise AssertionError("bracket(K_v) != bracket(K_s): virtualization convention bug")
    detected = alpha is not None and not alpha.is_zero() and not beta.is_zero()
    verdict = "NonClassical(1)" if detected else "Undetected"
    cert = certify(Kv)
    if detected and str(cert) != "NonClassical(1)":
        if not genus(K):
            raise AssertionError("surface pipeline disagrees with tangle criterion")
        verdict = "Undetected"
    return VirtualizationReport(
        diagram=format_gauss_code(K),
        crossing=v,
        alpha=alpha,
        beta=beta,
        bracket_K=bK,
        bracket_Ks=bKs,
        bracket_Kv=bKv,
        verdict=verdict,
        zerocor=zerocor_check(bK, bKs),
        certificate=cert,
    )


class DoubleVirtualizationReport(NamedTuple):
    diagram: str
    crossings: tuple[int, int]
    four_states: dict[str, str]          # "AA".."BB" -> Gauss code of the smoothing
    expansion: TangleExpansion | None    # TL expansion of the complementary tangle
    expansion_consistent: bool | None
    certificate: Certificate  # of K_v

    @property
    def verdict(self) -> str:
        return str(self.certificate)

    def to_json(self) -> dict:
        out = {
            "diagram": self.diagram,
            "crossings": list(self.crossings),
            "four_states": self.four_states,
            "verdict": self.verdict,
            "certificate": self.certificate.to_json(),
        }
        if self.expansion is not None:
            out["tangle_expansion"] = self.expansion.to_json()
            out["tangle_closure_consistent"] = self.expansion_consistent
        return out


def double_virtualization_report(
    K: VirtualLinkDiagram,
    v1: int,
    v2: int,
    tangle: Tangle | None = None,
) -> DoubleVirtualizationReport:
    """Double-virtualization analysis.

    Builds K_v by virtualizing both crossings, reconstructs the four-state
    skein expansion at the two isolated crossings, and delegates the
    verdict to the surface pipeline.  When the complementary 4-4 tangle is
    supplied, its TL expansion and closure-consistency check are included.
    """
    if v1 == v2:
        raise ValueError("crossings must be distinct")
    Kv = virtualize_crossing(virtualize_crossing(K, v1), v2)
    Ks = switch_crossing(switch_crossing(K, v1), v2)
    if kauffman_bracket(Kv) != kauffman_bracket(Ks):
        raise AssertionError("bracket(K_v) != bracket(K_s) for double virtualization")
    states = {}
    total = LaurentPoly.zero()
    for s1 in (SmoothingType.ALPHA, SmoothingType.BETA):
        for s2 in (SmoothingType.ALPHA, SmoothingType.BETA):
            dd = smooth_crossing(smooth_crossing(K, v1, s1), v2, s2)
            states[s1.value + s2.value] = format_gauss_code(dd)
            c = sum(1 if s is SmoothingType.ALPHA else -1 for s in (s1, s2))
            total = total + LaurentPoly.monomial(c) * kauffman_bracket(dd)
    if total != kauffman_bracket(K):
        raise AssertionError("four-state expansion does not reproduce the bracket")
    exp = consistent = None
    if tangle is not None:
        exp = expand_tangle(tangle)
        consistent = closure_consistency(tangle, exp)
    return DoubleVirtualizationReport(
        diagram=format_gauss_code(K),
        crossings=(v1, v2),
        four_states=states,
        expansion=exp,
        expansion_consistent=consistent,
        certificate=certify(Kv),
    )
