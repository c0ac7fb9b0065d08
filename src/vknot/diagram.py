"""Virtual knot and link diagrams as signed Gauss codes.

A diagram is a cyclic word per component recording each classical
crossing visit as Over/Under together with the crossing sign.  Virtual
crossings are not stored: the signed Gauss code carries exactly the data
every computation here consumes, and non-planarity surfaces later as the
genus of the associated surface representation.

Grammar (bit-exact):  diagram := component (";" component)*;
component := pass+ | "U";  pass := ("O"|"U") integer ("+"|"-");
whitespace is ignored, and a component is never empty.  The sign is
written on both passes of a crossing and must agree.  The tangle grammar
(`vknot.tangle`) adds boundary tokens "B<n>".  This module owns what the
two grammars share: `read_strands` reads either text into its components
and crossing signs, `check_crossings` checks the passes and signs of a
diagram or tangle, `format_passes` writes passes back, and
`reverse_signs` applies the sign rule for reversed strands.
"""

from __future__ import annotations

import re
from enum import Enum
from typing import Callable, Iterable, NamedTuple, Sequence

OVER = "O"
UNDER = "U"


class SmoothingType(Enum):
    """The two planar resolutions of a classical crossing."""

    ALPHA = "A"
    BETA = "B"


class ParseError(ValueError):
    """Gauss-code text violates the grammar."""


class ValidationError(ValueError):
    """Syntactically valid code that does not describe a diagram."""


class UnknownCrossingError(KeyError):
    """Crossing id not present in the diagram."""


class Pass(NamedTuple):
    """One visit of a strand to a classical crossing."""

    crossing: int
    role: str  # OVER or UNDER

    def __str__(self) -> str:
        return f"{self.role}{self.crossing}"


# one token and the whitespace before it; the text's trailing whitespace is
# cut before reading
_TOKEN = re.compile(r"\s*(?:([OU])(\d+)([+-])|B(\d+)|(U)|(;))")


def read_strands(text: str) -> tuple[list[list], dict[int, int]]:
    """The ";"-separated components of `text` and the sign of each crossing.

    A component is the list of its tokens: a Pass, the int n of a boundary
    point "B<n>", or "U" for the unknot marker.  Text with no token has no
    component; whitespace is skipped.  Raises ParseError on input that is
    no token and on an empty component, and ValidationError when the two
    passes of a crossing carry different signs.  Which tokens may stand
    where is left to `parse_gauss_code` and `tangle.parse_tangle`.
    """
    strand: list = []
    strands = [strand]
    signs: dict[int, int] = {}
    pos, end = 0, len(text.rstrip())
    while pos < end:
        m = _TOKEN.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected input at {text[pos:].strip()[:10]!r}")
        pos = m.end()
        role, cid_s, sign_s, boundary, marker, _ = m.groups()
        if role:
            cid = int(cid_s)
            sign = 1 if sign_s == "+" else -1
            if signs.setdefault(cid, sign) != sign:
                raise ValidationError(f"crossing {cid}: sign mismatch between its two passes")
            strand.append(Pass(cid, role))
        elif boundary:
            strand.append(int(boundary))
        elif marker:
            strand.append(marker)
        else:
            strand = []
            strands.append(strand)
    if strands == [[]]:
        return [], signs
    if [] in strands:
        raise ParseError("empty component")
    return strands, signs


def check_crossings(
    strands: Iterable[Sequence[Pass]], signs: dict[int, int], unpaired: Callable[[int, list[str]], Exception]
) -> None:
    """Refuse passes and signs that do not make crossings.

    Raises ValidationError unless the passes of `strands` and `signs` name
    the same crossings and every sign is +1 or -1, and the exception
    `unpaired(cid, roles)` unless crossing cid has one Over and one Under
    pass; `roles` lists the roles of its passes.
    """
    seen: dict[int, list[str]] = {}
    for passes in strands:
        for p in passes:
            seen.setdefault(p.crossing, []).append(p.role)
    if seen.keys() != signs.keys():
        raise ValidationError("crossing ids of passes and signs disagree")
    for cid, roles in seen.items():
        if sorted(roles) != [OVER, UNDER]:
            raise unpaired(cid, roles)
        if signs[cid] not in (1, -1):
            raise ValidationError(f"crossing {cid} has invalid sign")


def format_passes(passes: Iterable[Pass], signs: dict[int, int]) -> str:
    """The text of `passes`, each with its crossing's sign: "O1+U2-"."""
    return "".join(f"{p.role}{p.crossing}{'+' if signs[p.crossing] > 0 else '-'}" for p in passes)


def reverse_signs(signs: dict[int, int], passes: Iterable[Pass]) -> dict[int, int]:
    """The signs once the strands through `passes` run the other way.

    A crossing's sign is defined relative to the orientations of its two
    strands, so reversing one of them negates it: each pass negates its
    crossing's sign, and a crossing met twice keeps it.
    """
    out = dict(signs)
    for p in passes:
        out[p.crossing] = -out[p.crossing]
    return out


def arc_ends(
    strands: Sequence[tuple[Sequence[Pass], bool]], signs: dict[int, int]
) -> tuple[int, list[tuple[int, int, int, int]], list[int]]:
    """Arc-end numbering of a diagram or tangle: (n_arcs, rotation, boundary).

    `strands` holds (passes, is_open) pairs.  A closed strand (a diagram
    component) has one arc per pass, leaving that pass for the next one.  An
    open strand (a tangle strand) has one more: its first arc leaves its
    start boundary point and its last arc arrives at its end point.  Arc a
    has the ends 2a (tail) and 2a + 1 (head).

    `rotation` lists, for each crossing in id order, its four ends in
    counterclockwise order: (o_in, u_in, o_out, u_out) for a positive
    crossing, (o_in, u_out, o_out, u_in) for a negative one.  `boundary`
    lists the start and end of each open strand, strand by strand.
    """
    ends: dict[tuple[int, str], tuple[int, int]] = {}  # (crossing, role) -> (in end, out end)
    boundary: list[int] = []
    n_arcs = 0
    for passes, is_open in strands:
        base, m = n_arcs, len(passes) + is_open
        n_arcs += m
        if is_open:
            boundary += [2 * base, 2 * (base + m) - 1]
        # pass i arrives on arc i - 1 and leaves on arc i, counted from the
        # strand's first arc (an open strand's arc 0 runs from its boundary)
        for i, p in enumerate(passes, int(is_open)):
            ends[p.crossing, p.role] = (2 * (base + (i - 1) % m) + 1, 2 * (base + i % m))
    rotation = []
    for cid in sorted(signs):
        (o_in, o_out), (u_in, u_out) = ends[cid, OVER], ends[cid, UNDER]
        rotation.append((o_in, u_in, o_out, u_out) if signs[cid] > 0 else (o_in, u_out, o_out, u_in))
    return n_arcs, rotation, boundary


def _unpaired(cid: int, roles: list[str]) -> ValidationError:
    if len(roles) != 2:
        return ValidationError(f"crossing {cid} appears {len(roles)} times, expected 2")
    return ValidationError(f"crossing {cid} needs one Over and one Under pass")


class VirtualLinkDiagram:
    """Immutable virtual link diagram.

    `components` holds the cyclic pass sequences of components that meet
    classical crossings; `free_loops` counts zero-crossing unknot
    components; `signs` maps crossing id -> +1/-1.
    """

    __slots__ = ("components", "signs", "free_loops")

    def __init__(
        self,
        components: tuple[tuple[Pass, ...], ...],
        signs: dict[int, int],
        free_loops: int = 0,
    ):
        object.__setattr__(self, "components", tuple(tuple(c) for c in components))
        object.__setattr__(self, "signs", dict(signs))
        object.__setattr__(self, "free_loops", free_loops)
        self._validate()

    def __setattr__(self, *a):  # immutability guard
        raise AttributeError("VirtualLinkDiagram is immutable")

    def __reduce__(self):  # the guard breaks slot-based pickling
        return (VirtualLinkDiagram, (self.components, self.signs, self.free_loops))

    def _validate(self) -> None:
        if not all(self.components):
            raise ValidationError("empty component; use the 'U' unknot marker")
        check_crossings(self.components, self.signs, _unpaired)
        if self.free_loops < 0:
            raise ValidationError("negative free loop count")

    # -- queries ---------------------------------------------------------

    @property
    def crossing_ids(self) -> tuple[int, ...]:
        return tuple(sorted(self.signs))

    @property
    def n_crossings(self) -> int:
        return len(self.signs)

    @property
    def n_components(self) -> int:
        return len(self.components) + self.free_loops

    @property
    def arc_strands(self) -> tuple[tuple[tuple[Pass, ...], bool], ...]:
        """The components as closed strands, the input of `arc_ends`."""
        return tuple((comp, False) for comp in self.components)

    def positions(self, crossing: int) -> tuple[tuple[int, int], tuple[int, int]]:
        """The (component index, position) of the Over pass and the Under pass."""
        over = under = None
        for ci, comp in enumerate(self.components):
            for pi, p in enumerate(comp):
                if p.crossing == crossing:
                    if p.role == OVER:
                        over = (ci, pi)
                    else:
                        under = (ci, pi)
        if over is None or under is None:
            raise UnknownCrossingError(crossing)
        return over, under

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, VirtualLinkDiagram)
            and self.components == other.components
            and self.signs == other.signs
            and self.free_loops == other.free_loops
        )

    def __hash__(self) -> int:
        return hash((self.components, tuple(sorted(self.signs.items())), self.free_loops))

    def __repr__(self) -> str:
        return f"VirtualLinkDiagram({format_gauss_code(self)!r})"


def parse_gauss_code(text: str) -> VirtualLinkDiagram:
    """Parse and validate a signed Gauss code."""
    strands, signs = read_strands(text)
    if not strands:
        raise ParseError("empty diagram")
    components = []
    free = 0
    for strand in strands:
        if strand == ["U"]:
            free += 1
            continue
        for tok in strand:
            if type(tok) is not Pass:
                if tok == "U":
                    raise ParseError("unknot marker 'U' must be a whole component")
                raise ParseError(f"boundary token 'B{tok}' is tangle input, not a Gauss code")
        components.append(tuple(strand))
    return VirtualLinkDiagram(tuple(components), signs, free)


def format_gauss_code(d: VirtualLinkDiagram) -> str:
    """Canonical text form; parse(format(d)) == d."""
    return ";".join([*(format_passes(comp, d.signs) for comp in d.components), *["U"] * d.free_loops])


# -- elementary moves ----------------------------------------------------


def _replace_crossing(d: VirtualLinkDiagram, cid: int, swap_roles: bool) -> VirtualLinkDiagram:
    if cid not in d.signs:
        raise UnknownCrossingError(cid)
    comps = tuple(
        tuple(
            Pass(p.crossing, (UNDER if p.role == OVER else OVER) if swap_roles and p.crossing == cid else p.role)
            for p in comp
        )
        for comp in d.components
    )
    signs = dict(d.signs)
    signs[cid] = -signs[cid]
    return VirtualLinkDiagram(comps, signs, d.free_loops)


def switch_crossing(d: VirtualLinkDiagram, cid: int) -> VirtualLinkDiagram:
    """Exchange the Over/Under passes of a crossing and negate its sign."""
    return _replace_crossing(d, cid, swap_roles=True)


def virtualize_crossing(d: VirtualLinkDiagram, cid: int) -> VirtualLinkDiagram:
    """Replace a crossing by the opposite crossing flanked by virtual crossings.

    On the signed Gauss code this negates the crossing sign and keeps the
    Over/Under roles: the flanking virtual crossings restore strand
    connectivity while mirroring the local embedding.  This encoding is the
    one satisfying the defining identity bracket(K_v) == bracket(K_s).
    """
    return _replace_crossing(d, cid, swap_roles=False)


def mirror(d: VirtualLinkDiagram) -> VirtualLinkDiagram:
    """Mirror image: all signs negated, all Over/Under roles exchanged."""
    comps = tuple(
        tuple(Pass(p.crossing, UNDER if p.role == OVER else OVER) for p in comp) for comp in d.components
    )
    return VirtualLinkDiagram(comps, {c: -s for c, s in d.signs.items()}, d.free_loops)


def writhe(d: VirtualLinkDiagram) -> int:
    """Sum of classical crossing signs."""
    return sum(d.signs.values())


def smooth_crossing(d: VirtualLinkDiagram, cid: int, smoothing: SmoothingType) -> VirtualLinkDiagram:
    """Remove a crossing and reconnect the strands for the given smoothing type.

    For a positive crossing the type-Alpha (A) smoothing is the oriented
    reconnection and type-Beta the disoriented one; a negative crossing
    exchanges the two.
    """
    if cid not in d.signs:
        raise UnknownCrossingError(cid)
    oriented = (smoothing == SmoothingType.ALPHA) == (d.signs[cid] > 0)
    (oc, oi), (uc, ui) = d.positions(cid)
    comps = [list(c) for c in d.components]
    free = d.free_loops
    reversed_part: list[Pass] = []
    if oc == uc:
        seq = comps[oc]
        i, j = sorted((oi, ui))
        inner = seq[i + 1 : j]
        outer = seq[j + 1 :] + seq[:i]
        if oriented:
            new = [outer, inner]
        else:
            reversed_part = inner
            new = [outer + list(reversed(inner))]
        del comps[oc]
        for part in new:
            if part:
                comps.append(part)
            else:
                free += 1
    else:
        s1, s2 = comps[oc], comps[uc]
        i, j = oi, ui
        rest2 = s2[j + 1 :] + s2[:j]
        if oriented:
            merged = s1[:i] + rest2 + s1[i + 1 :]
        else:
            reversed_part = rest2
            merged = s1[:i] + list(reversed(rest2)) + s1[i + 1 :]
        for k in sorted((oc, uc), reverse=True):
            del comps[k]
        if merged:
            comps.append(merged)
        else:
            free += 1
    # the reversed segment holds no pass of cid, which the smoothing removes
    signs = reverse_signs(d.signs, reversed_part)
    del signs[cid]
    return VirtualLinkDiagram(tuple(tuple(c) for c in comps), signs, free)
