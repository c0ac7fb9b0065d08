"""Named example diagrams and the twist family.

Every entry was validated against the gates the test suite re-checks:
classical entries have genus-0 representations and their classical Jones
polynomials; the virtual entries have the expected representation genus,
bracket, and certificate.  Entries carry auxiliary data (a distinguished
crossing, a complementary tangle) where an analysis routine consumes it.
"""

from __future__ import annotations

from typing import NamedTuple

from .diagram import VirtualLinkDiagram, parse_gauss_code


class CatalogEntry(NamedTuple):
    name: str
    code: str
    description: str
    crossing: int | None = None            # distinguished crossing for reports
    crossings: tuple[int, int] | None = None  # pair for double virtualization
    tangle: str | None = None              # complementary tangle (B-grammar)

    @property
    def diagram(self) -> VirtualLinkDiagram:
        return parse_gauss_code(self.code)


_ENTRIES = [
    CatalogEntry("unknot", "U", "zero-crossing unknot"),
    CatalogEntry("unlink", "U;U", "two-component zero-crossing unlink"),
    CatalogEntry("kink", "O1+U1+", "unknot with one positive curl", crossing=1),
    CatalogEntry("trefoil", "O1+U2+O3+U1+O2+U3+", "right-handed trefoil", crossing=1),
    CatalogEntry(
        "figure_eight", "O1+U2+O3-U4-O2+U1+O4-U3-", "figure-eight knot", crossing=1
    ),
    CatalogEntry("hopf", "O1+U2+;U1+O2+", "positive Hopf link", crossing=1),
    CatalogEntry(
        "virtual_trefoil", "O1+O2+U1+U2+", "two-crossing virtual trefoil", crossing=1
    ),
    CatalogEntry(
        "kishino",
        "O1+U2-O3+U4-O2-U1+O4-U3+",
        "Kishino knot: trivial Jones polynomial, virtual genus 2",
    ),
    CatalogEntry(
        "modified_kishino",
        "O1+U2-O5+U6-O3+U4-O2-U1+O6-U5+O4-U3+",
        "Kishino variant with an extra clasp pair; twist-family member n=0",
    ),
    CatalogEntry(
        "linkL",
        "O1+O2-O3+U1+U2-U3+;O4+U4+",
        "virtual link whose distinguished crossing has alpha = 0, so "
        "virtualizing it is undetected by the bracket",
        crossing=1,
    ),
    CatalogEntry(
        "section5_knot",
        "O6+O7-O1+U2+U7-U6+O3+U4+O5+U1+O2+U3+O4+U5+",
        "(2,5) torus knot with a planar second-move pair; virtualizing the "
        "two distinguished crossings gives a genus-2 non-classical knot "
        "whose complementary 4-4 tangle drives the TL expansion report",
        crossings=(1, 3),
        tangle="B1U2+U7-U6+B3;B5U4+O5+B6;B8O2+B2;B4O4+U5+O6+O7-B7",
    ),
]

_BY_NAME = {e.name: e for e in _ENTRIES}


def catalog_names() -> list[str]:
    return [e.name for e in _ENTRIES]


def catalog_entry(name: str) -> CatalogEntry:
    try:
        return _BY_NAME[name]
    except KeyError:
        raise KeyError(f"unknown catalog entry {name!r}; see catalog_names()") from None


def catalog(name: str) -> VirtualLinkDiagram:
    return catalog_entry(name).diagram


_KISHINO_TOKENS = ["O1+", "U2-", "O3+", "U4-", "O2-", "U1+", "O4-", "U3+"]


def catalog_p_family(n: int) -> VirtualLinkDiagram:
    """The n-th twist-family member: Kishino with n+1 clasp pairs inserted.

    catalog_p_family(0) has 6 crossings and equals modified_kishino up to
    relabelling; each further n adds a clasp (two crossings) at the same
    site, preserving virtual genus 2 and the certificate NonClassical(2).
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    toks = _KISHINO_TOKENS
    left = [toks[0]]
    tail: list[str] = []  # built back to front
    for k in range(n + 1):
        a, b = 5 + 2 * k, 6 + 2 * k
        left += [f"O{a}+", f"U{b}-"]
        tail += [f"U{a}+", f"O{b}-"]
    tail.reverse()
    return parse_gauss_code("".join(left + toks[1:5] + tail + toks[5:]))
