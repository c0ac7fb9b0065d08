"""Command-line interface.

Subcommands: bracket, fpoly, jones, genus, surface-bracket, certify,
tangle-expand, virtualize-report, double-virtualize-report, catalog.
Inconclusive verdicts exit 0 (they are valid answers); only parse and
validation failures exit 2.  Identical inputs and flags produce
byte-identical output.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from . import analysis, bracket, surface, tangle
from .catalog import CatalogEntry, catalog_entry, catalog_names, catalog_p_family, catalog as _catalog
from .diagram import ParseError, ValidationError, VirtualLinkDiagram, parse_gauss_code
from .laurent import LOOP_VALUE, LaurentPoly, format_laurent

DEFAULT_MAX_CROSSINGS = 20


class CliError(Exception):
    """User-input failure; rendered to stderr with exit code 2."""


def _max_crossings() -> int:
    raw = os.environ.get("VKNOT_MAX_CROSSINGS", "")
    try:
        value = int(raw) if raw else DEFAULT_MAX_CROSSINGS
    except ValueError:
        raise CliError(f"VKNOT_MAX_CROSSINGS must be an integer, got {raw!r}")
    if value < 0:
        raise CliError(f"VKNOT_MAX_CROSSINGS must be at least 0, got {value}")
    return value


def _resolve_diagram(args) -> VirtualLinkDiagram:
    if (args.code is not None) == (args.catalog is not None):
        raise CliError("provide exactly one input: an inline Gauss code or --catalog NAME")
    if args.n is not None and args.catalog != "p_family":
        raise CliError("--n applies only to --catalog p_family")
    if args.catalog is not None:
        if args.catalog == "p_family":
            n = args.n if args.n is not None else 0
            if n < 0:
                raise CliError(f"--n must be at least 0, got {n}")
            _check_crossing_cap(6 + 2 * n)  # before the build, which grows with n
            d = catalog_p_family(n)
        else:
            try:
                d = _catalog(args.catalog)
            except KeyError as e:
                raise CliError(str(e.args[0]))
    else:
        try:
            d = parse_gauss_code(args.code)
        except (ParseError, ValidationError) as e:
            raise CliError(f"bad Gauss code: {e}")
    _check_crossing_cap(d.n_crossings)
    return d


def _named_entry(args) -> CatalogEntry | None:
    """The catalog entry of --catalog, or None for an inline code or p_family."""
    if args.catalog in (None, "p_family"):
        return None
    return catalog_entry(args.catalog)


def _check_crossing_cap(n_crossings: int) -> None:
    """Refuse inputs with more than VKNOT_MAX_CROSSINGS crossings: a
    deployment limit on the time and memory of the surface sweeps (the
    d-image behind `certify` and both reports, and the surface bracket),
    whose keys grow about as fast as 2^n on random codes of high genus.  On
    one-component codes of Carter genus >= 3 from tests/randgen.py
    (`random_gauss_code`, `random.Random(7)`, four per size; shared 2-vCPU
    machine), `certify` took 1.6-6.2 s at 20 crossings and 17-58 s (2.1 GB
    peak) at 24.  `jones` took at most 0.006-0.011 s (best of 5 per code,
    three runs) on the first four such codes of 24 crossings, drawn from
    one `random.Random(7)` after the four of 20.  `certify` on the
    86-crossing `catalog_p_family(40)` took 0.16 s.  The cost follows the
    shape of the diagram, known only once the surface is built, so one cap
    holds for every input, tangles included.
    """
    if n_crossings > _max_crossings():
        raise CliError(f"{n_crossings} crossings exceeds VKNOT_MAX_CROSSINGS={_max_crossings()}")


def _emit_poly(p: LaurentPoly, args) -> None:
    if args.format == "json":
        print(json.dumps(p.to_json(), sort_keys=True))
    else:
        print(format_laurent(p))


def _emit_json(obj: dict, args) -> None:
    if args.format == "json":
        print(json.dumps(obj, sort_keys=False))
    else:
        print(json.dumps(obj, indent=2, sort_keys=False))


def cmd_bracket(args) -> int:
    d = _resolve_diagram(args)
    p = bracket.kauffman_bracket(d)
    if args.convention == "unreduced":
        p = p * LOOP_VALUE
    _emit_poly(p, args)
    return 0


def cmd_fpoly(args) -> int:
    _emit_poly(bracket.f_polynomial(_resolve_diagram(args)), args)
    return 0


def cmd_jones(args) -> int:
    _emit_poly(bracket.jones(_resolve_diagram(args)), args)
    return 0


def cmd_genus(args) -> int:
    print(surface.genus(_resolve_diagram(args)))
    return 0


def cmd_surface_bracket(args) -> int:
    d = _resolve_diagram(args)
    rep = surface.build_carter_surface(d)
    sb = analysis.surface_bracket(rep)
    _emit_json(sb.to_json(), args)
    return 0


def cmd_certify(args) -> int:
    cert = analysis.certify(_resolve_diagram(args))
    if args.format == "json":
        print(cert.to_json_str())
    else:
        print(str(cert))
    return 0


def cmd_tangle_expand(args) -> int:
    try:
        t = tangle.parse_tangle(args.tangle)
    except (ParseError, ValidationError, tangle.NonClassicalTangle) as e:
        raise CliError(f"bad tangle: {e}")
    _check_crossing_cap(t.n_crossings)
    _emit_json(tangle.expand_tangle(t).to_json(), args)
    return 0


def cmd_virtualize_report(args) -> int:
    d = _resolve_diagram(args)
    v = args.crossing
    if v is None:
        entry = _named_entry(args)
        if entry is None or entry.crossing is None:
            raise CliError("--crossing is required (no distinguished crossing available)")
        v = entry.crossing
    if v not in d.signs:
        raise CliError(f"crossing {v} not in diagram")
    rep = tangle.virtualization_report(d, v)
    _emit_json(rep.to_json(), args)
    return 0


def cmd_double_virtualize_report(args) -> int:
    d = _resolve_diagram(args)
    entry = _named_entry(args)
    pair = None if entry is None else entry.crossings
    if args.crossings:
        try:
            a, b = (int(x) for x in args.crossings.split(","))
        except ValueError:
            raise CliError("--crossings expects two comma-separated ids, e.g. 1,3")
        pair = (a, b)
    if pair is None:
        raise CliError("no crossing pair: use --crossings A,B or a catalog entry that has one")
    if pair[0] == pair[1]:
        raise CliError(f"--crossings expects two distinct ids, got {pair[0]} twice")
    for v in pair:
        if v not in d.signs:
            raise CliError(f"crossing {v} not in diagram")
    # the entry's tangle is the complement of the entry's pair only
    t = None
    if entry is not None and entry.tangle and set(pair) == set(entry.crossings):
        t = tangle.parse_tangle(entry.tangle)
    rep = tangle.double_virtualization_report(d, pair[0], pair[1], tangle=t)
    _emit_json(rep.to_json(), args)
    return 0


def cmd_catalog(args) -> int:
    if args.action == "list":
        if args.name is not None:
            raise CliError(f"catalog list takes no entry name, got {args.name!r}")
        if args.format == "json":
            print(json.dumps(catalog_names()))
        else:
            for name in catalog_names():
                print(name)
        return 0
    if not args.name:
        raise CliError("catalog show requires an entry name")
    try:
        e = catalog_entry(args.name)
    except KeyError as err:
        raise CliError(str(err.args[0]))
    obj = {"name": e.name, "code": e.code, "description": e.description}
    if e.crossing is not None:
        obj["crossing"] = e.crossing
    if e.crossings is not None:
        obj["crossings"] = list(e.crossings)
    if e.tangle is not None:
        obj["tangle"] = e.tangle
    _emit_json(obj, args)
    return 0


def _add_common(p: argparse.ArgumentParser, diagram_input: bool = True) -> None:
    p.add_argument("--format", choices=("text", "json"), default="text")
    if diagram_input:
        p.add_argument("code", nargs="?", help="inline signed Gauss code")
        p.add_argument("--catalog", help="catalog entry name (or p_family with --n)")
        p.add_argument("--n", type=int, help="twist-family index for --catalog p_family")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process and shared by every
    `main` call (parsing does not change it)."""
    ap = argparse.ArgumentParser(prog="vknot", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    for name, fn in (
        ("bracket", cmd_bracket),
        ("fpoly", cmd_fpoly),
        ("jones", cmd_jones),
        ("genus", cmd_genus),
        ("surface-bracket", cmd_surface_bracket),
        ("certify", cmd_certify),
    ):
        p = sub.add_parser(name)
        _add_common(p)
        if name == "bracket":
            # the surface bracket is defined un-reduced, so only the planar
            # bracket has a choice of convention
            p.add_argument("--convention", choices=("reduced", "unreduced"), default="reduced")
        p.set_defaults(fn=fn)

    p = sub.add_parser("tangle-expand")
    _add_common(p, diagram_input=False)
    p.add_argument("tangle", help="tangle code with B1..B2n boundary tokens")
    p.set_defaults(fn=cmd_tangle_expand)

    p = sub.add_parser("virtualize-report")
    _add_common(p)
    p.add_argument("--crossing", type=int, help="crossing to analyse")
    p.set_defaults(fn=cmd_virtualize_report)

    p = sub.add_parser("double-virtualize-report")
    _add_common(p)
    p.add_argument("--crossings", help="two comma-separated crossing ids")
    p.set_defaults(fn=cmd_double_virtualize_report)

    p = sub.add_parser("catalog")
    p.add_argument("action", choices=("list", "show"))
    p.add_argument("name", nargs="?")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(fn=cmd_catalog)
    return ap


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (CliError, ParseError, ValidationError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
