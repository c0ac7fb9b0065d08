"""Command-line interface.

Subcommands: bracket, fpoly, jones, genus, surface-bracket, certify,
tangle-expand, virtualize-report, double-virtualize-report, catalog.
Inconclusive verdicts exit 0 (they are valid answers); only parse and
validation failures exit 2.  Identical inputs and flags produce
byte-identical output; --parallel changes wall time only.
"""

from __future__ import annotations

import argparse
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
        return int(raw) if raw else DEFAULT_MAX_CROSSINGS
    except ValueError:
        raise CliError(f"VKNOT_MAX_CROSSINGS must be an integer, got {raw!r}")


def _resolve_diagram(args) -> VirtualLinkDiagram:
    if (args.code is not None) == (args.catalog is not None):
        raise CliError("provide exactly one input: an inline Gauss code or --catalog NAME")
    if args.catalog is not None:
        if args.catalog == "p_family":
            n = args.n if args.n is not None else 0
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
    """Refuse inputs with more than VKNOT_MAX_CROSSINGS crossings.

    The planar bracket and the tangle expansion are frontier sweeps whose
    cost follows the diagram's width, not 2^n, but the surface bracket
    behind `surface-bracket`, `certify` and both reports still enumerates
    all 2^n states, so one crossing cap still holds for every input.
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
    sb = analysis.surface_bracket(rep, parallel=args.parallel)
    _emit_json(sb.to_json(), args)
    return 0


def cmd_certify(args) -> int:
    cert = analysis.certify(_resolve_diagram(args), parallel=args.parallel)
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
    t = None
    pair = None
    entry = _named_entry(args)
    if entry is not None:
        pair = entry.crossings
        if entry.tangle:
            t = tangle.parse_tangle(entry.tangle)
    if args.crossings:
        try:
            a, b = (int(x) for x in args.crossings.split(","))
        except ValueError:
            raise CliError("--crossings expects two comma-separated ids, e.g. 1,3")
        pair = (a, b)
    if pair is None:
        raise CliError("no crossing pair: use --crossings A,B or a catalog entry that has one")
    for v in pair:
        if v not in d.signs:
            raise CliError(f"crossing {v} not in diagram")
    rep = tangle.double_virtualization_report(d, pair[0], pair[1], tangle=t)
    _emit_json(rep.to_json(), args)
    return 0


def cmd_catalog(args) -> int:
    if args.action == "list":
        if args.format == "json":
            print(json.dumps(catalog_names()))
        else:
            for name in catalog_names():
                print(name)
        return 0
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


def _worker_count(text: str) -> int:
    """--parallel value: an integer >= 1 (the library clamps it to the usable CPUs)."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _add_common(p: argparse.ArgumentParser, diagram_input: bool = True) -> None:
    p.add_argument("--format", choices=("text", "json"), default="text")
    if diagram_input:
        p.add_argument("code", nargs="?", help="inline signed Gauss code")
        p.add_argument("--catalog", help="catalog entry name (or p_family with --n)")
        p.add_argument("--n", type=int, help="twist-family index for --catalog p_family")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="vknot", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    # (name, handler, takes --parallel): only the surface bracket's
    # state-by-state sum splits over processes
    for name, fn, parallel in (
        ("bracket", cmd_bracket, False),
        ("fpoly", cmd_fpoly, False),
        ("jones", cmd_jones, False),
        ("genus", cmd_genus, False),
        ("surface-bracket", cmd_surface_bracket, True),
        ("certify", cmd_certify, True),
    ):
        p = sub.add_parser(name)
        _add_common(p)
        if parallel:
            p.add_argument("--parallel", type=_worker_count, default=1)
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
    if args.command == "catalog" and args.action == "show" and not args.name:
        print("catalog show requires an entry name", file=sys.stderr)
        return 2
    try:
        return args.fn(args)
    except CliError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (ParseError, ValidationError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
