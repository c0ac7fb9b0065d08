"""Build reference.json: the outcome and stdout digest of every op any seed
can schedule, taken from the vknot sources of this checkout.

    python3 perfbench/make_reference.py [workload ...]

Run it only at a commit whose outputs are trusted.  Before an output is
recorded it is cross-checked against the skein-recursion oracle
`bracket.bracket_by_recursion`:

- bracket: the printed polynomial equals the oracle;
- jones: it equals (-A^3)^(-w) times the oracle;
- certify and surface-bracket: the surface bracket behind them collapses
  to d times the oracle, and the printed genus is the surface genus.

Ops that raise are recorded with the exception type and listed on stderr.
"""

from __future__ import annotations

import json
import sys
import time

import workloads
from run import REFERENCE, digest, load_cli, op_key, run_op


def _diagram(argv: list[str]):
    from vknot.catalog import catalog, catalog_p_family
    from vknot.diagram import parse_gauss_code

    if "--catalog" in argv:
        name = argv[argv.index("--catalog") + 1]
        return catalog_p_family(int(argv[argv.index("--n") + 1])) if name == "p_family" else catalog(name)
    return parse_gauss_code(argv[1])


def cross_check(argv: list[str], stdout: str) -> None:
    """Raise AssertionError when a bracket-valued output disagrees with the oracle."""
    from vknot.analysis import surface_bracket
    from vknot.bracket import bracket_by_recursion
    from vknot.diagram import writhe
    from vknot.laurent import LOOP_VALUE, LaurentPoly
    from vknot.surface import build_carter_surface

    command = argv[0]
    if command not in ("bracket", "jones", "certify", "surface-bracket"):
        return
    d = _diagram(argv)
    oracle = bracket_by_recursion(d)
    if command in ("bracket", "jones"):
        printed = LaurentPoly.from_json(json.loads(stdout))
        if command == "jones":
            w = writhe(d)
            oracle = LaurentPoly.monomial(-3 * w, -1 if w % 2 else 1) * oracle
        if printed != oracle:
            raise AssertionError(f"{op_key(argv)}: output differs from bracket_by_recursion")
        return
    rep = build_carter_surface(d)
    if json.loads(stdout)["genus"] != rep.genus:
        raise AssertionError(f"{op_key(argv)}: printed genus differs from the surface genus")
    if surface_bracket(rep).collapse() != LOOP_VALUE * oracle:
        raise AssertionError(f"{op_key(argv)}: surface bracket does not collapse to d * bracket_by_recursion")


def main(names: list[str]) -> int:
    cli = load_cli()
    try:
        with REFERENCE.open() as f:
            reference = json.load(f)
    except FileNotFoundError:
        reference = {}
    for workload in names or sorted(workloads.POOLS):
        entries = {}
        t0 = time.perf_counter()
        for argv, _ in workloads.all_ops(workload):
            outcome, stdout = run_op(cli, argv)
            if outcome == "exit=0":
                cross_check(argv, stdout)
            else:
                print(f"{workload}: {op_key(argv)} -> {outcome}", file=sys.stderr)
            entries[op_key(argv)] = digest(outcome, stdout)
        reference[workload] = entries
        print(f"{workload}: {len(entries)} ops in {time.perf_counter() - t0:.0f} s", file=sys.stderr)
    with REFERENCE.open("w") as f:
        json.dump(reference, f, indent=1, sort_keys=True)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
