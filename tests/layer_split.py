"""Where `certify`, `surface-bracket` or `jones` spends its time, layer by
layer, in process.

    PYTHONPATH=src python tests/layer_split.py WORKLOAD [--repeat N]

WORKLOAD names a benchmark workload of perfbench/workloads.py.  The split
times the ops of each of these commands that the workload runs: `certify`
(family_certify, random_certify, catalog_reports), `surface-bracket`
(catalog_reports) and `jones` (planar_jones), through cumulative stages,
each stage redoing the ones before it.  A `certify` op starts from its
diagram:

    carter     build_carter_surface, which builds the StateTables
    refined    + the quad refinement (rep.refined)
    homology   + the tree-cotree homology (rep.homology)
    tables     + analysis._class_steps
    certify    the whole of analysis.certify (setup, sweep and criteria)

The refined, homology and tables stages build the refinement and the
homology on every op, though at genus 0 `certify` stops after the Carter
surface and `analysis._class_steps` builds neither.

a `surface-bracket` op from its diagram too:

    carter     build_carter_surface
    sweep      + the packed sums of the bracket: analysis._image_sum, the
               d-image, at genus <= 1, analysis._bracket_sum, the
               curve-named sweep, at genus >= 2
    readout    the whole of analysis.surface_bracket and its to_json()

and a `jones` op from its argv:

    parse      the argv and its Gauss code (or catalog entry) to a diagram
    tables     + StateTables
    order      + frontier.greedy_order
    state_sum  + the frontier sweep: frontier.state_sum of the tables,
               which takes the greedy order itself
    jones      the whole op, vknot.cli.main with stdout captured

after which a `keys` line gives the summed and the peak frontier keys of
those sweeps: the keys after each step, counted by wrapping
`frontier._step` for one extra pass.

Each stage's total over the ops is the best of N runs, the stages taking
turns within a run; a layer's own time is its stage minus the stage
before it.  Not collected by pytest.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perfbench.workloads import POOLS, all_ops  # noqa: E402

from vknot import frontier  # noqa: E402
from vknot.analysis import _bracket_sum, _class_steps, _image_sum, certify, surface_bracket  # noqa: E402
from vknot.bracket import StateTables  # noqa: E402
from vknot.cli import _resolve_diagram, build_parser, main as cli_main  # noqa: E402
from vknot.frontier import greedy_order, state_sum  # noqa: E402
from vknot.surface import build_carter_surface  # noqa: E402


def _carter(d):
    return build_carter_surface(d)


def _refined(d):
    rep = build_carter_surface(d)
    return rep.refined


def _homology(d):
    rep = build_carter_surface(d)
    return rep.homology


def _tables(d):
    rep = build_carter_surface(d)
    rep.homology
    return _class_steps(rep)


def _surface_sweep(d):
    rep = build_carter_surface(d)
    return (_image_sum if rep.genus <= 1 else _bracket_sum)(rep)


def _surface_readout(d):
    return surface_bracket(build_carter_surface(d)).to_json()


def _parse(argv):
    return _resolve_diagram(build_parser().parse_args(argv))


def _planar_tables(argv):
    return StateTables(_parse(argv))


def _order(argv):
    tables = _planar_tables(argv)
    return tables, greedy_order(tables)


def _state_sum(argv):
    return state_sum(_planar_tables(argv))


def _jones(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        return cli_main(argv)


#: command -> (its stages, the input of every stage from the op's argv)
SPLITS = {
    "certify": (
        [("carter", _carter), ("refined", _refined), ("homology", _homology), ("tables", _tables), ("certify", certify)],
        _parse,
    ),
    "surface-bracket": ([("carter", _carter), ("sweep", _surface_sweep), ("readout", _surface_readout)], _parse),
    "jones": (
        [("parse", _parse), ("tables", _planar_tables), ("order", _order), ("state_sum", _state_sum), ("jones", _jones)],
        list,
    ),
}


def planar_keys(inputs: list) -> tuple[int, int]:
    """(summed, peak) frontier keys of the planar sweeps of the `jones` ops
    `inputs`, over the steps of every sweep: `frontier._step` is wrapped
    while they run once."""
    counts = []
    step = frontier._step

    def counting(*args):
        out = step(*args)
        counts.append(len(out))
        return out

    frontier._step = counting
    try:
        for argv in inputs:
            _state_sum(argv)
    finally:
        frontier._step = step
    return sum(counts), max(counts, default=0)


def split_inputs(workload: str) -> dict[str, list]:
    """Each command of SPLITS that the workload runs -> the stage input of
    every op of it that any seed of the workload can run."""
    ops = [argv for argv, _ in all_ops(workload)]
    inputs = {command: [prepare(argv) for argv in ops if argv[0] == command] for command, (_, prepare) in SPLITS.items()}
    return {command: xs for command, xs in inputs.items() if xs}


def split(stages: list, inputs: list, repeat: int) -> dict[str, float]:
    """Stage -> best total seconds over `repeat` runs of every input.
    Each run times every stage in turn, so a machine that changes speed
    during the split slows all stages alike."""
    best = dict.fromkeys([name for name, _ in stages], float("inf"))
    for _ in range(repeat):
        for name, stage in stages:
            start = perf_counter()
            for x in inputs:
                stage(x)
            best[name] = min(best[name], perf_counter() - start)
    return best


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(POOLS))
    parser.add_argument("--repeat", type=int, default=9)
    args = parser.parse_args(argv)
    commands = split_inputs(args.workload)
    if not commands:
        parser.error(f"{args.workload} runs no {' or '.join(SPLITS)} op")
    for command, inputs in commands.items():
        stages, _ = SPLITS[command]
        best = split(stages, inputs, args.repeat)
        print(f"{args.workload}: {len(inputs)} {command} ops, best of {args.repeat}, ms")
        before = 0.0
        for name, _ in stages:
            print(f"  {name:10s} {1e3 * (best[name] - before):8.2f}   cumulative {1e3 * best[name]:8.2f}")
            before = best[name]
        if command == "jones":
            summed, peak = planar_keys(inputs)
            print(f"  {'keys':10s} summed {summed}   peak {peak}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
