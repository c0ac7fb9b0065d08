"""Where `certify`, `surface-bracket`, `jones` or
`double-virtualize-report` spends its time, layer by layer, in process.

    PYTHONPATH=src python tests/layer_split.py WORKLOAD [--repeat N]

WORKLOAD names a benchmark workload of perfbench/workloads.py.  The split
times the ops of each of these commands that the workload runs: `certify`
(family_certify, random_certify, catalog_reports), `surface-bracket`
(catalog_reports), `jones` (planar_jones) and `double-virtualize-report`
(catalog_reports, on the section-5 knot), through cumulative stages,
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
    schedule   + the sweep's schedule: the sweep with steps that return the
               frontier unchanged, which is the greedy order and the
               per-step slots, closes and picked slots, without a kernel
    state_sum  + the frontier sweep: frontier.state_sum of the tables,
               which takes the greedy order itself
    jones      the whole op, vknot.cli.main with stdout captured

after which a `keys` line gives the summed and the peak frontier keys of
those sweeps: the keys after each step, counted by wrapping
`frontier._step` for one extra pass.

A `double-virtualize-report` op starts from its catalog entry's diagram,
crossing pair and complementary tangle:

    schedule   the moves that make the diagrams of the report's 21 planar
               brackets (K_v, K_s, K, the four states at the two crossings
               and the tangle's closure by each of its caps), their
               StateTables and each one's sweep schedule, as in `jones`
    brackets   + the 21 brackets themselves: the sweeps' kernels and the
               readouts
    left       + the tangle's expansion and the closure check's left sides
               (tangle._closure_sums)
    certify    + certify(K_v)
    report     the whole op, vknot.cli.main with stdout captured (the
               report and its JSON)

The schedule of the other two of the op's 23 sweeps, the tangle's and the
d-image's of certify(K_v), stays in `left` and `certify`.

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
from vknot.bracket import StateTables, kauffman_bracket  # noqa: E402
from vknot.catalog import catalog_entry  # noqa: E402
from vknot.cli import _resolve_diagram, build_parser, main as cli_main  # noqa: E402
from vknot.diagram import SmoothingType, smooth_crossing, switch_crossing, virtualize_crossing  # noqa: E402
from vknot.frontier import greedy_order, state_sum  # noqa: E402
from vknot.surface import build_carter_surface  # noqa: E402
from vknot.tangle import _closure_sums, close_tangle, expand_tangle, noncrossing_matchings, parse_tangle  # noqa: E402


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


def _schedule(tables):
    """The sweep of `tables` with steps that return the frontier unchanged:
    its schedule alone."""
    return frontier._sweep(tables, lambda key: None, lambda front, *schedule: front)


def _planar_schedule(argv):
    return _schedule(_planar_tables(argv))


def _state_sum(argv):
    return state_sum(_planar_tables(argv))


def _cli_op(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        return cli_main(argv)


def _report_input(argv):
    """(argv, diagram, crossing pair, tangle) of a catalog entry's op."""
    entry = catalog_entry(build_parser().parse_args(argv).catalog)
    return argv, _parse(argv), entry.crossings, parse_tangle(entry.tangle)


def _report_diagrams(x):
    """The report's K_v and the diagrams of its 21 planar brackets."""
    _, K, (v1, v2), t = x
    Kv = virtualize_crossing(virtualize_crossing(K, v1), v2)
    Ks = switch_crossing(switch_crossing(K, v1), v2)
    states = [smooth_crossing(smooth_crossing(K, v1, s1), v2, s2) for s1 in SmoothingType for s2 in SmoothingType]
    closures = [close_tangle(t, cap) for cap in noncrossing_matchings(t.n_boundary)]
    return Kv, [Kv, Ks, K, *states, *closures]


def _report_schedule(x):
    _, diagrams = _report_diagrams(x)
    return [_schedule(StateTables(d)) for d in diagrams]


def _report_brackets(x):
    Kv, diagrams = _report_diagrams(x)
    return Kv, [kauffman_bracket(d) for d in diagrams]


def _report_left(x):
    t = x[3]
    return _report_brackets(x), _closure_sums(t, expand_tangle(t))


def _report_certify(x):
    (Kv, _), _ = _report_left(x)
    return certify(Kv)


def _report(x):
    return _cli_op(x[0])


#: command -> (its stages, the input of every stage from the op's argv)
SPLITS = {
    "certify": (
        [("carter", _carter), ("refined", _refined), ("homology", _homology), ("tables", _tables), ("certify", certify)],
        _parse,
    ),
    "surface-bracket": ([("carter", _carter), ("sweep", _surface_sweep), ("readout", _surface_readout)], _parse),
    "jones": (
        [
            ("parse", _parse),
            ("tables", _planar_tables),
            ("order", _order),
            ("schedule", _planar_schedule),
            ("state_sum", _state_sum),
            ("jones", _cli_op),
        ],
        list,
    ),
    "double-virtualize-report": (
        [
            ("schedule", _report_schedule),
            ("brackets", _report_brackets),
            ("left", _report_left),
            ("certify", _report_certify),
            ("report", _report),
        ],
        _report_input,
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
