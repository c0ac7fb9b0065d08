"""Where `certify` spends its time, layer by layer, in process.

    PYTHONPATH=src python tests/layer_split.py WORKLOAD [--repeat N]

WORKLOAD names a benchmark workload of perfbench/workloads.py whose ops
run `certify` (family_certify, random_certify).  Every certify op of its
pools is timed through cumulative stages, each stage redoing the ones
before it on a fresh diagram:

    carter    build_carter_surface
    refined   + the quad refinement (rep.refined)
    homology  + the tree-cotree homology (rep.homology)
    tables    + StateTables and analysis._class_steps
    certify   the whole of analysis.certify (setup, sweep and criteria)

Each stage's total over the ops is the best of N runs, the stages taking
turns within a run; a layer's own time is its stage minus the stage
before it.  Not collected by pytest.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perfbench.workloads import POOLS, all_ops  # noqa: E402

from vknot.analysis import _class_steps, certify  # noqa: E402
from vknot.bracket import StateTables  # noqa: E402
from vknot.cli import _resolve_diagram, build_parser  # noqa: E402
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
    return _class_steps(rep, StateTables(d))


STAGES = [("carter", _carter), ("refined", _refined), ("homology", _homology), ("tables", _tables), ("certify", certify)]


def certify_diagrams(workload: str) -> list:
    """The diagram of every `certify` op any seed of the workload can run."""
    parser = build_parser()
    return [_resolve_diagram(parser.parse_args(argv)) for argv, _ in all_ops(workload) if argv[0] == "certify"]


def split(diagrams: list, repeat: int) -> dict[str, float]:
    """Stage -> best total seconds over `repeat` runs of every diagram.
    Each run times every stage in turn, so a machine that changes speed
    during the split slows all stages alike."""
    best = dict.fromkeys([name for name, _ in STAGES], float("inf"))
    for _ in range(repeat):
        for name, stage in STAGES:
            start = perf_counter()
            for d in diagrams:
                stage(d)
            best[name] = min(best[name], perf_counter() - start)
    return best


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(POOLS))
    parser.add_argument("--repeat", type=int, default=9)
    args = parser.parse_args(argv)
    diagrams = certify_diagrams(args.workload)
    if not diagrams:
        parser.error(f"{args.workload} runs no certify op")
    best = split(diagrams, args.repeat)
    print(f"{args.workload}: {len(diagrams)} certify ops, best of {args.repeat}, ms")
    before = 0.0
    for name, _ in STAGES:
        print(f"  {name:9s} {1e3 * (best[name] - before):8.2f}   cumulative {1e3 * best[name]:8.2f}")
        before = best[name]
    return 0


if __name__ == "__main__":
    sys.exit(main())
