"""vknot benchmark: one closed-loop client driving `vknot.cli.main` in process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each op is one `vknot.cli.main(argv)` call with stdout captured, so parsing,
computation and JSON emission are timed as a user pays for them.  The run
executes whole seeded blocks of ops (see workloads.py) back to back until
--seconds have passed, checks every op's outcome and stdout against
reference.json, and prints one line per metric and, last, one JSON object.

--trace 0 reports the end-to-end metrics.  --trace 1 runs every op twice,
plain and then with spans installed around vknot's public functions (see
tracing.py), reports the per-layer metrics per block and the tracing
overhead, and writes the spans to perfbench/out/.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"
OUT = HERE / "out"

#: Fresh-process imports per run, half before and half after the ops;
#: setup_s is their median.
SETUP_REPEATS = 41
IMPORT_PROBE = "import time; t = time.perf_counter(); import vknot.cli; print(time.perf_counter() - t)"
#: Samples required beyond the reported tail percentile.
TAIL_SAMPLES = 10

#: Time metrics are scaled to a machine on which `calibration_loop` takes
#: this long.  The shared 2-vCPU machine this benchmark was written on
#: switches between speed regimes up to 2x apart that last seconds to
#: minutes; timing a fixed pure-Python loop next to the ops and scaling by it
#: removes most of that from the metrics (README.md has the measurements).
REF_LOOP_S = 0.006
#: A timer signal times the loop this often while ops run, also in the
#: middle of a long op; the time it takes is left out of the op's latency.
CALIBRATE_EVERY_S = 0.5


def load_cli():
    """Import vknot.cli from this checkout's sources, never from elsewhere."""
    if not (SRC / "vknot" / "cli.py").is_file():
        raise SystemExit(f"perfbench: no vknot sources at {SRC}")
    sys.path.insert(0, str(SRC))
    from vknot import cli

    if Path(cli.__file__).resolve().parent != SRC / "vknot":
        raise SystemExit(f"perfbench: imported vknot from {cli.__file__}, not {SRC}")
    return cli


def calibration_loop() -> None:
    """Dict, tuple, frozenset and list work of the kind vknot's inner loops do."""
    acc: dict[int, int] = {}
    pairs = []
    for i in range(6000):
        k = (i * 7919) % 1021
        acc[k] = acc.get(k, 0) + i
        if i % 7 == 0:
            pairs.append((k, i))
    pairs.sort()
    seen: dict[frozenset, int] = {}
    for i in range(1000):
        t = tuple((i * j) % 97 for j in range(1, 7))
        seen[frozenset(t)] = seen.get(frozenset(t), 0) + 1
        [v * 2 for v in t]


def calibrate() -> float:
    """Seconds the calibration loop takes now: median of three timings.

    The cyclic GC is off while the loop runs, so its timing does not depend
    on the size of vknot's heap or on gc settings vknot may change.
    """
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(3):
            t0 = time.perf_counter()
            calibration_loop()
            times.append(time.perf_counter() - t0)
    finally:
        if gc_was_enabled:
            gc.enable()
    return statistics.median(times)


class Calibrator:
    """Times the calibration loop on a timer signal while ops run.

    The handler runs between bytecodes of whatever op is in progress, so the
    time it takes is subtracted from that op's wall time (`busy`).
    """

    def __init__(self):
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.loops: list[float] = []  # loop seconds of each timing

    def tick(self, *_) -> None:
        start = time.perf_counter()
        loop = calibrate()
        self.starts.append(start)
        self.ends.append(time.perf_counter())
        self.loops.append(loop)

    def __enter__(self) -> "Calibrator":
        self.tick()
        signal.signal(signal.SIGALRM, self.tick)
        signal.setitimer(signal.ITIMER_REAL, CALIBRATE_EVERY_S, CALIBRATE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.tick()

    def busy(self, start: float, end: float) -> float:
        """Seconds of [start, end] not spent in the handler."""
        i = bisect.bisect_right(self.ends, start)
        stolen = 0.0
        while i < len(self.starts) and self.starts[i] < end:
            stolen += min(self.ends[i], end) - max(self.starts[i], start)
            i += 1
        return end - start - stolen

    def scale(self, start: float, end: float) -> float:
        """REF_LOOP_S over the mean loop time of the timings that ended
        during [start, end], the last before it and the first after it."""
        lo = max(bisect.bisect_left(self.ends, start) - 1, 0)
        hi = bisect.bisect_right(self.ends, end) + 1
        return REF_LOOP_S / statistics.fmean(self.loops[lo:hi])


def import_times(n: int) -> tuple[list[float], list[float]]:
    """Cold import times of vknot.cli in n fresh interpreters, each scaled
    by the calibrations timed just before and after it: (scaled, unscaled).

    The first import of a run writes bytecode, as installing a package does,
    so the imports after it read it whatever PYTHONDONTWRITEBYTECODE says.
    """
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    env["PYTHONPATH"] = str(SRC)
    times, calibrations = [], [calibrate()]
    for _ in range(n):
        proc = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE], env=env, cwd=ROOT, capture_output=True, text=True, timeout=60
        )
        if proc.returncode:
            raise SystemExit(f"perfbench: importing vknot.cli failed:\n{proc.stderr}")
        times.append(float(proc.stdout))
        calibrations.append(calibrate())
    scaled = [t * REF_LOOP_S * 2 / (calibrations[i] + calibrations[i + 1]) for i, t in enumerate(times)]
    return scaled, times


def run_op(cli, argv: list[str]) -> tuple[str, str]:
    """(outcome, stdout) of one CLI call; outcome is exit=<code> or raise=<type>."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            outcome = f"exit={cli.main(argv)}"
        except SystemExit as e:
            outcome = f"exit={e.code}"
        except Exception as e:  # the op failed; the run goes on and counts it
            outcome = f"raise={type(e).__name__}"
    return outcome, out.getvalue()


def digest(outcome: str, stdout: str) -> str:
    return f"{outcome} sha256={hashlib.sha256(stdout.encode()).hexdigest()}"


def op_key(argv: list[str]) -> str:
    return " ".join(argv)


def matches(expected: str, outcome: str, stdout: str) -> bool:
    """Whether an op's result equals its reference.

    An op that raised at the reference commit has no reference output; once
    fixed, it passes when it exits 0 and prints one JSON object.
    """
    if digest(outcome, stdout) == expected:
        return True
    if expected.startswith("raise=") and outcome == "exit=0":
        try:
            return isinstance(json.loads(stdout), dict)
        except ValueError:
            return False
    return False


def tail_percentile(n: int) -> int:
    """Highest whole percentile with at least TAIL_SAMPLES of n samples
    above it; 50 when there are too few samples for a tail."""
    return max(50, (100 * (n - TAIL_SAMPLES)) // n)


def tail(latencies: list[float]) -> float:
    pct = tail_percentile(len(latencies))
    if pct == 50:
        return statistics.median(latencies)
    return sorted(latencies)[-(-pct * len(latencies) // 100) - 1]


def environment() -> str:
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip()
    except OSError:
        sha = ""
    return (
        f"nproc={os.cpu_count()} python={platform.python_version()} "
        f"loadavg={os.getloadavg()[0]:.2f} sha={sha or 'unknown'}"
    )


class Run:
    """Executes blocks of ops, checks each result and keeps the timings."""

    def __init__(self, cli, workload: str, reference: dict[str, str]):
        self.cli = cli
        self.workload = workload
        self.reference = reference
        self.windows: list[tuple[float, float]] = []  # (start, end) of each plain op
        self.blocks: list[tuple[int, int]] = []  # (ops, states)
        self.attempted = 0
        self.failed = 0
        self.errors = 0
        self.mismatched: list[str] = []

    def timed_op(self, argv: list[str]) -> float:
        t0 = time.perf_counter()
        outcome, stdout = run_op(self.cli, argv)
        t1 = time.perf_counter()
        self.check(argv, outcome, stdout)
        self.windows.append((t0, t1))
        return t1 - t0

    def check(self, argv: list[str], outcome: str, stdout: str) -> None:
        self.attempted += 1
        key = op_key(argv)
        ok = matches(self.reference.get(key, "missing"), outcome, stdout)
        if not ok:
            self.failed += 1
            if key not in self.mismatched:
                self.mismatched.append(key)
        if outcome != "exit=0" or not ok:
            self.errors += 1


def measure(run: Run, seed: int, seconds: float, tracer=None, cal: Calibrator | None = None) -> float:
    """Run whole blocks until `seconds` have passed; returns the trace overhead in s.

    With a calibrator the seconds are those of plain op time at the
    reference speed, so a run does about the same number of blocks in a slow
    spell as in a fast one, and the benchmark's own work between ops (checks,
    collections, calibration) does not change how many; the wall time is
    capped at 1.5 times `seconds`.
    """

    def elapsed() -> float:
        wall = time.perf_counter() - t_start
        if cal is None:
            return wall
        op_time = sum(cal.busy(*window) for window in run.windows)
        return max(op_time * REF_LOOP_S / statistics.fmean(cal.loops), wall / 1.5)

    overhead = 0.0
    t_start = time.perf_counter()
    for block in workloads.blocks(run.workload, seed):
        for argv, _ in block:
            plain = run.timed_op(argv)
            # A CLI user's process ends after one op.  Ops leave reference
            # cycles behind; freeing them after every op, outside the timed
            # call, keeps one op's garbage from piling up into peak_rss_mb
            # and from slowing the collections of the ops after it.
            gc.collect()
            if tracer is not None:
                t0 = time.perf_counter()
                outcome, stdout = tracer.call(run.attempted, run_op, run.cli, argv)
                overhead += time.perf_counter() - t0 - plain
                gc.collect()
                run.check(argv, outcome, stdout)
        run.blocks.append((len(block), sum(states for _, states in block)))
        if elapsed() >= seconds:
            break
    return overhead


def end_to_end(run: Run, cal: Calibrator, setup_s: list[float], setup_unscaled: list[float]) -> tuple[dict, dict]:
    """(scaled, unscaled) end-to-end metrics of a plain run.

    An op's latency is its wall time less the calibration handler's, and
    its scaled latency multiplies that by Calibrator.scale.  Throughputs are
    those of the median block, in ops (or states) per second of op time:
    blocks hold the same mix of shapes, and the median is not moved by one
    slow block.
    """
    latencies = [cal.busy(*window) for window in run.windows]

    def metrics(latencies: list[float], setup: list[float]) -> dict:
        per_block, i = [], 0
        for ops, states in run.blocks:
            op_time = sum(latencies[i : i + ops])
            per_block.append((ops / op_time, states / op_time))
            i += ops
        return {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "op_p50_s": {"value": statistics.median(latencies), "unit": "s"},
            "op_tail_s": {"value": tail(latencies), "unit": "s"},
            "ops_per_s": {"value": statistics.median(b[0] for b in per_block), "unit": "1/s"},
            "states_per_s": {"value": statistics.median(b[1] for b in per_block), "unit": "1/s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MB"},
        }

    scaled = metrics([t * cal.scale(*w) for t, w in zip(latencies, run.windows)], setup_s)
    return scaled, metrics(latencies, setup_unscaled)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.POOLS))
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20, help="0 runs exactly one block")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    cli = load_cli()
    with REFERENCE.open() as f:
        reference = json.load(f)[args.workload]
    print(f"# perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print(f"# env {environment()}")
    if not args.trace:
        import_times(1)
        setup = import_times(SETUP_REPEATS // 2)
    for warm in (["genus", "--catalog", "trefoil"], ["certify", "--catalog", "kishino"]):
        run_op(cli, warm)
    # What is alive now (modules, the reference, the pools) outlives every op;
    # frozen, it is not scanned again by the collection after each op.
    gc.collect()
    gc.freeze()

    run = Run(cli, args.workload, reference)
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        overhead = measure(run, args.seed, args.seconds, tracer)
        blocks = len(run.blocks)
        metrics = tracer.metrics(per=blocks)
        metrics["trace.overhead_s"] = {"value": overhead / blocks, "unit": "s"}
        tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.tsv.gz")
        print(f"# per block, over {blocks} blocks of {run.blocks[0][0]} ops, each run plain and traced")
        for name in tracer.absent:
            print(f"# absent hook: {name}")
    else:
        with Calibrator() as cal:
            measure(run, args.seed, args.seconds, cal=cal)
        after = import_times(SETUP_REPEATS - SETUP_REPEATS // 2)
        metrics, unscaled = end_to_end(run, cal, setup[0] + after[0], setup[1] + after[1])
        print(
            f"# {len(run.windows)} ops in {len(run.blocks)} blocks; op_tail_s is p{tail_percentile(len(run.windows))};"
            f" calibration loop {1000 * statistics.median(cal.loops):.2f} ms median"
            f" over {len(cal.loops)} timings, {1000 * REF_LOOP_S:g} ms at the reference speed"
        )
        print("# unscaled " + " ".join(f"{k}={m['value']:.6g}" for k, m in unscaled.items()))
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}" + (" absent" if m.get("absent") else ""))
    print(
        f"error_rate {run.errors / run.attempted:.6g} ratio"
        f" ({run.errors} of {run.attempted} ops raised, exited non-zero or printed wrong output)"
    )
    for key in run.mismatched:
        print(f"# wrong result: {key}")
    print(
        json.dumps(
            {"correct": run.failed == 0, "attempted": run.attempted, "failed": run.failed, "metrics": metrics}
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
