"""Run every workload on several seeds and report each end-to-end metric's
median, quartiles and spread, the spread being (q3 - q1) / median.

    python3 perfbench/repeat.py [--runs 10] [--first-seed 1] [--workload NAME ...] [--out FILE]

Runs are interleaved across workloads (seed 1 of each, then seed 2, ...) so
that slow drift of the machine spreads over all of them; each run's line
gives its wall time, set-up included.  A metric is
marked "steady" when its spread is below a third of its bound in
BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time

import run

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workload", action="append", help="default: every workload")
    ap.add_argument("--out", help="also write the summary here as JSON")
    args = ap.parse_args()
    names = args.workload or [w["name"] for w in BENCHMARK["workloads"]]
    values = {w: {m["name"]: [] for m in BENCHMARK["end_to_end"]} for w in names}
    env = None
    for seed in range(args.first_seed, args.first_seed + args.runs):
        for w in names:
            cmd = [sys.executable, "perfbench/run.py", "--workload", w, "--seed", str(seed)]
            cmd += ["--seconds", str(BENCHMARK["run_seconds"]), "--trace", "0"]
            t0 = time.perf_counter()
            proc = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True, timeout=600, check=True)
            wall = time.perf_counter() - t0
            lines = proc.stdout.splitlines()
            env = env or next(line[len("# env ") :] for line in lines if line.startswith("# env "))
            result = json.loads(lines[-1])
            if not result["correct"]:
                raise SystemExit(f"{w} seed {seed}: wrong outputs\n{proc.stdout}")
            for name, m in result["metrics"].items():
                values[w][name].append(m["value"])
            print(
                f"{w} seed={seed} wall={wall:.1f}s " + " ".join(f"{k}={v[-1]:.5g}" for k, v in values[w].items()),
                flush=True,
            )

    summary = {"env": env, "runs": args.runs, "first_seed": args.first_seed, "workloads": {}}
    for w in names:
        rows = summary["workloads"][w] = {}
        for m in BENCHMARK["end_to_end"]:
            vals = values[w][m["name"]]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            rows[m["name"]] = {"median": med, "q1": q1, "q3": q3, "spread": spread, "bound": m["bound"]}
            verdict = "steady" if spread < m["bound"] / 3 else "UNSTEADY"
            print(f"{w:16} {m['name']:13} median={med:<10.5g} q1={q1:<10.5g} q3={q3:<10.5g} spread={spread:.3f} {verdict}")
    if args.out:
        with open(args.out, "w") as f:
            json.dump(summary, f, indent=1)
            f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
