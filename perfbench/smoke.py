"""Smoke tests of the benchmark itself; they take about a minute.

    python3 perfbench/smoke.py

Each workload runs one block (--seconds 0) plain and traced.  The checks:
every metric in BENCHMARK.json is printed by name with its unit, the
generator and the block schedule are deterministic for a seed, a wrong
reference output counts as a failed op, a missing hook target is reported
absent, and without vknot sources the benchmark fails before any result.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys

import run
import tracing
import workloads

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def bench(*args: str, cwd=run.ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=300
    )


def result(proc: subprocess.CompletedProcess) -> tuple[dict, list[str]]:
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    out = json.loads(lines[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}, out
    return out, lines[:-1]


def check_metrics_printed() -> None:
    for trace, section in (("0", "end_to_end"), ("1", "per_layer")):
        for w in BENCHMARK["workloads"]:
            out, lines = result(bench("--workload", w["name"], "--seed", "1", "--seconds", "0", "--trace", trace))
            assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1, out
            for m in BENCHMARK[section]:
                got = out["metrics"][m["name"]]
                assert got["unit"] == m["unit"] and not got.get("absent"), (w["name"], m["name"], got)
                assert any(line.startswith(f"{m['name']} ") and line.endswith(f" {m['unit']}") for line in lines), m
            if trace == "0":
                assert all(out["metrics"][m["name"]]["value"] > 0 for m in BENCHMARK[section]), out
            assert any(line.startswith("error_rate ") for line in lines)


def check_deterministic() -> None:
    for n, k in ((9, 1), (11, 2), (16, 2)):
        a = workloads.gauss_code(random.Random(7), n, k)
        assert a == workloads.gauss_code(random.Random(7), n, k)
        assert a != workloads.gauss_code(random.Random(8), n, k)
    run.load_cli()
    from vknot.diagram import parse_gauss_code

    for w in BENCHMARK["workloads"]:
        first = [next(workloads.blocks(w["name"], 5)) for _ in range(2)]
        assert first == [next(workloads.blocks(w["name"], 5)) for _ in range(2)]
        for argv, states in workloads.all_ops(w["name"]):
            if argv[0] in ("certify", "jones") and "--catalog" not in argv:
                d = parse_gauss_code(argv[1])
                assert 1 << d.n_crossings == states and d.n_components == argv[1].count(";") + 1
    assert next(workloads.blocks("random_certify", 1)) != next(workloads.blocks("random_certify", 2))


def check_wrong_reference_fails() -> None:
    cli = run.load_cli()
    bad = json.loads(run.REFERENCE.read_text())["catalog_reports"]
    bad["genus --catalog trefoil"] = "exit=0 sha256=0"
    r = run.Run(cli, "catalog_reports", bad)
    run.measure(r, 1, 0)
    assert r.attempted == len(bad) and r.failed == 1, (r.attempted, r.failed)
    assert r.mismatched == ["genus --catalog trefoil"], r.mismatched


def check_missing_hook_absent() -> None:
    cli = run.load_cli()
    hooks = [h for h in tracing.HOOKS if h[0] != "surface.disk_test"]
    hooks.append(("surface.disk_test", "vknot.surface", "no_longer_here"))
    tracer = tracing.Tracer(hooks)
    outcome, _ = tracer.call(0, run.run_op, cli, ["certify", "--catalog", "kishino"])
    assert outcome == "exit=0"
    metrics = tracer.metrics(per=1)
    assert tracer.absent == ["vknot.surface.no_longer_here"]
    for name in ("surface.disk_test_calls", "surface.disk_test_s", "surface.distinct_loops", "surface.distinct_ratio"):
        assert metrics[name].get("absent"), name
    assert metrics["surface.loop_homology_calls"]["value"] > 0


def check_fails_without_sources() -> None:
    bare = run.OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    proc = bench("--workload", "catalog_reports", "--seconds", "1", cwd=bare)
    shutil.rmtree(bare)
    assert proc.returncode != 0 and "correct" not in proc.stdout, proc.stdout


def main() -> int:
    for check in (
        check_deterministic,
        check_missing_hook_absent,
        check_wrong_reference_fails,
        check_fails_without_sources,
        check_metrics_printed,
    ):
        check()
        print(f"ok {check.__name__}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
