"""Traced runs: spans around vknot's public functions, installed from outside.

Each hook names a function or method by module and attribute path.  Installing
a hook replaces the target in its module or class and in every loaded vknot
module that imported it by name (for example `vknot.analysis.is_disk_bounding`),
so a call through either path is recorded.  A hook whose target no longer
exists is reported absent instead of failing the run, because later changes to
vknot may delete or rename what it wraps.

A span is (op id, parent span, name, start, end), kept in flat arrays while the
run lasts and written out at the end.  Self time is a span's duration minus the
durations of its child spans; calls are synchronous, so children never overlap.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import sys
from array import array
from time import perf_counter

# (span name, module, attribute path); several targets may share a span name.
HOOKS = [
    ("diagram.parse", "vknot.diagram", "parse_gauss_code"),
    ("diagram.move", "vknot.diagram", "smooth_crossing"),
    ("diagram.move", "vknot.diagram", "switch_crossing"),
    ("diagram.move", "vknot.diagram", "virtualize_crossing"),
    ("diagram.move", "vknot.diagram", "mirror"),
    ("surface.build", "vknot.surface", "build_carter_surface"),
    ("surface.homology_build", "vknot.surface", "MapHomology.__init__"),
    ("surface.disk_test", "vknot.surface", "is_disk_bounding"),
    ("surface.loop_homology", "vknot.surface", "loop_homology"),
    ("symplectic.reduce", "vknot.symplectic", "symplectic_reduce"),
    ("symplectic.to_symplectic", "vknot.symplectic", "SymplecticBasis.to_symplectic"),
    ("bracket.tables_build", "vknot.bracket", "StateTables.__init__"),
    ("bracket.trace", "vknot.bracket", "StateTables.trace"),
    ("bracket.loop_count", "vknot.bracket", "StateTables.loop_count"),
    ("bracket.state_sum", "vknot.bracket", "bracket_partial"),
    ("laurent.mul", "vknot.laurent", "LaurentPoly.__mul__"),
    ("laurent.pow", "vknot.laurent", "LaurentPoly.__pow__"),
    ("laurent.add", "vknot.laurent", "LaurentPoly.__add__"),
    ("laurent.solve", "vknot.laurent", "solve_2x2_laurent"),
    ("analysis.surface_bracket", "vknot.analysis", "surface_bracket"),
    ("analysis.per_torus", "vknot.analysis", "per_torus_criterion"),
    ("analysis.mod2", "vknot.analysis", "mod2_span_criterion"),
    ("tangle.expand", "vknot.tangle", "expand_tangle"),
    ("tangle.alpha_beta", "vknot.tangle", "alpha_beta_at_crossing"),
    ("tangle.closure_check", "vknot.tangle", "closure_consistency"),
    ("tangle.report", "vknot.tangle", "virtualization_report"),
    ("tangle.report", "vknot.tangle", "double_virtualization_report"),
]

#: The span the harness opens around each `vknot.cli.main` call.
ROOT_SPAN = "cli.main"


def _count_loops(tracer, args, result):
    tracer.counters["surface.loops"] += len(result)


def _key_loop(tracer, args, result):
    # the same edge-set key `is_disk_bounding` caches on, per surface
    rep, loop = args[0], args[1]
    edge_of = rep.refined.map.edge_of
    tracer.op_loops.add((id(rep), frozenset(edge_of[d] for d in loop)))


def _count_states(tracer, args, result):
    _, start, stop = args[:3]
    tracer.counters["bracket.states"] += stop - start


def _count_keys(tracer, args, result):
    tracer.counters["analysis.keys"] += len(result.entries)
    tracer.counters["analysis.classes"] += len(result.nonzero_classes())


# span name -> (counter names, recorder called with the call's args and result)
COUNTERS = {
    "bracket.trace": (("surface.loops",), _count_loops),
    "surface.disk_test": (("surface.distinct_loops",), _key_loop),
    "bracket.state_sum": (("bracket.states",), _count_states),
    "analysis.surface_bracket": (("analysis.keys", "analysis.classes"), _count_keys),
}

# (metric, unit, span name, field): field is calls, total or self of the
# span, or the name of a counter recorded at that span.
METRICS = [
    ("surface.disk_test_calls", "count", "surface.disk_test", "calls"),
    ("surface.disk_test_s", "s", "surface.disk_test", "total"),
    ("surface.loops", "count", "bracket.trace", "surface.loops"),
    ("surface.distinct_loops", "count", "surface.disk_test", "surface.distinct_loops"),
    ("surface.loop_homology_calls", "count", "surface.loop_homology", "calls"),
    ("surface.loop_homology_s", "s", "surface.loop_homology", "total"),
    ("symplectic.to_symplectic_calls", "count", "symplectic.to_symplectic", "calls"),
    ("symplectic.to_symplectic_s", "s", "symplectic.to_symplectic", "total"),
    ("bracket.trace_calls", "count", "bracket.trace", "calls"),
    ("bracket.trace_s", "s", "bracket.trace", "total"),
    ("analysis.surface_bracket_s", "s", "analysis.surface_bracket", "total"),
    ("analysis.surface_bracket_self_s", "s", "analysis.surface_bracket", "self"),
    ("laurent.mul_calls", "count", "laurent.mul", "calls"),
    ("laurent.mul_s", "s", "laurent.mul", "total"),
    ("laurent.pow_calls", "count", "laurent.pow", "calls"),
    ("laurent.pow_s", "s", "laurent.pow", "total"),
    ("laurent.add_calls", "count", "laurent.add", "calls"),
    ("laurent.add_s", "s", "laurent.add", "total"),
    ("bracket.states", "count", "bracket.state_sum", "bracket.states"),
    ("bracket.loop_count_calls", "count", "bracket.loop_count", "calls"),
    ("bracket.loop_count_s", "s", "bracket.loop_count", "total"),
    ("bracket.state_sum_self_s", "s", "bracket.state_sum", "self"),
    ("analysis.per_torus_s", "s", "analysis.per_torus", "total"),
    ("analysis.mod2_s", "s", "analysis.mod2", "total"),
    ("analysis.keys", "count", "analysis.surface_bracket", "analysis.keys"),
    ("analysis.classes", "count", "analysis.surface_bracket", "analysis.classes"),
    ("surface.build_calls", "count", "surface.build", "calls"),
    ("surface.build_s", "s", "surface.build", "total"),
    ("surface.homology_build_s", "s", "surface.homology_build", "total"),
    ("symplectic.reduce_s", "s", "symplectic.reduce", "total"),
    ("bracket.tables_build_s", "s", "bracket.tables_build", "total"),
    ("diagram.parse_calls", "count", "diagram.parse", "calls"),
    ("diagram.parse_s", "s", "diagram.parse", "total"),
    ("cli.self_s", "s", ROOT_SPAN, "self"),
    ("diagram.move_calls", "count", "diagram.move", "calls"),
    ("diagram.move_s", "s", "diagram.move", "total"),
    ("tangle.expand_s", "s", "tangle.expand", "total"),
    ("tangle.alpha_beta_s", "s", "tangle.alpha_beta", "total"),
    ("tangle.closure_check_s", "s", "tangle.closure_check", "total"),
    ("tangle.report_self_s", "s", "tangle.report", "self"),
    ("laurent.solve_s", "s", "laurent.solve", "total"),
]


def _resolve(module: str, path: str):
    """(owner, attribute, original) of a hook target, or None when it is gone."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    original = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
    if not callable(original):
        return None
    return owner, attr, original


class Tracer:
    """Records spans and counters while installed; restores vknot on uninstall."""

    def __init__(self, hooks=HOOKS):
        self.names: list[str] = [ROOT_SPAN]
        self.name_id = {ROOT_SPAN: 0}
        self.span_name = array("i")
        self.span_op = array("i")
        self.span_parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.op = -1
        self.op_loops: set = set()
        self.counters = {name: 0 for names, _ in COUNTERS.values() for name in names}
        self.counter_errors: set[str] = set()
        self.present: set[str] = {ROOT_SPAN}
        self.absent: list[str] = []
        self._patches: list[tuple[object, str, object, object]] = []
        for span, module, path in hooks:
            target = _resolve(module, path)
            if target is None:
                self.absent.append(f"{module}.{path}")
                continue
            self.present.add(span)
            owner, attr, original = target
            wrapper = self._wrap(span, original)
            self._patches.append((owner, attr, original, wrapper))
            if not isinstance(owner, type):
                # import sites: vknot modules holding the same function by name
                for mod_name, mod in list(sys.modules.items()):
                    if mod_name.split(".")[0] != "vknot" or mod is owner:
                        continue
                    for site_attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patches.append((mod, site_attr, original, wrapper))

    def _wrap(self, span: str, fn):
        nid = self.name_id.setdefault(span, len(self.names))
        if nid == len(self.names):
            self.names.append(span)
        counted = COUNTERS.get(span)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open_span(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = perf_counter()
                self.stack.pop()
            if counted is not None and counted[0][0] not in self.counter_errors:
                try:
                    counted[1](self, args, result)
                except Exception:  # the program changed shape; report, do not crash
                    self.counter_errors.update(counted[0])
            return result

        return traced

    def open_span(self, nid: int) -> int:
        idx = len(self.start)
        self.span_name.append(nid)
        self.span_op.append(self.op)
        self.span_parent.append(self.stack[-1])
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def install(self) -> None:
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in reversed(self._patches):
            setattr(owner, attr, original)

    def call(self, op: int, fn, *args):
        """Run fn(*args) as op `op` under the root span, hooks installed."""
        self.op = op
        self.install()
        idx = self.open_span(0)
        try:
            return fn(*args)
        finally:
            self.end[idx] = perf_counter()
            self.stack.pop()
            self.uninstall()
            self.counters["surface.distinct_loops"] += len(self.op_loops)
            self.op_loops.clear()

    def totals(self) -> dict[str, tuple[int, float, float]]:
        """span name -> (calls, total seconds, self seconds)."""
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.span_parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out = {name: [0, 0.0, 0.0] for name in self.names}
        for i in range(n):
            dur = self.end[i] - self.start[i]
            agg = out[self.names[self.span_name[i]]]
            agg[0] += 1
            agg[1] += dur
            agg[2] += dur - child[i]
        return {name: tuple(v) for name, v in out.items()}

    def metrics(self, per: int) -> dict[str, dict]:
        """Every per-layer metric, divided by `per` (the number of blocks run)."""
        totals = self.totals()
        field_index = {"calls": 0, "total": 1, "self": 2}
        out = {}
        for metric, unit, span, field in METRICS:
            if span not in self.present or field in self.counter_errors:
                out[metric] = {"value": 0, "unit": unit, "absent": True}
                continue
            if field in field_index:
                raw = totals.get(span, (0, 0.0, 0.0))[field_index[field]]
            else:
                raw = self.counters[field]
            out[metric] = {"value": raw / per, "unit": unit}
        loops, distinct = out["surface.loops"], out["surface.distinct_loops"]
        ratio = {"value": distinct["value"] / loops["value"] if loops["value"] else 0.0, "unit": "ratio"}
        if loops.get("absent") or distinct.get("absent"):
            ratio = {"value": 0, "unit": "ratio", "absent": True}
        out["surface.distinct_ratio"] = ratio
        return out

    def write(self, path) -> None:
        """All spans as gzip'd TSV; a span's id is its row number."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as f:
            f.write("op\tparent\tname\tstart_s\tend_s\n")
            names = self.names
            for i in range(len(self.start)):
                f.write(
                    f"{self.span_op[i]}\t{self.span_parent[i]}\t{names[self.span_name[i]]}"
                    f"\t{self.start[i]:.7f}\t{self.end[i]:.7f}\n"
                )
