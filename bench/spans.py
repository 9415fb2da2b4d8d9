"""Spans and counts around the calls into wfalab's modules, for traced runs.

Each wrapper replaces a name where its callers look it up: a method on its
class, or a module-level function in every wfalab module that holds it (so
`harness.run`, imported by name into harness, is wrapped there too).  Spans
are kept in memory as (name, start, end, parent) and written out when the
run ends.  A span's self time is its duration minus the time its child spans
cover.  Nothing here is installed in a timed run.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path

# (module, attribute, span name); "Class.method" attributes wrap the method.
SPANNED = [
    ("wfalab.harness", "run_experiment", "harness.run_experiment"),
    ("wfalab.harness", "generate", "harness.generate"),
    ("wfalab.algorithms", "run", "algorithms.run"),
    ("wfalab.algorithms", "wfa_minimizers", "algorithms.wfa_minimizers"),
    ("wfalab.offline", "brute_force_opt", "offline.brute_force_opt"),
    ("wfalab.offline", "dense_slack_max", "offline.dense_slack_max"),
    ("wfalab.problem", "grid_after", "problem.grid_after"),
    ("wfalab.workfn", "WorkFunction.update", "workfn.update"),
    ("wfalab.workfn", "WorkFunction.extended_cost", "workfn.extended_cost"),
    ("wfalab.workfn", "WorkFunction.slack", "workfn.slack"),
    ("wfalab.pl1d", "cone_envelope", "pl1d.cone_envelope"),
    ("wfalab.pl1d", "pointwise_min", "pl1d.pointwise_min"),
    ("wfalab.pl1d", "max_difference", "pl1d.max_difference"),
    ("wfalab.potential", "verify_step", "potential.verify_step"),
    ("wfalab.potential", "min_f", "potential.min_f"),
    ("wfalab.potential", "min_g", "potential.min_g"),
    ("wfalab.potential", "min_h", "potential.min_h"),
    ("wfalab.potential", "f_value", "potential.f_value"),
    ("wfalab.potential", "g_value", "potential.g_value"),
    ("wfalab.potential", "region_slack", "potential.region_slack"),
]

# Called too often to time without swamping the run: counted only.
COUNTED = [
    ("wfalab.workfn", "WorkFunction.evaluate", "workfn.evaluate"),
    ("wfalab.metric", "product_distance", "metric.product_distance"),
    ("wfalab.potential", "h_value", "potential.h_value"),
]

# The program's private producers of candidate and sample lists: each call
# adds the length of the list it returns to the named count.
SIZED = [
    ("wfalab.algorithms", "_argmin_candidates", "algorithms.candidates"),
    ("wfalab.potential", "_candidates", "potential.kernel_candidates"),
    ("wfalab.offline", "_axis_samples", "offline.dense_samples"),
]


def _update_sizes(counts, args, kwargs, result) -> None:
    wf_before = args[0]
    counts["workfn.grid_cells"] += len(result.grid.xs) * len(result.grid.ys)
    counts["workfn.anchors"] += len(wf_before.anchor_points)


def _breakpoints(counts, args, kwargs, result) -> None:
    counts["pl1d.breakpoints"] += len(args[0].breakpoints) + len(args[1].breakpoints)


def _checks(counts, args, kwargs, result) -> None:
    counts["potential.checks"] += len(result.checks)


AFTER = {
    "workfn.update": _update_sizes,
    "pl1d.max_difference": _breakpoints,
    "potential.verify_step": _checks,
}


class Tracer:
    """In-memory spans plus named counts."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.outer = array("b")
        self.start = array("d")
        self.end = array("d")
        self.counts = Counter()
        self._stack = []
        self._depth = Counter()
        self.on = True
        self.t0 = time.perf_counter()

    @contextmanager
    def paused(self):
        """Calls made inside run unrecorded (the benchmark's own checks)."""
        self.on = False
        try:
            yield
        finally:
            self.on = True

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def spanned(self, name: str, fn):
        nid = self._name_id(name)
        after = AFTER.get(name)
        calls = name + ".calls"
        counts, stack, depth, clock = self.counts, self._stack, self._depth, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            idx = len(self.start)
            self.name.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.outer.append(depth[nid] == 0)
            self.end.append(0.0)
            stack.append(idx)
            depth[nid] += 1
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                depth[nid] -= 1
                stack.pop()
            counts[calls] += 1
            if after is not None:
                after(counts, args, kwargs, result)
            return result

        return wrapper

    def counted(self, name: str, fn):
        counts, calls = self.counts, name + ".calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.on:
                counts[calls] += 1
            return fn(*args, **kwargs)

        return wrapper

    def sized(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            if self.on:
                counts[name] += len(result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every SPANNED, COUNTED and SIZED name wherever wfalab holds
        it."""
        modules = [m for name, m in sys.modules.items()
                   if name == "wfalab" or name.startswith("wfalab.")]
        for table, make in ((SPANNED, self.spanned), (COUNTED, self.counted),
                            (SIZED, self.sized)):
            for mod_name, attr, name in table:
                owner = sys.modules[mod_name]
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(owner, cls_name)
                    setattr(cls, meth, make(name, getattr(cls, meth)))
                    continue
                original = getattr(owner, attr)
                wrapped = make(name, original)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapped)

    def totals(self) -> tuple:
        """(inclusive seconds, self seconds) per span name.  A span nested in
        a span of the same name counts in the self seconds only."""
        child = [0.0] * len(self.start)
        for i in range(len(self.start)):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        incl, own = defaultdict(float), defaultdict(float)
        for i in range(len(self.start)):
            name = self.names[self.name[i]]
            d = self.end[i] - self.start[i]
            if self.outer[i]:
                incl[name] += d
            own[name] += d - child[i]
        return incl, own

    def write(self, path: Path) -> None:
        with path.open("w") as fh:
            fh.write("span,name,start_s,end_s,parent\n")
            for i in range(len(self.start)):
                fh.write(f"{i},{self.names[self.name[i]]},"
                         f"{self.start[i] - self.t0:.9f},"
                         f"{self.end[i] - self.t0:.9f},{self.parent[i]}\n")


def layer_metrics(tracer: Tracer, output_bytes: int) -> dict:
    """Every per-layer metric of the benchmark, from one traced run."""
    incl, own = tracer.totals()
    c = tracer.counts
    secs = {
        "workfn.update.s": incl["workfn.update"],
        "problem.grid_after.s": incl["problem.grid_after"],
        "workfn.extended_cost.self_s": own["workfn.extended_cost"],
        "pl1d.cone_envelope.self_s": own["pl1d.cone_envelope"],
        "pl1d.pointwise_min.s": incl["pl1d.pointwise_min"],
        "pl1d.max_difference.s": incl["pl1d.max_difference"],
        "algorithms.wfa_minimizers.s": incl["algorithms.wfa_minimizers"],
        "potential.verify_step.self_s": own["potential.verify_step"],
        "potential.min_f.s": incl["potential.min_f"],
        "potential.min_g.s": incl["potential.min_g"],
        "potential.min_h.s": incl["potential.min_h"],
        "potential.f_value.s": incl["potential.f_value"],
        "potential.g_value.s": incl["potential.g_value"],
        "potential.region_slack.s": incl["potential.region_slack"],
        "workfn.slack.s": incl["workfn.slack"],
        "offline.dense_slack_max.s": incl["offline.dense_slack_max"],
        "offline.brute_force_opt.s": incl["offline.brute_force_opt"],
        "harness.run_experiment.s": incl["harness.run_experiment"],
        "harness.generate.s": incl["harness.generate"],
        # run_experiment's own time: its children are generate, run and
        # brute_force_opt, so what is left is config handling and writing.
        "harness.write.self_s": own["harness.run_experiment"],
        "algorithms.run.self_s": own["algorithms.run"],
    }
    counts = {
        "workfn.update.calls": c["workfn.update.calls"],
        "workfn.grid_cells": c["workfn.grid_cells"],
        "workfn.anchors": c["workfn.anchors"],
        "pl1d.pointwise_min.calls": c["pl1d.pointwise_min.calls"],
        "pl1d.breakpoints": c["pl1d.breakpoints"],
        "algorithms.wfa_minimizers.calls": c["algorithms.wfa_minimizers.calls"],
        "algorithms.candidates": c["algorithms.candidates"],
        "workfn.evaluate.calls": c["workfn.evaluate.calls"],
        "metric.product_distance.calls": c["metric.product_distance.calls"],
        "potential.kernel_candidates": c["potential.kernel_candidates"],
        "potential.f_value.calls": c["potential.f_value.calls"],
        "potential.g_value.calls": c["potential.g_value.calls"],
        "potential.h_value.calls": c["potential.h_value.calls"],
        "potential.checks": c["potential.checks"],
        "offline.dense_samples": c["offline.dense_samples"],
        "harness.output_bytes": output_bytes,
    }
    out = {k: {"value": v, "unit": "s"} for k, v in secs.items()}
    out.update({k: {"value": v, "unit": "bytes" if k.endswith("bytes") else "count"}
                for k, v in counts.items()})
    return out
