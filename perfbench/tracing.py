"""Spans around gaussflow's public functions, installed from outside.

`Tracer.install()` replaces every binding of each traced function in the
loaded gaussflow modules (including names copied by `from .body import
...`) with a wrapper that records a span, and wraps
`SupportFunction.__post_init__` for body construction. `restore()` puts
the originals back. Spans stay in memory: (name, start, end, parent
index, job id). Values the layers return (Newton iterations, flow step
sizes, checks produced, bytes written) are recorded at the same
boundaries.
"""

from __future__ import annotations

import functools
import json
import os
import statistics
import sys
import time
from collections import defaultdict

# module -> traced public functions. `errors` does no work.
TRACED = {
    "sphere_grid": ("build_grid", "frame_hessian", "project", "evaluate_at"),
    "body": ("curvature_data", "width_radii", "dual_volume", "boundary_points"),
    "entropy": ("entropy_point",),
    "flow": ("run", "step", "rhs", "diagnostics"),
    "inequalities": ("fuzz_suite", "check_width_bounds", "curvature_image"),
    "fileio": ("read_body", "write_body", "write_trajectory", "write_checks_csv",
               "write_checks_json", "write_obj"),
    "cli": ("main",),
}
WRITERS = tuple(f for f in TRACED["fileio"] if f.startswith("write_"))
# Counts that must repeat exactly for the same jobs.
EXACT_COUNTS = ("flow.step.calls", "body.SupportFunction.calls",
                "entropy.newton_iterations", "inequalities.checks")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.events: list[tuple] = []  # (span index, kind, value)
        self.job = None
        self._stack: list[int] = []
        self._patched: list[tuple] = []  # (owner, attribute, original)

    def _wrap(self, name, fn, observe=None):
        spans, events, stack = self.spans, self.events, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1, self.job])
            stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx][1] = start
                spans[idx][2] = end
            if observe is not None:
                for kind, value in observe(args, result):
                    events.append((idx, kind, value))
            return result

        return traced

    def install(self, package) -> None:
        """Wrap the traced functions of the imported `package` (gaussflow)."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == package.__name__
                                         or n.startswith(package.__name__ + "."))]
        for mod_name, funcs in TRACED.items():
            module = sys.modules[f"{package.__name__}.{mod_name}"]
            for func in funcs:
                original = getattr(module, func)
                wrapper = self._wrap(f"{mod_name}.{func}", original,
                                     _OBSERVERS.get(f"{mod_name}.{func}"))
                for m in modules:  # every binding, also copies in other modules
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            self._patched.append((m, attr, original))
                            setattr(m, attr, wrapper)
        cls = sys.modules[f"{package.__name__}.body"].SupportFunction
        original = cls.__dict__["__post_init__"]
        self._patched.append((cls, "__post_init__", original))
        cls.__post_init__ = self._wrap("body.SupportFunction", original)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        leftover = [(o, a) for o, a, orig in self._patched
                    if (o.__dict__[a] if isinstance(o, type) else getattr(o, a)) is not orig]
        self._patched.clear()
        if leftover:
            raise RuntimeError(f"tracing wrappers left in place: {leftover}")

    def write(self, path) -> None:
        """Write every span as one JSON line: name, start, end, parent, job."""
        with open(path, "w", encoding="utf-8") as f:
            for span in self.spans:
                f.write(json.dumps(span) + "\n")


def _step_observer(args, result):
    before = args[0]
    yield "dt", result.dt_last
    yield "rejected", result.rejected_steps - before.rejected_steps


def _writer_observer(args, result):
    yield "bytes", os.path.getsize(args[0])


_OBSERVERS = {
    "entropy.entropy_point": lambda args, result: [("newton", result.iterations)],
    "flow.step": _step_observer,
    "inequalities.fuzz_suite": lambda args, result: [("checks", len(result))],
    **{f"fileio.{w}": _writer_observer for w in WRITERS},
}


def _quantile(values, q):
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def layer_metrics(spans, events, lo: int, hi: int) -> dict[str, float]:
    """Per-layer figures over spans[lo:hi] (spans of whole jobs). Self time
    is a span's duration minus the durations of its child spans."""
    selected = range(lo, hi)
    child_time = defaultdict(float)
    for i in selected:
        parent = spans[i][3]
        if parent >= 0:
            child_time[parent] += spans[i][2] - spans[i][1]
    calls = defaultdict(int)
    self_s = defaultdict(float)
    durations = defaultdict(list)
    for i in selected:
        name, start, end = spans[i][:3]
        calls[name] += 1
        self_s[name] += end - start - child_time[i]
        durations[name].append(end - start)

    def inside_step(i):
        while i >= 0:
            if spans[i][0] == "flow.step":
                return True
            i = spans[i][3]
        return False

    builds_in_steps = sum(1 for i in selected
                          if spans[i][0] == "body.SupportFunction" and inside_step(i))
    values = defaultdict(list)
    for idx, kind, value in events:
        if lo <= idx < hi:
            values[kind].append(value)

    steps = calls["flow.step"]
    rejected = sum(values["rejected"])
    dts = sorted(values["dt"])
    fh = sorted(durations["sphere_grid.frame_hessian"])
    out = {
        "sphere_grid.frame_hessian.calls": calls["sphere_grid.frame_hessian"],
        "sphere_grid.frame_hessian.self_s": self_s["sphere_grid.frame_hessian"],
        "sphere_grid.frame_hessian.p50_s": _quantile(fh, 0.5),
        "sphere_grid.frame_hessian.p90_s": _quantile(fh, 0.9),
        "sphere_grid.project.calls": calls["sphere_grid.project"],
        "sphere_grid.project.self_s": self_s["sphere_grid.project"],
        "sphere_grid.evaluate_at.calls": calls["sphere_grid.evaluate_at"],
        "sphere_grid.evaluate_at.self_s": self_s["sphere_grid.evaluate_at"],
        "body.SupportFunction.calls": calls["body.SupportFunction"],
        "body.SupportFunction.self_s": self_s["body.SupportFunction"],
        "body.SupportFunction.per_step": builds_in_steps / steps if steps else 0.0,
        "body.width_radii.calls": calls["body.width_radii"],
        "body.width_radii.self_s": self_s["body.width_radii"],
        "entropy.entropy_point.calls": calls["entropy.entropy_point"],
        "entropy.entropy_point.self_s": self_s["entropy.entropy_point"],
        "entropy.newton_iterations": sum(values["newton"]),
        "flow.step.calls": steps,
        "flow.step.self_s": self_s["flow.step"],
        "flow.rejected_steps": rejected,
        "flow.accept_ratio": steps / (steps + rejected) if steps else 0.0,
        "flow.rhs.calls": calls["flow.rhs"],
        "flow.dt_min": dts[0] if dts else 0.0,
        "flow.dt_p50": statistics.median(dts) if dts else 0.0,
        "flow.dt_max": dts[-1] if dts else 0.0,
        "flow.diagnostics.calls": calls["flow.diagnostics"],
        "flow.diagnostics.self_s": self_s["flow.diagnostics"],
        "inequalities.checks": sum(values["checks"]),
        "inequalities.fuzz_suite.self_s": self_s["inequalities.fuzz_suite"],
        "inequalities.check_width_bounds.self_s": self_s["inequalities.check_width_bounds"],
        "inequalities.curvature_image.calls": calls["inequalities.curvature_image"],
        "inequalities.curvature_image.self_s": self_s["inequalities.curvature_image"],
        "fileio.bytes_written": sum(values["bytes"]),
        "cli.main.self_s": self_s["cli.main"],
    }
    for w in WRITERS:
        out[f"fileio.{w}.calls"] = calls[f"fileio.{w}"]
        out[f"fileio.{w}.self_s"] = self_s[f"fileio.{w}"]
    return out
