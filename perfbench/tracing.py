"""Per-layer tracing from the benchmark's side of each module boundary.

`install` wraps public functions of the package's modules; only the traced
run calls it and `uninstall` puts the originals back.  Spans (name, start,
end, parent) are kept in memory and written when the run ends; counts are
taken at the same boundaries.  Scaled-pair arithmetic is counted, never
timed: a sub-microsecond function would only time the wrapper.
"""

import functools
import json
import os
import time

from nanoshell import cli, materials, model, scaledmath, specfun, spectro, sweep, transfer

# (metric, unit, better, the end-to-end metric it should move and where)
PER_LAYER = (
    ("specfun.riccati_calls", "count", "lower",
     "points_per_s, query_ms_*; most on radial-metal and spectrum (quadrature nodes)"),
    ("specfun.riccati_s", "s", "lower",
     "points_per_s, query_ms_*; most on radial-metal and spectrum"),
    ("specfun.orders", "count", "lower",
     "points_per_s, query_ms_*; most on radial-metal and spectrum"),
    ("scaledmath.ops", "count", "lower", "points_per_s on radial-lossless"),
    ("transfer.layer_context_calls", "count", "lower",
     "points_per_s on radial-lossless and radial-metal (cross-row sharing)"),
    ("transfer.solve_calls", "count", "lower", "points_per_s, query_ms_* on radial-lossless"),
    ("transfer.channels", "count", "lower", "points_per_s, query_ms_* on radial-lossless"),
    ("transfer.solve_s", "s", "lower", "points_per_s, query_ms_* on radial-lossless"),
    ("transfer.solve_self_s", "s", "lower", "points_per_s, query_ms_* on radial-lossless"),
    ("spectro.evaluate_calls", "count", "lower", "points_per_s"),
    ("spectro.ohmic_calls", "count", "lower",
     "points_per_s, query_ms_* on radial-metal and spectrum; zero on radial-lossless"),
    ("spectro.ohmic_riccati_calls", "count", "lower",
     "points_per_s, query_ms_* on radial-metal and spectrum; zero on radial-lossless"),
    ("spectro.observables_s", "s", "lower",
     "points_per_s, query_ms_*; most on radial-metal and spectrum (Ohmic quadrature)"),
    ("spectro.observables_self_s", "s", "lower",
     "points_per_s, query_ms_* on radial-metal and spectrum"),
    ("spectro.post_s", "s", "lower", "points_per_s, query_ms_*"),
    ("materials.calls", "count", "lower", "points_per_s on spectrum"),
    ("materials.s", "s", "lower", "points_per_s on spectrum"),
    ("model.sphere_builds", "count", "lower", "points_per_s on radial-lossless"),
    ("sweep.tasks", "count", "lower", "points_per_s"),
    ("sweep.overhead_s", "s", "lower", "points_per_s; per-task share on radial-lossless"),
    ("sweep.csv_s", "s", "lower", "points_per_s"),
    ("sweep.csv_bytes", "B", "lower", "points_per_s"),
    ("sweep.pool_speedup", "ratio", "higher", "points_per_s on radial-lossless"),
    ("cli.self_s", "s", "lower", "setup_s, points_per_s"),
    ("trace.overhead_s", "s", "lower", "none: cost of the wrappers themselves"),
)

# scaled-pair operations; `canonical` is their shared helper, not an operation
_SCALED_OPS = ("mul", "div", "add", "sub", "scale", "from_complex", "collapse", "log_abs")


class Tracer:
    """Spans as [name, start, end, parent index] and named counters."""

    def __init__(self):
        self.spans = []
        self.counts = {"scaledmath.ops": 0, "specfun.orders": 0, "transfer.channels": 0,
                       "model.sphere_builds": 0, "sweep.csv_bytes": 0}
        self._stack = []
        self._undo = []

    def _spanned(self, name, fn, after=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                spans[idx][1], spans[idx][2] = t0, t1
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _counted(self, key, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _patch(self, modules, attr, wrapper):
        for mod in modules:
            self._undo.append((mod, attr, getattr(mod, attr)))
            setattr(mod, attr, wrapper)

    def install(self):
        counts = self.counts

        def orders(args, result):
            counts["specfun.orders"] += result.order_max + 1

        def channels(args, result):
            counts["transfer.channels"] += len(result.channels)

        def csv_bytes(args, result):
            out = args[1].out
            if out:
                counts["sweep.csv_bytes"] += os.path.getsize(out)

        # riccati_scaled is imported by name into transfer and spectro
        self._patch((specfun, transfer, spectro), "riccati_scaled",
                    self._spanned("specfun.riccati", specfun.riccati_scaled, orders))
        for op in _SCALED_OPS:
            counted = self._counted("scaledmath.ops", getattr(scaledmath, op))
            self._patch((scaledmath,), op, counted)
        for fn in ("refractive_index", "permittivity"):
            self._patch((materials,), fn, self._spanned("materials", getattr(materials, fn)))
        self._patch((model,), "build_sphere",
                    self._counted("model.sphere_builds", model.build_sphere))
        self._patch((transfer,), "layer_context",
                    self._spanned("transfer.layer_context", transfer.layer_context))
        self._patch((transfer,), "solve_dipole_fields",
                    self._spanned("transfer.solve", transfer.solve_dipole_fields, channels))
        self._patch((spectro,), "evaluate_from_coefficients",
                    self._spanned("spectro.observables", spectro.evaluate_from_coefficients))
        self._patch((spectro,), "ohmic_rate_per_l",
                    self._spanned("spectro.ohmic", spectro.ohmic_rate_per_l))
        self._patch((spectro,), "evaluate", self._spanned("spectro.evaluate", spectro.evaluate))
        self._patch((spectro,), "evaluate_orientations",
                    self._spanned("sweep.task", spectro.evaluate_orientations))
        self._patch((sweep,), "run_sweep", self._spanned("sweep.run", sweep.run_sweep))
        self._patch((sweep,), "write_outputs",
                    self._spanned("sweep.csv", sweep.write_outputs, csv_bytes))
        self._patch((cli,), "main", self._spanned("cli.main", cli.main))

    def uninstall(self):
        while self._undo:
            mod, attr, original = self._undo.pop()
            setattr(mod, attr, original)

    def write(self, path, header):
        """Spans as [name, start, end, parent] relative to the first start."""
        t0 = self.spans[0][1] if self.spans else 0.0
        body = dict(header, counts=self.counts,
                    spans=[[n, round(a - t0, 9), round(b - t0, 9), p]
                           for n, a, b, p in self.spans])
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(body, fh, separators=(",", ":"))


def layer_metrics(tracer):
    """Per-layer metrics derived from the spans and counters of one run.

    Self time of a span is its duration minus the durations of the spans it
    called directly.
    """
    spans = tracer.spans
    dur = [b - a for _, a, b, _ in spans]
    child = [0.0] * len(spans)
    above = [frozenset()] * len(spans)  # names of every enclosing span
    for i, (_, _, _, parent) in enumerate(spans):
        if parent >= 0:
            child[parent] += dur[i]
            above[i] = above[parent] | {spans[parent][0]}

    def total(name, self_time=False):
        return sum(dur[i] - (child[i] if self_time else 0.0)
                   for i, s in enumerate(spans) if s[0] == name)

    def inside(name, outer):
        """Spans called `name` nested in an `outer` span, outermost only."""
        return [i for i, s in enumerate(spans)
                if s[0] == name and outer in above[i] and name not in above[i]]

    def calls(name):
        return sum(1 for s in spans if s[0] == name)

    c = tracer.counts
    observables_leaf = sum(dur[i] for name in ("specfun.riccati", "materials")
                           for i in inside(name, "spectro.observables"))
    return {
        "specfun.riccati_calls": calls("specfun.riccati"),
        "specfun.riccati_s": total("specfun.riccati"),
        "specfun.orders": c["specfun.orders"],
        "scaledmath.ops": c["scaledmath.ops"],
        "transfer.layer_context_calls": calls("transfer.layer_context"),
        "transfer.solve_calls": calls("transfer.solve"),
        "transfer.channels": c["transfer.channels"],
        "transfer.solve_s": total("transfer.solve"),
        "transfer.solve_self_s": total("transfer.solve", self_time=True),
        "spectro.evaluate_calls": calls("spectro.evaluate"),
        "spectro.ohmic_calls": calls("spectro.ohmic"),
        "spectro.ohmic_riccati_calls": len(inside("specfun.riccati", "spectro.ohmic")),
        # partial sums, Ohmic absorption and flags; the self time leaves out
        # the quadrature's Riccati tables and the material lookups
        "spectro.observables_s": total("spectro.observables"),
        "spectro.observables_self_s": total("spectro.observables") - observables_leaf,
        # the same without the Ohmic quadrature: partial sums, spreads, flags
        "spectro.post_s": total("spectro.observables", self_time=True),
        "materials.calls": calls("materials"),
        "materials.s": sum(dur[i] for i, s in enumerate(spans)
                           if s[0] == "materials" and "materials" not in above[i]),
        "model.sphere_builds": c["model.sphere_builds"],
        "sweep.tasks": calls("sweep.task"),
        # grid, per-task sphere rebuild and row assembly: sweep wall time
        # minus the evaluations it ran
        "sweep.overhead_s": total("sweep.run", self_time=True),
        "sweep.csv_s": total("sweep.csv"),
        "sweep.csv_bytes": c["sweep.csv_bytes"],
        "cli.self_s": total("cli.main", self_time=True),
    }


def traced_wall(tracer):
    return sum(b - a for name, a, b, _ in tracer.spans if name == "cli.main")
