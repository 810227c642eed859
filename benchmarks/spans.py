"""Timing spans around the public entry points of each neckfield layer.

The spans are installed from outside the package: each entry point is
replaced, in every loaded ``neckfield`` module that binds it, by a wrapper
that records a span and the layer's counters, and the originals are put
back afterwards. The program under test is not edited.

A layer's self time is the duration of its spans minus the time covered by
their child spans, so nested calls (a gap search inside a mesh build, a
gradient call inside the gap-maximum search) are charged to the layer that
does the work.
"""

from __future__ import annotations

import functools
import importlib
import math
import sys
import time
from collections import Counter
from dataclasses import dataclass

import numpy as np

# Pipeline stages of the package, in order. "closed_form" holds the
# reference values the answers are checked against: the two-disk image
# fields and the paper's predicted scales.
LAYERS = ("geometry", "mesh", "assembly", "solve", "surface", "eval",
          "gapmax", "sweep", "closed_form")


class TraceError(RuntimeError):
    """The trace cannot be trusted: an entry point is missing, a layer saw
    no calls, or spans do not nest."""


@dataclass
class Span:
    layer: str
    name: str
    parent: int
    start: float
    end: float = math.nan


def _count_mesh(tr, args, result):
    tr.counts["mesh.nodes"] += result.n_total
    base = result.controls.base_n
    for cm in result.curves:
        tr.counts["mesh.doublings"] += round(math.log2(cm.n / max(64, base)))


def _count_operator(tr, args, result):
    tr.counts["assembly.matrix_entries"] += args[0].mesh.n_total ** 2


def _count_solve(tr, args, result):
    tr.rcond_min = min(tr.rcond_min, result.rcond)


def _count_eval(tr, args, result):
    pts = np.asarray(args[1])
    tr.counts["eval.points"] += pts.shape[0] if pts.ndim == 2 else 1
    if any(tr.spans[i].layer == "gapmax" for i in tr.open_spans):
        tr.counts["gapmax.eval_calls"] += 1


def _count_sweep(tr, args, result):
    tr.counts["sweep.scenes"] += len(result.values)


# (module, class or None, attribute, layer, counter of the result or None).
# Functions are replaced wherever a neckfield module binds them; methods on
# their class. Every call is also counted under its label.
ENTRY_POINTS = (
    ("neckfield.geometry.config", None, "build_two_disks", "geometry", None),
    ("neckfield.geometry.config", None, "build_case_b", "geometry", None),
    ("neckfield.geometry.config", None, "build_case_d", "geometry", None),
    ("neckfield.geometry.gap", None, "body_gap", "geometry", None),
    ("neckfield.geometry.shapes", "SmoothBoundary", "validate", "geometry", None),
    ("neckfield.solver.mesh", None, "build_mesh", "mesh", _count_mesh),
    ("neckfield.solver.nystrom", "SceneOperator", "__init__", "assembly", _count_operator),
    ("neckfield.solver.nystrom", "SceneOperator", "solve_u", "solve", _count_solve),
    ("neckfield.solver.nystrom", "SceneOperator", "solve_h", "solve", _count_solve),
    ("neckfield.solver.nystrom", "SceneOperator", "solve_hc", "solve", _count_solve),
    ("neckfield.solver.nystrom", "FieldSolution", "normal_derivative_nodes", "surface", None),
    ("neckfield.solver.nystrom", "FieldSolution", "potential", "eval", _count_eval),
    ("neckfield.solver.nystrom", "FieldSolution", "gradient", "eval", _count_eval),
    ("neckfield.solver.nystrom", None, "max_gap_gradient", "gapmax", None),
    ("neckfield.sweeps", None, "run_sweep", "sweep", _count_sweep),
    ("neckfield.sweeps", None, "fit_rate", "sweep", None),
    ("neckfield.images", None, "psi_two_disks", "closed_form", None),
    ("neckfield.images", None, "two_disk_potential_difference", "closed_form", None),
    ("neckfield.images", "TwoDiskField", "potential", "closed_form", None),
    ("neckfield.images", "TwoDiskField", "gradient", "closed_form", None),
    ("neckfield.asymptotics", None, "bound_case_b", "closed_form", None),
    ("neckfield.asymptotics", None, "bound_case_c", "closed_form", None),
)


class Tracer:
    """Collects spans and counters while installed; ``report`` turns them
    into the per-layer metrics."""

    def __init__(self):
        self.spans: list[Span] = []
        self.open_spans: list[int] = []
        self.calls: Counter = Counter()    # by entry-point label
        self.counts: Counter = Counter()
        self.rcond_min = math.inf
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, fn, layer: str, name: str, count):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.calls[name] += 1
            idx = len(tracer.spans)
            parent = tracer.open_spans[-1] if tracer.open_spans else -1
            tracer.spans.append(Span(layer, name, parent, time.perf_counter()))
            tracer.open_spans.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.spans[idx].end = time.perf_counter()
                tracer.open_spans.pop()
            if count is not None:
                count(tracer, args, result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every entry point; raises TraceError, with nothing left
        installed, if one is missing."""
        try:
            for mod_name, cls_name, attr, layer, count in ENTRY_POINTS:
                module = importlib.import_module(mod_name)
                owner = getattr(module, cls_name) if cls_name else module
                original = owner.__dict__.get(attr) if cls_name else getattr(module, attr, None)
                label = f"{cls_name}.{attr}" if cls_name else attr
                if not callable(original):
                    raise TraceError(f"entry point {mod_name}.{label} is missing")
                wrapper = self._wrap(original, layer, label, count)
                owners = [owner] if cls_name else [
                    m for n, m in list(sys.modules.items())
                    if (n == "neckfield" or n.startswith("neckfield.")) and m is not None
                    and getattr(m, attr, None) is original]
                for o in owners:
                    self._restore.append((o, attr, original))
                    setattr(o, attr, wrapper)
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def report(self, wall_s: float) -> dict[str, float]:
        """Per-layer metrics of everything recorded since install. Raises
        TraceError if spans do not nest or a layer saw no call, which is
        what a renamed or bypassed entry point looks like."""
        if self.open_spans or any(math.isnan(s.end) for s in self.spans):
            raise TraceError("a span was left open")
        child_s = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent >= 0:
                p = self.spans[s.parent]
                if s.start < p.start or s.end > p.end:
                    raise TraceError(f"span {s.name} does not nest in {p.name}")
                child_s[s.parent] += s.end - s.start
        self_s = dict.fromkeys(LAYERS, 0.0)
        for s, c in zip(self.spans, child_s):
            self_s[s.layer] += (s.end - s.start) - c
        seen = {s.layer for s in self.spans}
        missing = [layer for layer in LAYERS if layer not in seen]
        if missing:
            raise TraceError(f"no span recorded for layer(s) {', '.join(missing)}")

        n, c = self.calls, self.counts
        solves = sum(n[f"SceneOperator.solve_{k}"] for k in ("u", "h", "hc"))
        evals = n["FieldSolution.potential"] + n["FieldSolution.gradient"]
        out = {f"{layer}.self_s": self_s[layer] for layer in LAYERS}
        out.update({
            "geometry.calls": n["build_two_disks"] + n["build_case_b"] + n["build_case_d"],
            "geometry.validate_calls": n["SmoothBoundary.validate"],
            "geometry.gap_calls": n["body_gap"],
            "mesh.nodes": c["mesh.nodes"],
            "mesh.doublings": c["mesh.doublings"],
            "assembly.matrix_entries": c["assembly.matrix_entries"],
            "solve.calls": solves,
            "solve.calls_per_mesh": solves / n["SceneOperator.__init__"],
            "solve.rcond_min": self.rcond_min,
            "surface.calls": n["FieldSolution.normal_derivative_nodes"],
            "eval.calls": evals,
            "eval.points": c["eval.points"],
            "eval.points_per_call": c["eval.points"] / evals,
            "gapmax.calls": n["max_gap_gradient"],
            "gapmax.eval_calls_per_search": c["gapmax.eval_calls"] / n["max_gap_gradient"],
            "sweep.scenes": c["sweep.scenes"],
            "trace.unattributed_s": wall_s - sum(self_s.values()),
        })
        return out
