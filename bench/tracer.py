"""Spans around the calls into each reccost module, recorded from outside.

The tracer replaces module attributes (and two FunctionHandle methods) with
wrappers that record a span per call: name, start, end, parent span and the
time covered by child spans, plus a few counts read from the arguments or the
result.  Only the names a module calls through are wrapped, so a call from
``stability.certify`` to ``sup_defect`` is seen through ``stability.sup_defect``.
A target that no longer exists is listed in ``unwrapped`` and skipped, so a
renamed or removed function degrades the trace instead of crashing it.
"""

from __future__ import annotations

import importlib
import time
import tracemalloc
from collections import defaultdict

_clock = time.perf_counter


def _size(z) -> int:
    size = getattr(z, "size", None)
    if size is not None:
        return int(size)
    return len(z) if hasattr(z, "__len__") else 1


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _handle_points(args, kwargs, result):
    return {"points": _size(_arg(args, kwargs, 1, "z"))}


def _grid_points(args, kwargs, result):
    grid = result[1] if isinstance(result, tuple) else result
    return {"points": _size(grid)}


def _sup_defect_pairs(args, kwargs, result):
    return {"pairs": int(result.count)}


def _identity_pairs(args, kwargs, result):
    T, step = _arg(args, kwargs, 1, "T"), _arg(args, kwargs, 2, "step")
    n = 2 * max(1, int(round(T / step))) + 1
    return {"pairs": n * n}


def _verified(args, kwargs, result):
    return {"verified": int(bool(result.verified))}


def _nfev(args, kwargs, result):
    return {"nfev": int(result.nfev)}


def _evaluations(args, kwargs, result):
    return {"evals": int(result.evaluations)}


# (module, attribute, span name, extra-count hook, measure allocation peak)
TARGETS = (
    ("reccost.handles", "FunctionHandle.__call__", "handles.eval", _handle_points, False),
    ("reccost.handles", "FunctionHandle.derivative", "handles.deriv", _handle_points, False),
    ("reccost.handles", "sample_table", "handles.table_build", None, False),
    ("reccost.cli", "sample_table", "handles.table_build", None, False),
    ("reccost.fixtures", "make_family", "fixtures.make_family", None, False),
    ("reccost.cli", "make_family", "fixtures.make_family", None, False),
    ("reccost.grids", "symmetric_grid", "grids.build", _grid_points, False),
    ("reccost.dalembert", "symmetric_grid", "grids.build", _grid_points, False),
    ("reccost.calibration", "symmetric_grid", "grids.build", _grid_points, False),
    ("reccost.stability", "symmetric_grid", "grids.build", _grid_points, False),
    ("reccost.stability", "_sweep_grid", "grids.build", _grid_points, False),
    ("reccost.dalembert", "sup_defect", "dalembert.sup_defect", _sup_defect_pairs, True),
    ("reccost.stability", "sup_defect", "dalembert.sup_defect", _sup_defect_pairs, True),
    ("reccost.dalembert", "identity_report", "dalembert.identity_report", _identity_pairs, True),
    ("reccost.calibration", "estimate_kappa", "calibration.estimate_kappa", None, False),
    ("reccost.stability", "estimate_kappa", "calibration.estimate_kappa", None, False),
    ("reccost.calibration", "classify", "calibration.classify", None, False),
    ("reccost.calibration", "minimize_scalar", "calibration.fit", _nfev, False),
    ("reccost.stability", "certify", "stability.certify", _verified, False),
    ("reccost.stability", "certify_ratio", "stability.certify_ratio", None, False),
    ("reccost.stability", "estimate_bounds", "stability.estimate_bounds", None, False),
    ("reccost.geometry", "distance", "geometry.distance", _evaluations, False),
    ("reccost.geometry", "local_equivalence_ratio", "geometry.local_equivalence", None, False),
    ("reccost.geometry", "chebyshev_cost", "geometry.chebyshev", None, False),
    ("reccost.cli", "run", "cli.run", None, False),
)


class Span:
    __slots__ = ("id", "parent", "name", "start", "end", "child_time", "error", "extra")

    def __init__(self, span_id, parent, name, start):
        self.id = span_id
        self.parent = parent
        self.name = name
        self.start = start
        self.end = start
        self.child_time = 0.0
        self.error = False
        self.extra = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.child_time


class Tracer:
    """Records spans while installed; ``install``/``uninstall`` swap the wrappers."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.spans: list[Span] = []
        self.unwrapped: list[str] = []
        self._stack: list[Span] = []
        self._next_id = 0
        self._wrappers = None

    def _wrap(self, fn, name, hook, measure_alloc):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            self._next_id += 1
            span = Span(self._next_id, parent.id if parent else None, name, 0.0)
            own_trace = False
            if measure_alloc:
                own_trace = not tracemalloc.is_tracing()
                if own_trace:
                    tracemalloc.start()
                base = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
            stack.append(span)
            span.start = _clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.error = True
                raise
            finally:
                span.end = _clock()
                stack.pop()
                if parent is not None:
                    parent.child_time += span.end - span.start
                if measure_alloc:
                    peak = tracemalloc.get_traced_memory()[1] - base
                    if own_trace:
                        tracemalloc.stop()
                    span.extra = {"alloc_peak": peak}
                spans.append(span)
            if hook is not None:
                try:
                    extra = hook(args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError):
                    # a changed signature or result type loses the count, not the task
                    extra = {}
                span.extra = extra if span.extra is None else {**span.extra, **extra}
            return result

        return wrapper

    def _resolve(self):
        """(owner, attribute, original, wrapper) for every target that exists."""
        if self._wrappers is not None:
            return self._wrappers
        found = []
        for module_name, attr, name, hook, alloc in self.targets:
            label = f"{module_name}.{attr}"
            try:
                owner = importlib.import_module(module_name)
            except ImportError:
                self.unwrapped.append(label)
                continue
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            original = getattr(owner, leaf, None) if owner is not None else None
            if original is None or not callable(original):
                self.unwrapped.append(label)
                continue
            found.append((owner, leaf, original, self._wrap(original, name, hook, alloc)))
        self._wrappers = found
        return found

    def install(self) -> None:
        for owner, leaf, _, wrapper in self._resolve():
            setattr(owner, leaf, wrapper)

    def uninstall(self) -> None:
        for owner, leaf, original, _ in self._resolve():
            setattr(owner, leaf, original)

    def take(self) -> list[Span]:
        """Return the finished spans and start a fresh list."""
        done = list(self.spans)
        self.spans.clear()
        return done


def _outermost(spans, names):
    """Spans named in ``names`` that have no ancestor also named in ``names``."""
    by_id = {s.id: s for s in spans}
    out = []
    for s in spans:
        if s.name not in names:
            continue
        p = by_id.get(s.parent)
        while p is not None and p.name not in names:
            p = by_id.get(p.parent)
        if p is None:
            out.append(s)
    return out


def summarize(spans) -> dict:
    """Raw per-layer sums of one batch of spans (counts, seconds, bytes)."""
    acc: dict = defaultdict(float)

    def total(names, key):
        acc[key] += sum(s.duration for s in _outermost(spans, names))

    def extra_sum(name, field):
        return sum(s.extra.get(field, 0) for s in spans if s.name == name and s.extra)

    for s in spans:
        acc[f"calls:{s.name}"] += 1
        acc[f"self:{s.name}"] += s.self_time
    total({"handles.eval"}, "handles.eval_s")
    total({"handles.deriv"}, "handles.deriv_s")
    total({"handles.table_build"}, "handles.table_build_s")
    total({"fixtures.make_family"}, "fixtures.make_family_s")
    total({"dalembert.sup_defect"}, "dalembert.sup_defect_s")
    total({"dalembert.identity_report"}, "dalembert.identity_report_s")
    total({"calibration.estimate_kappa"}, "calibration.estimate_kappa_s")
    total({"calibration.classify"}, "calibration.classify_s")
    total({"stability.certify", "stability.certify_ratio"}, "stability.certify_s")
    total({"stability.estimate_bounds"}, "stability.estimate_bounds_s")
    total({"geometry.distance"}, "geometry.distance_s")
    total({"geometry.chebyshev"}, "geometry.chebyshev_s")
    total({"cli.run"}, "cli.run_s")
    acc["handles.eval_points"] += extra_sum("handles.eval", "points")
    acc["handles.deriv_points"] += extra_sum("handles.deriv", "points")
    acc["grids.points"] += extra_sum("grids.build", "points")
    acc["dalembert.pairs"] += extra_sum("dalembert.sup_defect", "pairs")
    acc["dalembert.pairs"] += extra_sum("dalembert.identity_report", "pairs")
    acc["calibration.fit_nfev"] += extra_sum("calibration.fit", "nfev")
    acc["calibration.classify_accepted"] += sum(
        1 for s in spans if s.name == "calibration.classify" and not s.error
    )
    acc["stability.verified"] += extra_sum("stability.certify", "verified")
    acc["geometry.quad_evals"] += extra_sum("geometry.distance", "evals")
    peaks = [
        s.extra["alloc_peak"]
        for s in spans
        if s.name.startswith("dalembert.") and s.extra and "alloc_peak" in s.extra
    ]
    acc["max:dalembert.alloc_peak"] = max(peaks, default=0)
    return dict(acc)


def merge(into: dict, part: dict) -> None:
    """Add the sums of ``part`` to ``into``; ``max:`` keys keep the maximum."""
    for key, value in part.items():
        if key.startswith("max:"):
            into[key] = max(into.get(key, 0), value)
        else:
            into[key] = into.get(key, 0.0) + value


def layer_metrics(task_sums: dict, setup_sums: dict, tasks: int) -> dict:
    """Per-layer metric values from summed task spans and set-up spans."""
    n = max(tasks, 1)
    t = defaultdict(float, task_sums)
    s = defaultdict(float, setup_sums)

    def ratio(num, den):
        return num / den if den else 0.0

    dal_s = t["dalembert.sup_defect_s"] + t["dalembert.identity_report_s"]
    classify_calls = t["calls:calibration.classify"]
    certify_calls = t["calls:stability.certify"]
    return {
        "cli.run_s": t["cli.run_s"] / n,
        "handles.eval_calls": t["calls:handles.eval"] / n,
        "handles.eval_points": t["handles.eval_points"] / n,
        "handles.eval_s": t["handles.eval_s"] / n,
        "handles.deriv_points": t["handles.deriv_points"] / n,
        "handles.deriv_s": t["handles.deriv_s"] / n,
        "handles.table_build_s": s["handles.table_build_s"],
        "grids.calls": t["calls:grids.build"] / n,
        "grids.points": t["grids.points"] / n,
        "fixtures.make_family_s": s["fixtures.make_family_s"],
        "dalembert.sup_defect_calls": t["calls:dalembert.sup_defect"] / n,
        "dalembert.sup_defect_s": t["dalembert.sup_defect_s"] / n,
        "dalembert.identity_report_s": t["dalembert.identity_report_s"] / n,
        "dalembert.pairs": t["dalembert.pairs"] / n,
        "dalembert.pairs_per_s": ratio(t["dalembert.pairs"], dal_s),
        "dalembert.peak_alloc_mb": t["max:dalembert.alloc_peak"] / 2**20,
        "calibration.estimate_kappa_calls": t["calls:calibration.estimate_kappa"] / n,
        "calibration.estimate_kappa_s": t["calibration.estimate_kappa_s"] / n,
        "calibration.classify_s": t["calibration.classify_s"] / n,
        "calibration.classify_self_s": t["self:calibration.classify"] / n,
        "calibration.fit_nfev": ratio(t["calibration.fit_nfev"], t["calls:calibration.fit"]),
        "calibration.accepted_ratio": ratio(t["calibration.classify_accepted"], classify_calls),
        "stability.certify_calls": certify_calls / n,
        "stability.certify_s": t["stability.certify_s"] / n,
        "stability.certify_self_s": (
            t["self:stability.certify"] + t["self:stability.certify_ratio"]
        ) / n,
        "stability.estimate_bounds_s": t["stability.estimate_bounds_s"] / n,
        "stability.verified_ratio": ratio(t["stability.verified"], certify_calls),
        "geometry.distance_calls": t["calls:geometry.distance"] / n,
        "geometry.distance_s": t["geometry.distance_s"] / n,
        "geometry.quad_evals": t["geometry.quad_evals"] / n,
        "geometry.evals_per_s": ratio(t["geometry.quad_evals"], t["geometry.distance_s"]),
        "geometry.chebyshev_s": t["geometry.chebyshev_s"] / n,
    }
