"""Outside-in tracer for the kahlerpinch layers.

The tracer wraps the public functions of each layer module from outside the
package; nothing under ``src/`` is edited. ``from .x import f`` copies a name
into the importing module, so a wrapper is bound in place of *every* module
attribute that is the original function object (``experiments.pinch``,
``chern.wedge``, ...), not only in the defining module.

Every wrapped call records a span (name, start, end, parent, note) in memory.
The hot scalar functions, ``CurvatureTensor.biquadratic`` and ``forms.wedge``,
are counted only: a span costs more than their body.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import statistics
import sys
from collections import Counter
from time import perf_counter

PACKAGE = "kahlerpinch"
# Layer modules whose public functions get spans. ``space`` and ``errors`` are
# leaf utilities: their cost lands in the callers' self time.
SPAN_MODULES = ("curvature", "pinching", "chern", "forms", "experiments")
CLI_FUNCTIONS = ("main",)
COUNTED_FUNCTIONS = ("forms.wedge",)
COUNTED_METHODS = (("curvature", "CurvatureTensor", "biquadratic"),)
LAYERS = ("curvature", "pinching", "chern", "forms", "experiments", "cli")


def _note_project_kahler(args, kwargs, result):
    # the projector is a dense (dim^4)^2 float64 matrix read once per call
    return {"bytes": 8 * result.space.dim ** 8}


def _note_pinch(args, kwargs, result):
    gap = (result.k_min - result.envelope_lo) + (result.envelope_hi - result.k_max)
    return {"converged": result.converged, "gap": gap}


def _note_hol_extremes(args, kwargs, result):
    return {"converged": result.converged}


def _note_chern_forms(args, kwargs, result):
    # keeps the tensor alive for the phase, so its id() is not reused
    tensor = args[0] if args else kwargs["tensor"]
    return {"tensor": tensor}


NOTES = {
    "curvature.project_kahler": _note_project_kahler,
    "pinching.pinch": _note_pinch,
    "pinching.hol_extremes": _note_hol_extremes,
    "chern.chern_forms": _note_chern_forms,
}


def _public_functions(module, names):
    for name in names:
        value = getattr(module, name, None)
        if callable(value) and not inspect.isclass(value):
            yield name, value


class Tracer:
    """Spans and counts for one traced phase; install() patches, uninstall() restores."""

    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patches: list = []

    # -- wrappers -----------------------------------------------------------

    def _span(self, name, fn):
        spans, stack, note = self.spans, self._stack, NOTES.get(name)

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            result = extra = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf_counter()
                stack.pop()
                if note is not None and result is not None:
                    extra = note(args, kwargs, result)
                spans[index] = (name, start, end, parent, extra)

        return wrapped

    def _count(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapped

    # -- patching -----------------------------------------------------------

    def _targets(self):
        """Original function object -> wrapper, for every traced function."""
        targets = {}
        for layer in SPAN_MODULES:
            module = importlib.import_module(f"{PACKAGE}.{layer}")
            for name, fn in _public_functions(module, module.__all__):
                qualified = f"{layer}.{name}"
                if qualified in COUNTED_FUNCTIONS:
                    targets[fn] = self._count(qualified, fn)
                else:
                    targets[fn] = self._span(qualified, fn)
        cli = importlib.import_module(f"{PACKAGE}.cli")
        for name, fn in _public_functions(cli, CLI_FUNCTIONS):
            targets[fn] = self._span(f"cli.{name}", fn)
        return targets

    def install(self) -> "Tracer":
        if self._patches:
            raise RuntimeError("tracer already installed")
        targets = self._targets()
        for module_name, module in list(sys.modules.items()):
            if module is None or not (
                module_name == PACKAGE or module_name.startswith(PACKAGE + ".")
            ):
                continue
            for attr, value in list(vars(module).items()):
                try:
                    wrapper = targets.get(value)
                except TypeError:  # unhashable module attribute
                    continue
                if wrapper is not None:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, wrapper)
        for layer, class_name, method in COUNTED_METHODS:
            cls = getattr(importlib.import_module(f"{PACKAGE}.{layer}"), class_name)
            original = cls.__dict__[method]
            self._patches.append((cls, method, original))
            setattr(cls, method, self._count(f"{layer}.{method}", original))
        return self

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- aggregation --------------------------------------------------------

    def by_function(self) -> dict[str, dict]:
        """calls, total and self seconds, and notes per span name."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict] = {}
        for index, span in enumerate(self.spans):
            name, start, end, _, extra = span
            entry = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "notes": []})
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += (end - start) - child_time[index]
            if extra is not None:
                entry["notes"].append(extra)
        return out

    def dump(self, path) -> None:
        """Write the spans as JSON lines: name, start, end, parent index."""
        with open(path, "w", encoding="ascii") as fh:
            for name, start, end, parent, _ in self.spans:
                fh.write(json.dumps([name, start, end, parent]) + "\n")


def _stat(functions, name, key, default=0):
    return functions.get(name, {}).get(key, default)


def layer_metrics(tracer: Tracer, wall_s: float) -> dict[str, float]:
    """The per-layer metrics of one traced phase that lasted wall_s seconds."""
    functions = tracer.by_function()
    m: dict[str, float] = {}

    def calls(name):
        m[f"{name}.calls"] = _stat(functions, name, "calls")

    def self_s(name):
        m[f"{name}.self_s"] = _stat(functions, name, "self_s", 0.0)

    def notes(name):
        return _stat(functions, name, "notes", [])

    def frac(values):
        return sum(values) / len(values) if values else 0.0

    for name in (
        "curvature.project_kahler",
        "curvature.check_kahler",
        "curvature.reconstruct_from_sectional",
        "pinching.pinch",
        "pinching.curvature_operator_envelope",
        "pinching.hol_extremes",
        "chern.chern_ratio",
        "chern.chern_forms",
        "experiments.perturb",
    ):
        calls(name)
        self_s(name)
    for name in (
        "chern.curvature_matrix",
        "experiments.sweep",
        "experiments.certify_constants",
        "experiments.identity_suite",
        "cli.main",
    ):
        self_s(name)
    m["curvature.project_kahler.bytes_computed"] = sum(
        n["bytes"] for n in notes("curvature.project_kahler")
    )
    m["curvature.biquadratic.calls"] = tracer.counts["curvature.biquadratic"]
    m["forms.wedge.calls"] = tracer.counts["forms.wedge"]
    pinch_notes = notes("pinching.pinch")
    m["pinching.pinch.converged_frac"] = frac([n["converged"] for n in pinch_notes])
    m["pinching.pinch.envelope_gap"] = (
        statistics.median(n["gap"] for n in pinch_notes) if pinch_notes else 0.0
    )
    m["pinching.hol_extremes.converged_frac"] = frac(
        [n["converged"] for n in notes("pinching.hol_extremes")]
    )
    tensors = {id(n["tensor"]) for n in notes("chern.chern_forms")}
    m["chern.chern_forms.calls_per_tensor"] = (
        m["chern.chern_forms.calls"] / len(tensors) if tensors else 0.0
    )
    for layer in LAYERS:
        layer_self = sum(
            entry["self_s"] for name, entry in functions.items() if name.startswith(layer + ".")
        )
        m[f"{layer}.self_frac"] = layer_self / wall_s if wall_s > 0 else 0.0
    return m
