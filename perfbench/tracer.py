"""Spans around calls into z11sim's layers, recorded from outside the package.

Every public function of every ``z11sim`` module, the operator apply
``RestrictedOperator.apply_packed``, and the 1-D, 2-D and N-D entry points of
``numpy.fft`` and ``scipy.fft`` are replaced by wrappers that append a span
(name, start, end, parent span, operation id, detail, error) to an in-memory
list. The layer of a span is the first part of its name: ``fft`` or the
z11sim module name.

The FFT wrappers go in before ``z11sim`` is imported, so a module that binds
an FFT function at import binds the wrapper. After the import, every alias of
a wrapped callable in any ``z11sim.*`` namespace is rebound to its wrapper;
``cli`` binds ``solve_profile`` at import, for example.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import statistics
import sys
from collections import defaultdict
from time import perf_counter_ns

FFT_MODULES = ("numpy.fft", "scipy.fft")
FFT_FUNCTIONS = ("fft", "ifft", "fft2", "ifft2", "fftn", "ifftn",
                 "rfft", "irfft", "rfft2", "irfft2", "rfftn", "irfftn")
METHODS = (("z11sim.profile", "RestrictedOperator", "apply_packed"),)
LAYERS = ("fft", "spectral", "profile", "evolution", "shapes", "fieldio",
          "config", "cli")

# Span fields.
NAME, START, END, PARENT, OP, DETAIL, ERROR = range(7)


def _fft_detail(name: str):
    """Shapes, item sizes and axes of one transform, for the flop count."""
    def detail(args, kwargs, result):
        data = args[0] if args else kwargs.get("x", kwargs.get("a"))
        axes = args[2] if len(args) > 2 else kwargs.get("axes", kwargs.get("axis"))
        size = args[1] if len(args) > 1 else kwargs.get("s", kwargs.get("n"))
        return (name, tuple(data.shape), data.itemsize, tuple(result.shape),
                result.itemsize, axes, size)
    return detail


def fft_work(detail) -> tuple[float, float]:
    """Computed flops and bytes of one transform.

    A complex transform of N points costs 5 N log2 N flops and a real one
    half that; bytes are the input plus the output array. Both are computed
    from array sizes, not measured.
    """
    name, in_shape, in_item, out_shape, out_item, axes, size = detail
    if name.endswith("2"):
        axes = (-2, -1) if axes is None else axes
    elif name.endswith("n"):
        axes = tuple(range(len(out_shape))) if axes is None else axes
    else:
        axes = (-1 if axes is None else axes,)
    # the real side of the transform sets the number of points
    logical = list(out_shape)
    if name.startswith("rfft"):
        last = axes[-1]
        if size is None:
            logical[last] = in_shape[last]
        else:
            logical[last] = size if isinstance(size, int) else size[-1]
    points = math.prod(logical[a] for a in axes)
    batch = math.prod(logical) // points
    flops = 5.0 * points * math.log2(points) * batch if points > 1 else 0.0
    if "rfft" in name:
        flops /= 2
    nbytes = math.prod(in_shape) * in_item + math.prod(out_shape) * out_item
    return flops, float(nbytes)


def _rasterize_detail(args, kwargs, mask):
    return mask.cell_count


def _solve_detail(args, kwargs, solution):
    return solution.iterations


def _evolve_detail(args, kwargs, trace):
    n = trace.fields[0].grid.n if trace.fields else 0
    return len(trace), len(trace.fields) * n * n * 8


def _write_detail(args, kwargs, result):
    return len(args[1] if len(args) > 1 else kwargs["payload"])


DETAILS = {
    "shapes.rasterize": _rasterize_detail,
    "profile.solve_profile": _solve_detail,
    "evolution.evolve": _evolve_detail,
    "fieldio.atomic_write_bytes": _write_detail,
}


class Tracer:
    """Records spans of wrapped calls; single-threaded callers only."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.op = -1
        self.rebound = 0
        self._stack: list[int] = []
        self._wrappers: dict[int, object] = {}

    def wrap(self, name: str, fn, detail=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0, 0, stack[-1] if stack else -1, self.op, None, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[END] = perf_counter_ns()
                span[ERROR] = type(exc).__name__
                stack.pop()
                raise
            span[END] = perf_counter_ns()
            stack.pop()
            if detail is not None:
                span[DETAIL] = detail(args, kwargs, result)
            return result

        self._wrappers[id(fn)] = traced
        return traced

    def install(self, src_dir: str):
        """Wrap the FFT entry points, import z11sim from ``src_dir``, wrap
        its layers and rebind every alias; returns the ``z11sim`` package."""
        for module_name in FFT_MODULES:
            module = importlib.import_module(module_name)
            for fname in FFT_FUNCTIONS:
                fn = getattr(module, fname)
                setattr(module, fname, self.wrap(f"fft.{fname}", fn,
                                                 _fft_detail(fname)))
        sys.path.insert(0, src_dir)
        package = importlib.import_module("z11sim")
        importlib.import_module("z11sim.cli")
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "z11sim" or name.startswith("z11sim.")]
        for module in modules:
            layer = module.__name__.rpartition(".")[2]
            for fname in getattr(module, "__all__", ()):
                fn = getattr(module, fname)
                if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                    qual = f"{layer}.{fname}"
                    self.wrap(qual, fn, DETAILS.get(qual))
        for module_name, cls_name, meth in METHODS:
            cls = getattr(sys.modules[module_name], cls_name)
            layer = module_name.rpartition(".")[2]
            setattr(cls, meth, self.wrap(f"{layer}.{meth}", getattr(cls, meth)))
        for module in modules:
            for attr, value in list(vars(module).items()):
                wrapper = self._wrappers.get(id(value))
                if wrapper is not None and wrapper is not value:
                    setattr(module, attr, wrapper)
                    self.rebound += 1
        return package


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def op_metrics(spans: list[list], op: int, wall_s: float) -> dict[str, float]:
    """Per-layer metrics of one operation from its spans."""
    mine = [i for i, s in enumerate(spans) if s[OP] == op]
    dur = {i: spans[i][END] - spans[i][START] for i in mine}
    children: dict[int, list[int]] = defaultdict(list)
    for i in mine:
        children[spans[i][PARENT]].append(i)
    selfns = {i: dur[i] - sum(dur[c] for c in children[i]) for i in mine}
    by_name: dict[str, list[int]] = defaultdict(list)
    for i in mine:
        by_name[spans[i][NAME]].append(i)

    def total_s(name: str) -> float:
        return sum(dur[i] for i in by_name[name]) / 1e9

    def self_s(name: str) -> float:
        return sum(selfns[i] for i in by_name[name]) / 1e9

    def details(name: str) -> list:
        return [spans[i][DETAIL] for i in by_name[name] if spans[i][DETAIL] is not None]

    def under(i: int, name: str) -> bool:
        p = spans[i][PARENT]
        while p >= 0:
            if spans[p][NAME] == name:
                return True
            p = spans[p][PARENT]
        return False

    layer_self: dict[str, float] = defaultdict(float)
    for i in mine:
        layer_self[spans[i][NAME].partition(".")[0]] += selfns[i] / 1e9

    ffts = [i for i in mine if spans[i][NAME].startswith("fft.")]
    work = [fft_work(spans[i][DETAIL]) for i in ffts if spans[i][DETAIL] is not None]
    applies = by_name["profile.apply_packed"]
    coercivity_applies = [i for i in applies if under(i, "profile.estimate_coercivity")]
    steps = by_name["evolution.step"]
    accepted = [i for i in steps if spans[i][ERROR] is None]
    evolves = by_name["evolution.evolve"]
    outside_steps = sum(
        dur[e] - sum(dur[c] for c in children[e]
                     if spans[c][NAME] in ("evolution.step",
                                           "evolution.estimate_blowup_time"))
        for e in evolves)
    fieldio_outer = [i for i in mine if spans[i][NAME].startswith("fieldio.")
                     and not (spans[i][PARENT] >= 0
                              and spans[spans[i][PARENT]][NAME].startswith("fieldio."))]

    metrics = {
        "fft.calls": len(ffts),
        "fft.bytes_computed": sum(b for _, b in work),
        "fft.flops_computed": sum(f for f, _ in work),
        "spectral.apply_z11.calls": len(by_name["spectral.apply_z11"]),
        "spectral.apply_z11.self_s": self_s("spectral.apply_z11"),
        "spectral.qform.calls": len(by_name["spectral.quadratic_form"]),
        "spectral.qform.self_s": self_s("spectral.quadratic_form"),
        "profile.cg_iterations": sum(details("profile.solve_profile")),
        "profile.cg_applies": len(applies) - len(coercivity_applies),
        "profile.cg_s": total_s("profile.solve_profile") - sum(
            dur[i] for i in by_name["profile.estimate_coercivity"]
            if under(i, "profile.solve_profile")) / 1e9,
        "profile.coercivity_applies": len(coercivity_applies),
        "profile.coercivity_s": total_s("profile.estimate_coercivity"),
        "profile.apply.median_ms": _median([dur[i] / 1e6 for i in applies]),
        "profile.verify_s": total_s("profile.verify_profile"),
        "evolution.steps": len(accepted),
        "evolution.step_underflows": sum(spans[i][ERROR] == "StepUnderflowError" for i in steps),
        "evolution.step_s": total_s("evolution.step"),
        "evolution.step.median_ms": _median([dur[i] / 1e6 for i in accepted]),
        "evolution.records": sum(d[0] for d in details("evolution.evolve")),
        "evolution.record_s": outside_steps / 1e9,
        "evolution.kept_field_bytes": sum(d[1] for d in details("evolution.evolve")),
        "evolution.deviation_s": total_s("evolution.self_similar_deviation"),
        "shapes.rasterize_s": total_s("shapes.rasterize"),
        "shapes.cells": sum(details("shapes.rasterize")),
        "fieldio.write_s": sum(dur[i] for i in fieldio_outer) / 1e9,
        "fieldio.bytes_written": sum(details("fieldio.atomic_write_bytes")),
        "config.load_s": total_s("config.load_run_config"),
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = layer_self[layer]
    metrics["traced_wall_s"] = wall_s
    metrics["self_time_coverage"] = sum(layer_self.values()) / wall_s
    metrics["span_errors"] = sum(
        spans[i][ERROR] is not None and spans[i][ERROR] != "StepUnderflowError"
        for i in mine)
    return metrics
