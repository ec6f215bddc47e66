"""Spans around the public functions of every ``shadowrds`` module.

``Tracer.install`` wraps each public function listed in a module's
``__all__`` and rebinds every module attribute in the package that refers to
the same function object, because ``from .x import f`` leaves a copy of the
binding in each importing module.  ``CocycleSystem.matrix`` and
``OrbitCache.__init__`` are wrapped on their classes.

Spans are kept in flat arrays (name, start, end, parent span, case id) and
written out once the run ends; self time is the span's duration minus the
durations of its direct children.  The program is single-threaded, so child
spans never overlap and no layer waits on another.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from collections import Counter

import numpy as np

MODULES = (
    "driving", "cocycle", "green", "shadowing", "lyapunov", "scenarios",
    "checks", "experiments",
)


def _arg(args, kwargs, position, name):
    return kwargs[name] if name in kwargs else args[position]


class Tracer:
    def __init__(self) -> None:
        self.active = False
        self.case = 0
        self.case_names: list[str] = ["setup"]
        self.span_names: list[str] = []
        self.name = array("i")
        self.parent = array("i")
        self.case_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self.matrix_points: set = set()

    def begin_case(self, label: str) -> None:
        self.case_names.append(label)
        self.case = len(self.case_names) - 1

    def _wrap(self, span: str, fn, after=None):
        """Return fn wrapped in a span; ``after(args, kwargs, result)`` adds counts.

        Each span name is wrapped once, so the name's index is its id.
        """
        name_id = len(self.span_names)
        self.span_names.append(span)
        clock = time.perf_counter
        stack, names, parents = self._stack, self.name, self.parent
        cases, starts, ends = self.case_id, self.start, self.end

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = len(starts)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            cases.append(self.case)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    def _hooks(self) -> dict:
        counts = self.counts

        def window_length(span, position, name):
            def after(args, kwargs, result):
                counts[span + ".indices"] += _arg(args, kwargs, position, name).window.length
            return after

        def solve_after(args, kwargs, result):
            counts["shadowing.solve.iterations"] += result.iterations

        def steps_after(position):
            def after(args, kwargs, result):
                counts["lyapunov.orbit_steps"] += int(_arg(args, kwargs, position, "steps"))
            return after

        return {
            "green.green_apply": window_length("green.green_apply", 3, "z"),
            "green.weighted_norm": window_length("green.weighted_norm", 3, "seq"),
            "shadowing.solve": solve_after,
            "lyapunov.nonlinear_exponent": steps_after(5),
            "lyapunov.linear_exponents_qr": steps_after(2),
            "lyapunov.backward_qr_frame": steps_after(2),
        }

    def install(self) -> None:
        from shadowrds.cocycle import CocycleSystem, OrbitCache

        hooks = self._hooks()
        wrapped: dict[int, tuple[object, object]] = {}
        for short in MODULES:
            module = importlib.import_module(f"shadowrds.{short}")
            for attr in module.__all__:
                obj = getattr(module, attr)
                if (
                    callable(obj)
                    and not isinstance(obj, type)
                    and getattr(obj, "__module__", None) == module.__name__
                ):
                    span = f"{short}.{attr}"
                    wrapped[id(obj)] = (obj, self._wrap(span, obj, hooks.get(span)))
        for name, module in list(sys.modules.items()):
            if name != "shadowrds" and not name.startswith("shadowrds."):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrapped.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])

        points = self.matrix_points

        def matrix_after(args, kwargs, result):
            points.add(_arg(args, kwargs, 1, "point"))

        CocycleSystem.matrix = self._wrap(
            "cocycle.matrix", CocycleSystem.matrix, matrix_after
        )
        counts = self.counts
        cache_init = OrbitCache.__init__

        @functools.wraps(cache_init)
        def counted_init(cache, *args, **kwargs):
            if self.active:
                counts["cocycle.orbit_cache.created"] += 1
            cache_init(cache, *args, **kwargs)

        OrbitCache.__init__ = counted_init

    def self_times(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-span-name (calls, self seconds)."""
        names = np.frombuffer(self.name, dtype=np.int32)
        parents = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=float) - np.frombuffer(self.start, dtype=float)
        has_parent = parents >= 0
        child = np.bincount(
            parents[has_parent], weights=dur[has_parent], minlength=dur.size
        )
        width = len(self.span_names)
        calls = np.bincount(names, minlength=width)
        self_s = np.bincount(names, weights=dur - child, minlength=width)
        return calls, self_s

    def metrics(self) -> dict[str, float]:
        """Calls and self time per span name, plus the derived per-layer metrics."""
        calls, self_s = self.self_times()
        out: dict[str, float] = {}
        for i, span in enumerate(self.span_names):
            out[f"{span}.calls"] = int(calls[i])
            out[f"{span}.s"] = float(self_s[i])
        for span in ("green.green_apply", "green.weighted_norm"):
            indices = self.counts[span + ".indices"]
            out[f"{span}.s_per_index"] = out[f"{span}.s"] / indices if indices else 0.0
        matrix_calls = out["cocycle.matrix.calls"]
        out["cocycle.matrix.distinct_ratio"] = (
            len(self.matrix_points) / matrix_calls if matrix_calls else 0.0
        )
        for key in (
            "cocycle.orbit_cache.created", "shadowing.solve.iterations",
            "lyapunov.orbit_steps",
        ):
            out[key] = int(self.counts[key])
        return out

    def write(self, path) -> None:
        """Write every span to a compressed ``.npz`` file."""
        np.savez_compressed(
            path,
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            case=np.frombuffer(self.case_id, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=float),
            end=np.frombuffer(self.end, dtype=float),
            span_names=np.array(self.span_names),
            case_names=np.array(self.case_names),
        )
