"""Span tracer that wraps evoseries' public functions from outside the package.

install() replaces every public function of the traced modules, at every
binding a caller looks it up by (the defining module, modules that imported
it by name, the package namespace), with a wrapper that records a span
(name, start, end, parent, task).  Functions that return a generator get one
span per item drawn, so lazily produced work is charged to the producer and
not to whoever iterates.  uninstall() puts the originals back.

Work counts are computed from call arguments only (never from timing), so
they repeat exactly for the same inputs.
"""

from __future__ import annotations

import importlib
import os
import time
import types
from collections import defaultdict

import numpy as np

MODULES = ("engine", "scalar", "bdp", "combinatorics", "peano_baker", "shift_algebra", "matfile", "cli")
TASK = "task"
FLOAT_BYTES = 8


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _counters(term_count):
    """Per-function work counters; each maps (counts, args, kwargs) to increments."""

    def compute_coefficients(counts, args, kwargs):
        coeffs, order = _arg(args, kwargs, 0, "coeffs"), _arg(args, kwargs, 1, "order")
        d, p = coeffs.dim, coeffs.degree
        matmuls = sum(min(p, n - 1) + 1 for n in range(1, order + 1))
        counts["engine.compute_coefficients.matmuls"] += matmuls
        counts["engine.compute_coefficients.flop"] += 2 * d**3 * matmuls
        counts["engine.compute_coefficients.bytes"] += (order + 1) * d * d * FLOAT_BYTES

    def explicit(counts, args, kwargs):
        coeffs, n = _arg(args, kwargs, 0, "coeffs"), _arg(args, kwargs, 1, "n")
        if coeffs.degree >= 1:
            counts["engine.compute_coefficients_explicit.products"] += term_count(n, coeffs.degree)

    def pb_partial_sum(counts, args, kwargs):
        # Dense U_n has degree min(n (p + 1), max_degree); each step multiplies
        # every A_j into every stored coefficient.
        coeffs, order = _arg(args, kwargs, 0, "coeffs"), _arg(args, kwargs, 1, "order")
        max_degree = args[2] if len(args) > 2 else kwargs.get("max_degree")
        p, degree, matmuls = coeffs.degree, 0, 0
        for _ in range(order):
            matmuls += (p + 1) * (degree + 1)
            degree += p + 1
            if max_degree is not None:
                degree = min(degree, max_degree)
        counts["peano_baker.matmuls"] += matmuls

    def reduce(counts, args, kwargs):
        word = _arg(args, kwargs, 0, "word")
        letters = word.replace(" ", "") if isinstance(word, str) else word
        counts["shift_algebra.reduce.letters"] += len(letters)

    def load(counts, args, kwargs):
        counts["matfile.load_coefficients.bytes"] += os.path.getsize(_arg(args, kwargs, 0, "path"))

    def solve_bdp(counts, args, kwargs):
        counts["bdp.solve_bdp.steps"] += _arg(args, kwargs, 2, "steps")

    return {
        "engine.compute_coefficients": compute_coefficients,
        "engine.compute_coefficients_explicit": explicit,
        "peano_baker.pb_partial_sum": pb_partial_sum,
        "shift_algebra.reduce": reduce,
        "matfile.load_coefficients": load,
        "bdp.solve_bdp": solve_bdp,
    }


class Tracer:
    """Spans and counts for one traced pass; reset() starts the next pass."""

    def __init__(self):
        self.package = importlib.import_module("evoseries")
        self.modules = [importlib.import_module(f"evoseries.{m}") for m in MODULES]
        originals = {}
        for short, module in zip(MODULES, self.modules):
            names = list(getattr(module, "__all__", ()))
            if short == "cli":
                names += [n for n in vars(module) if n.startswith("cmd_")]
            for name in names:
                obj = getattr(module, name)
                if isinstance(obj, types.FunctionType) and obj.__module__ == module.__name__:
                    originals[id(obj)] = (obj, f"{short}.{name}")
        counters = _counters(importlib.import_module("evoseries.combinatorics").term_count)
        self.names = [TASK] + sorted(label for _, label in originals.values())
        ids = {name: i for i, name in enumerate(self.names)}
        self._wrappers = {
            key: self._wrap(fn, ids[label], label, counters.get(label))
            for key, (fn, label) in originals.items()
        }
        self._patched = []
        self.reset()

    def reset(self):
        self.spans = []
        self.stack = [-1]
        self.task = -1
        self.counts = defaultdict(int)

    def _wrap(self, fn, name_id, label, counter):
        clock = time.perf_counter
        calls_key = f"{label}.calls"
        tracer = self

        def items(gen):
            # One span per item drawn from a generator the function returned.
            while True:
                spans, stack = tracer.spans, tracer.stack
                idx = len(spans)
                spans.append(None)
                parent = stack[-1]
                stack.append(idx)
                start = clock()
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    end = clock()
                    stack.pop()
                    spans[idx] = (name_id, start, end, parent, tracer.task)
                tracer.counts["combinatorics.index_tuples"] += 1
                yield item

        def wrapper(*args, **kwargs):
            spans, stack = tracer.spans, tracer.stack
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name_id, start, end, parent, tracer.task)
            tracer.counts[calls_key] += 1
            if counter is not None:
                counter(tracer.counts, args, kwargs)
            if isinstance(result, types.GeneratorType):
                return items(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        for module in [self.package] + self.modules:
            for attr, value in list(vars(module).items()):
                wrapper = self._wrappers.get(id(value))
                if wrapper is not None and value is wrapper.__wrapped__:
                    setattr(module, attr, wrapper)
                    self._patched.append((module, attr, value))

    def uninstall(self):
        for module, attr, value in self._patched:
            setattr(module, attr, value)
        self._patched = []

    def run_task(self, task_id, fn):
        """Run fn() under the root span of task task_id."""
        self.task = task_id
        idx = len(self.spans)
        self.spans.append(None)
        self.stack.append(idx)
        start = time.perf_counter()
        try:
            result = fn()
        finally:
            end = time.perf_counter()
            self.stack.pop()
            self.spans[idx] = (0, start, end, -1, task_id)
        return result

    def self_times(self) -> dict[str, float]:
        """Seconds per span name, each span's duration minus its direct children's."""
        if not self.spans:
            return {}
        arr = np.array(self.spans, dtype=float)
        name, start, end, parent = arr[:, 0].astype(int), arr[:, 1], arr[:, 2], arr[:, 3].astype(int)
        duration = end - start
        child = np.zeros(len(arr))
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], duration[has_parent])
        totals = np.bincount(name, weights=duration - child, minlength=len(self.names))
        return {self.names[i]: float(totals[i]) for i in range(len(self.names)) if totals[i] != 0.0}

    def write_spans(self, path: str) -> None:
        origin = min((s[1] for s in self.spans), default=0.0)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("name,start_s,end_s,parent,task\n")
            for name_id, start, end, parent, task in self.spans:
                handle.write(
                    f"{self.names[name_id]},{start - origin:.9f},{end - origin:.9f},{parent},{task}\n"
                )
