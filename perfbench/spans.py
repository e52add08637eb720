"""Tracing of the gabrec library from outside it.

While :meth:`Tracer.active` is entered, every public function of the
library's modules is replaced, in every module namespace that binds it, by
a wrapper that records a span: name, start, end and the index of the span
that called it.  The operators of the element classes of L and K are
replaced by wrappers that count calls and accumulate time instead, and
inside an operator no span is recorded, so an inversion's internal solve
counts as inversion time.  Operator times are inclusive: the K-products
inside an L-product count for both.  Nothing under ``src/gabrec`` changes,
and leaving the block restores every original.
"""

from __future__ import annotations

import importlib
import json
import types
from collections import Counter
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path
from time import perf_counter_ns

SPAN_MODULES = ("exact_algebra", "exact_linalg", "skew_poly", "rank_metric", "gabidulin", "lrmr")


class Tracer:
    def __init__(self, package: types.ModuleType, tower):
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent index or -1]
        self.calls: Counter = Counter()  # (root span name, operator) -> calls
        self.op_ns: Counter = Counter()  # (root span name, operator) -> inclusive ns
        self.kernels: list[tuple] = []  # (parent index, matrix, kernel) per right_kernel call
        self._open: list[int] = []
        self._root = ""
        self._in_op = 0
        self._patches = self._span_patches(package) + self._operator_patches(tower)

    def _span_patches(self, package) -> list[tuple]:
        modules = [importlib.import_module(f"{package.__name__}.{m}") for m in SPAN_MODULES]
        namespaces = [package, *modules]
        patches = []
        for short, module in zip(SPAN_MODULES, modules):
            for fname in module.__all__:
                fn = getattr(module, fname)
                if not (isinstance(fn, types.FunctionType) and fn.__module__ == module.__name__):
                    continue
                wrapper = self._span(f"{short}.{fname}", fn)
                for ns in namespaces:
                    for key, value in vars(ns).items():
                        if value is fn:
                            patches.append((ns, key, fn, wrapper))
        return patches

    def _operator_patches(self, tower) -> list[tuple]:
        targets = [
            (type(tower.one), {"__mul__": "L_mul", "__rmul__": "L_mul",
                               "inverse": "L_inverse", "theta": "theta"}),
        ]
        k_class = type(tower.scalar_field.one)
        if k_class is not Fraction:  # over Q there is no K-element class to count
            targets.append((k_class, {"__mul__": "K_mul", "__rmul__": "K_mul",
                                      "inverse": "K_inverse"}))
        return [
            (cls, attr, cls.__dict__[attr], self._operator(op, cls.__dict__[attr]))
            for cls, ops in targets
            for attr, op in ops.items()
        ]

    @contextmanager
    def active(self):
        for owner, key, _, wrapper in self._patches:
            setattr(owner, key, wrapper)
        try:
            yield self
        finally:
            for owner, key, original, _ in self._patches:
                setattr(owner, key, original)

    def _span(self, name: str, fn):
        spans, stack = self.spans, self._open

        def traced(*args, **kwargs):
            if self._in_op:
                return fn(*args, **kwargs)
            if not stack:
                self._root = name
            record = [name, 0, 0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            record[1] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = perf_counter_ns()
                stack.pop()
                if not stack:
                    self._root = ""
            if name == "exact_linalg.right_kernel":
                self.kernels.append((record[3], args[0], result))
            return result

        return traced

    def _operator(self, op: str, fn):
        calls, op_ns = self.calls, self.op_ns

        def counted(*args, **kwargs):
            key = (self._root, op)
            self._in_op += 1
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                op_ns[key] += perf_counter_ns() - start
                calls[key] += 1
                self._in_op -= 1

        return counted

    def parent_name(self, index: int) -> str:
        return self.spans[index][0] if index >= 0 else ""

    def totals(self, root: str) -> dict[str, list[int]]:
        """[calls, inclusive ns, self ns] per span name, over spans under ``root`` spans.

        Self time is a span's duration minus the durations of its direct
        children; spans nest, so the children never overlap.
        """
        own = [end - start for _, start, end, _ in self.spans]
        roots = []
        for i, (_, start, end, parent) in enumerate(self.spans):
            roots.append(i if parent < 0 else roots[parent])
            if parent >= 0:
                own[parent] -= end - start
        out: dict[str, list[int]] = {}
        for i, (name, start, end, _) in enumerate(self.spans):
            if self.spans[roots[i]][0] == root:
                entry = out.setdefault(name, [0, 0, 0])
                entry[0] += 1
                entry[1] += end - start
                entry[2] += own[i]
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "spans": self.spans,
            "operators": [
                {"root": root, "op": op, "calls": n, "ns": self.op_ns[(root, op)]}
                for (root, op), n in sorted(self.calls.items())
            ],
        }
        path.write_text(json.dumps(payload))
