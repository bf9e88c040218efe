"""Span tracer that wraps cellsim's public functions from outside the package.

``Tracer.install`` replaces every alias of each target -- the defining
module's attribute, the package-level re-export, and any ``from x import y``
copy in a sibling module -- with a wrapper that records one span per call.
``Tracer.uninstall`` puts the original objects back.  Spans stay in memory as
parallel lists (name, start, end, parent) and are written only on request,
after the measured passes.
"""

from __future__ import annotations

import functools
import time

import numpy as np


class Tracer:
    """Records nested call spans for a fixed set of wrapped callables."""

    def __init__(self):
        self._patches = []  # (owner, attribute, original)
        self._stack = []
        self.names: list[str] = []
        self.start: list[int] = []
        self.end: list[int] = []
        self.parent: list[int] = []

    # -- wrapping ------------------------------------------------------

    def _wrap(self, fn, name):
        """Wrapper recording a span named ``name``, or ``name(args, kwargs)``
        when ``name`` is callable (used to bucket calls by argument shape)."""
        names, start, end, parent = self.names, self.start, self.end, self.parent
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(start)
            names.append(name(args, kwargs) if callable(name) else name)
            parent.append(stack[-1] if stack else -1)
            end.append(0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        return wrapper

    def install(self, functions, methods, modules) -> None:
        """Wrap ``functions`` ((original, span name) pairs) under every module
        attribute in ``modules`` that refers to them, and ``methods``
        ((class, attribute, span name) triples) on their classes."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        for original, name in functions:
            wrapper = self._wrap(original, name)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, attr, original))
                        setattr(module, attr, wrapper)
        for cls, attr, name in methods:
            original = vars(cls)[attr]
            self._patches.append((cls, attr, original))
            setattr(cls, attr, self._wrap(original, name))

    def uninstall(self) -> bool:
        """Restore every original; True when each attribute is the original
        object again."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        restored = all(vars(owner)[attr] is original
                       for owner, attr, original in self._patches)
        self._patches = []
        return restored

    # -- analysis ------------------------------------------------------

    def summary(self) -> dict:
        """Per span name: call count, inclusive and self nanoseconds, and
        the inclusive duration of every call.

        Self time is a span's duration minus the durations of its direct
        children, which are nested inside it.
        """
        n = len(self.start)
        dur = np.asarray(self.end, dtype=np.int64) - np.asarray(self.start, dtype=np.int64)
        parent = np.asarray(self.parent, dtype=np.int64)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        self_ns = dur - child
        out: dict = {}
        names = np.asarray(self.names)
        for name in dict.fromkeys(self.names):
            mask = names == name
            out[name] = {"calls": int(mask.sum()), "total_ns": int(dur[mask].sum()),
                         "self_ns": float(self_ns[mask].sum()), "durations_ns": dur[mask]}
        return out

    def write_spans(self, path) -> None:
        """Write the recorded spans as CSV, times relative to the first span."""
        t0 = self.start[0] if self.start else 0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index,name,start_ns,end_ns,parent\n")
            for i, (name, s, e, p) in enumerate(zip(self.names, self.start,
                                                    self.end, self.parent)):
                fh.write(f"{i},{name},{s - t0},{e - t0},{p}\n")
