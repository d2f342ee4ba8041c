"""Span tracer that wraps the program's layer functions from outside.

Nothing under ``src/`` knows about it: ``install`` rebinds every public
function of the layer modules to a timing wrapper, wherever a module
namespace (or a module-level dict, such as the CLI's subcommand table) holds
that function, and ``uninstall`` puts the originals back.  Spans are
(name, start, end, parent) rows kept in flat arrays and reduced to self
times only when asked, so a trial with ten thousand calls stays cheap.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array

import numpy as np

ROOT_LABEL = "trial"


class Tracer:
    def __init__(self, package: str, layers, observers=None):
        self.package = package
        self.observers = observers or {}
        self.labels = [ROOT_LABEL]
        self.name = array("q")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._patches = []
        # id(original) -> (original, wrapper); ids are stable because the
        # originals stay referenced here
        self._wrappers = {}
        for short in layers:
            module = sys.modules[f"{package}.{short}"]
            for attr, fn in vars(module).items():
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != module.__name__:
                    continue
                self._wrappers[id(fn)] = (fn, self._wrap(fn, f"{short}.{attr}"))

    def _wrap(self, fn, label: str):
        nid = len(self.labels)
        self.labels.append(label)
        observer = self.observers.get(label)
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if observer is not None:
                observer(args, kwargs, result)
            return result

        return traced

    def _lookup(self, value):
        entry = self._wrappers.get(id(value))
        return entry[1] if entry is not None and entry[0] is value else None

    def install(self) -> None:
        prefix = self.package + "."
        modules = [m for n, m in list(sys.modules.items())
                   if n == self.package or n.startswith(prefix)]
        for module in modules:
            namespace = vars(module)
            for attr, value in list(namespace.items()):
                wrapper = self._lookup(value)
                if wrapper is not None:
                    self._patches.append((namespace, attr, value))
                    namespace[attr] = wrapper
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        wrapper = self._lookup(item)
                        if wrapper is not None:
                            self._patches.append((value, key, item))
                            value[key] = wrapper

    def uninstall(self) -> None:
        for container, key, original in reversed(self._patches):
            container[key] = original
        self._patches.clear()

    def begin_trial(self) -> int:
        idx = len(self.start)
        self.name.append(0)
        self.parent.append(-1)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def end_trial(self, idx: int) -> float:
        self.end[idx] = time.perf_counter()
        self._stack.pop()
        return self.end[idx] - self.start[idx]

    def self_times(self):
        """Per label: (summed self seconds, call count).  A span's self time
        is its duration minus the durations of its direct children; the
        root label's self time is trial time spent outside every layer."""
        n_labels = len(self.labels)
        if not len(self.start):
            return {label: (0.0, 0) for label in self.labels}
        name = np.array(self.name, dtype=np.int64)
        parent = np.array(self.parent, dtype=np.int64)
        dur = np.array(self.end) - np.array(self.start)
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
        own = np.bincount(name, weights=dur - child, minlength=n_labels)
        calls = np.bincount(name, minlength=n_labels)
        return {label: (float(own[i]), int(calls[i]))
                for i, label in enumerate(self.labels)}

    def save(self, path) -> None:
        np.savez(
            path,
            labels=np.array(self.labels),
            name=np.array(self.name, dtype=np.int64),
            parent=np.array(self.parent, dtype=np.int64),
            start=np.array(self.start),
            end=np.array(self.end),
        )
