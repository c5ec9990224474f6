"""Spans around holo_lab's public callables, installed at runtime from outside src/.

`Tracer.install()` discovers every imported `holo_lab` module, wraps each
function listed in the module's `__all__` (plus `OperatorFunction.__call__`
and the `__init__` of classes listed there), and rebinds the wrapper in every
`holo_lab` module namespace that binds the original.  Functions added or
removed later are picked up without editing this file.  Calls through a
reference captured at import time (a default argument, a dict value) are not
seen; their time counts as the caller's self time.

A span records its name, start, end, parent span and job id.  Spans stay in
flat in-memory arrays until the run ends.
"""
from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array

import numpy as np

LAYERS = ("cli", "disc", "operators", "rigidity", "herglotz", "factorization", "shiftsim")


class Tracer:
    def __init__(self):
        self._name_ids = {}  # span name -> id, in id order
        self.name_col = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.job = array("i")
        self.current_job = -1
        self._stack = []
        self._undo = []

    @property
    def names(self):
        return list(self._name_ids)

    def _wrap(self, fn, name):
        nid = self._name_ids.setdefault(name, len(self._name_ids))
        name_col, start, end, parent, job, stack = (
            self.name_col, self.start, self.end, self.parent, self.job, self._stack)
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name_col.append(nid)
            parent.append(stack[-1] if stack else -1)
            job.append(tracer.current_job)
            stack.append(idx)
            end.append(0.0)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        return traced

    def install(self):
        modules = [m for n, m in sorted(sys.modules.items()) if n == "holo_lab" or n.startswith("holo_lab.")]
        wrappers = {}  # original function -> wrapper
        for mod in modules:
            layer = mod.__name__.rpartition(".")[2]
            for attr in getattr(mod, "__all__", ()):
                obj = getattr(mod, attr, None)
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    wrappers[obj] = self._wrap(obj, f"{layer}.{attr}")
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    methods = {"__init__": f"{layer}.{attr}.__init__"}
                    if attr == "OperatorFunction":
                        methods["__call__"] = f"{layer}.{attr}"
                    for meth, name in methods.items():
                        if meth in vars(obj):
                            original = vars(obj)[meth]
                            setattr(obj, meth, self._wrap(original, name))
                            self._undo.append((obj, meth, original))
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(mod, attr, wrappers[obj])
                    self._undo.append((mod, attr, obj))

    def uninstall(self):
        for target, attr, original in reversed(self._undo):
            setattr(target, attr, original)
        self._undo.clear()

    def arrays(self):
        """Spans as numpy columns: name id, start, end, parent index (-1 for roots), job id."""
        return (np.frombuffer(self.name_col, dtype=np.int32).copy(),
                np.frombuffer(self.start, dtype=np.float64).copy(),
                np.frombuffer(self.end, dtype=np.float64).copy(),
                np.frombuffer(self.parent, dtype=np.int64).copy(),
                np.frombuffer(self.job, dtype=np.int32).copy())

    def summary(self):
        """Per span name: (calls, self seconds); self = duration minus the child spans' durations.

        Spans nest (one thread), so child spans never overlap one another.
        """
        name, start, end, parent, _ = self.arrays()
        dur = end - start
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_time = dur - child
        calls = np.bincount(name, minlength=len(self.names))
        self_s = np.bincount(name, weights=self_time, minlength=len(self.names))
        return {n: (int(calls[i]), float(self_s[i])) for i, n in enumerate(self.names)}

    def calls_in_jobs(self, span_name, job_ids):
        """Number of `span_name` spans recorded while one of `job_ids` ran."""
        if span_name not in self._name_ids:
            return 0
        name, _, _, _, job = self.arrays()
        return int(np.count_nonzero((name == self._name_ids[span_name]) & np.isin(job, list(job_ids))))

    def save(self, path):
        name, start, end, parent, job = self.arrays()
        np.savez(path, names=np.array(self.names), name=name, start=start, end=end, parent=parent, job=job)
