"""In-memory span tracer for the traced run.

``Tracer.install`` wraps every public function of the traced omcool modules
and rebinds the wrapper under every name that binds the function in any
loaded ``omcool`` module namespace.  Rebinding only the defining module would
miss calls made through an imported name, such as ``sweep.stability`` or the
``validate_config`` that ``model.build_drift_matrix`` calls.  ``uninstall``
restores the original bindings.

A span is [name, parent index, start ns, end ns, raised, iterations]; the
parent link gives each span's self time (its duration minus the time its
child spans cover).  Spans only nest correctly in one process, so the traced
run is serial.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

# The layers measured; ``atomic`` solves closed-form 3x3 / 4x4 problems in
# microseconds and no workload reaches it.
MODULES = ("model", "lyapunov", "darkmode", "sweep", "config_io", "results", "cli")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, time.perf_counter_ns(), 0, False, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[4] = True
                raise
            finally:
                span[3] = time.perf_counter_ns()
                stack.pop()
            span[5] = getattr(result, "iterations", None)
            return result

        return wrapper

    def install(self) -> None:
        wrappers = {}
        for modname, module in list(sys.modules.items()):
            if modname != "omcool" and not modname.startswith("omcool."):
                continue
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                owner = obj.__module__.rpartition(".")[2]
                if not obj.__module__.startswith("omcool.") or owner not in MODULES:
                    continue
                if obj not in wrappers:
                    wrappers[obj] = self._wrap(f"{owner}.{obj.__name__}", obj)
                setattr(module, attr, wrappers[obj])
                self._patched.append((module, attr, obj))

    def uninstall(self) -> None:
        for module, attr, obj in reversed(self._patched):
            setattr(module, attr, obj)
        self._patched.clear()

    def self_ns(self) -> list[int]:
        """Self time of every span."""
        child = [0] * len(self.spans)
        for name, parent, start, end, _, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [end - start - c for (_, _, start, end, _, _), c in zip(self.spans, child)]
