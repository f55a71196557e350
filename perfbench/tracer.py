"""Per-layer tracing from outside the program.

The layers are spinorlab's computational modules. ``Tracer.install``
rebinds every public module-level function of each layer, in every
``spinorlab.*`` namespace that holds it, to a wrapper that records a span
(name, parent span, start, end). Intra-module calls go through the module
globals, so they are traced too. ``HyperquadricModel.__init__`` is traced
as ``model_space.HyperquadricModel``; its ``select_patch`` and
``tangent_frame`` methods are only counted. ``Matrix`` methods are not
wrapped: their time stays in the calling function's self time.

A span's self time is its duration minus the durations of its direct
child spans, so every traced instant is charged to exactly one function,
and a nested call into the same layer is counted once, under the callee.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

LAYERS = (
    "exact_linalg",
    "clifford_core",
    "admissible_forms",
    "brackets",
    "subspace_lab",
    "cone_split",
    "model_space",
    "serialize",
)

# Functions whose input matrices are measured: cells = rows x cols of the
# first argument, nonint_inputs = calls whose input holds a non-int entry.
_ELIMINATIONS = ("rank", "kernel", "solve")
_COUNTED_METHODS = ("select_patch", "tangent_frame")


def public_functions(module):
    """(name, function) for each public function defined in ``module``."""
    return [
        (name, obj)
        for name, obj in vars(module).items()
        if not name.startswith("_")
        and callable(obj)
        and not isinstance(obj, type)
        and getattr(obj, "__module__", None) == module.__name__
    ]


def _has_nonint(rows):
    return any(type(x) is not int for row in rows for x in row)


class Tracer:
    def __init__(self):
        self.spans = []  # [name, parent index or -1, start, end]
        self.counters = {}
        self._stack = []
        self.wrapped = []  # qualified names of everything wrapped

    def count(self, name, amount=1):
        self.counters[name] = self.counters.get(name, 0) + amount

    def wrap(self, name, fn, before=None, after=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(args)
            index = len(spans)
            span = [name, stack[-1] if stack else -1, clock(), 0.0]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[3] = clock()
            if after is not None:
                after(result)
            return result

        self.wrapped.append(name)
        return traced

    def _hooks(self, layer, name):
        qual = f"{layer}.{name}"
        if layer == "exact_linalg" and name in _ELIMINATIONS:
            def before(args):
                matrix = args[0]
                self.count(f"{qual}.cells", matrix.rows * matrix.cols)
                extra = [args[1]] if len(args) > 1 else []
                if _has_nonint(matrix.data) or _has_nonint(extra):
                    self.count(f"{qual}.nonint_inputs")
            return before, None
        if qual == "subspace_lab.spin45_search":
            def after(report):
                self.count(f"{qual}.found", int(report.found))
                self.count(f"{qual}.trials_used", report.trials_used)
            return None, after
        return None, None

    def install(self):
        """Wrap every layer's public functions in all spinorlab namespaces."""
        namespaces = [
            m for n, m in list(sys.modules.items())
            if m is not None and (n == "spinorlab" or n.startswith("spinorlab."))
        ]
        for layer in LAYERS:
            module = importlib.import_module(f"spinorlab.{layer}")
            for name, fn in public_functions(module):
                before, after = self._hooks(layer, name)
                traced = self.wrap(f"{layer}.{name}", fn, before, after)
                for ns in namespaces:
                    for key, value in list(vars(ns).items()):
                        if value is fn:
                            setattr(ns, key, traced)
        model_cls = importlib.import_module("spinorlab.model_space").HyperquadricModel
        model_cls.__init__ = self.wrap("model_space.HyperquadricModel", model_cls.__init__)
        for method in _COUNTED_METHODS:
            setattr(model_cls, method, self._counted(
                f"model_space.HyperquadricModel.{method}", getattr(model_cls, method)))

    def _counted(self, name, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.count(f"{name}.calls")
            return fn(*args, **kwargs)

        self.wrapped.append(name)
        return counted

    def layer_totals(self):
        """{qualified name: {"calls", "self_s"}} from the recorded spans."""
        child_time = [0.0] * len(self.spans)
        for name, parent, start, end in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals = {}
        for (name, _, start, end), inner in zip(self.spans, child_time):
            entry = totals.setdefault(name, {"calls": 0, "self_s": 0.0})
            entry["calls"] += 1
            entry["self_s"] += (end - start) - inner
        return totals
