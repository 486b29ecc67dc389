"""Spans and counters around retrodyn's public functions.

The tracer patches the package from outside: each function is replaced
by a wrapper in every ``retrodyn`` module that holds it, because the
package binds names with ``from .x import y`` and patching only the
defining module would miss those calls.  Methods are patched on their
class.  ``uninstall`` puts every original back.

A span records the wall time and the thread CPU time of one call.  Its
self time is its CPU time minus that of the spans it called on the same
thread.  CPU time, not wall time, because the sweep evaluates cells on
a thread pool: a cell's wall time also counts the time it waited for
the interpreter lock while other cells ran.  Small helpers (the vector
field, the cubic, the Volterra term, ...) get no span, so their time
counts toward the caller.  The hot kernels ``_rhs`` and ``_rk4`` and the
W evaluations get counting-only wrappers.
"""

from __future__ import annotations

import importlib
import itertools
import sys
import threading
from collections import defaultdict
from time import perf_counter, thread_time

SPANS = {
    "cli": ("main", "load_config"),
    "equilibria": ("inner_equilibrium", "boundary_equilibria", "all_equilibria"),
    "stability": ("classify_equilibrium",),
    "lyapunov": ("search_coeffs", "condition4"),
    "integrator": ("integrate", "lyapunov_trace", "Trajectory.write_csv"),
    "sweep": ("stability_map", "evaluate_cell", "find_alpha_margin", "SweepResult.write_csv"),
}

COUNTS = {
    "model": ("_rhs", "jacobian"),
    "integrator": ("_rk4",),
    "lyapunov": ("w_value", "w_dot"),
}

MARGIN = "sweep.find_alpha_margin"


class _Count:
    """Thread-safe hit counter: ``next`` on itertools.count is atomic
    under the interpreter lock, where ``n += 1`` is not."""

    def __init__(self):
        self._it = itertools.count()
        self._reads = 0
        self.hit = self._it.__next__

    def value(self) -> int:
        value = next(self._it) - self._reads
        self._reads += 1
        return value


class RequestTrace:
    """What the spans and counters saw during one request."""

    def __init__(self):
        self.self_cpu = defaultdict(float)
        self.incl_cpu = defaultdict(float)
        self.incl_wall = defaultdict(float)
        self.calls = defaultdict(int)
        self.found = defaultdict(int)  # calls that returned a result
        self.counts = {}
        self.margin_probes = 0
        self.steps_accepted = 0
        self.steps_attempted = 0
        self.csv_bytes = 0


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patched = []
        self._counters = {}
        self._start_counts = {}
        self.current = RequestTrace()

    # -- request boundaries (called between requests, on the main thread)

    def begin(self):
        self.current = RequestTrace()
        self._start_counts = {name: c.value() for name, c in self._counters.items()}

    def end(self) -> RequestTrace:
        trace = self.current
        trace.counts = {
            name: c.value() - self._start_counts[name] for name, c in self._counters.items()
        }
        return trace

    # -- installation

    def install(self):
        for short, names in SPANS.items():
            module = importlib.import_module("retrodyn." + short)
            for name in names:
                self._patch(module, name, self._span(f"{short}.{name}", _resolve(module, name)))
        for short, names in COUNTS.items():
            module = importlib.import_module("retrodyn." + short)
            for name in names:
                count = self._counters[f"{short}.{name}"] = _Count()
                self._patch(module, name, _counting(getattr(module, name), count.hit))

    def uninstall(self):
        for holder, attr, original in reversed(self._patched):
            setattr(holder, attr, original)
        self._patched.clear()

    def _patch(self, module, name, wrapper):
        if "." in name:
            cls_name, attr = name.split(".")
            holder = getattr(module, cls_name)
            self._patched.append((holder, attr, holder.__dict__[attr]))
            setattr(holder, attr, wrapper)
            return
        original = getattr(module, name)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "retrodyn" and not mod_name.startswith("retrodyn."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patched.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    # -- wrappers

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _span(self, name: str, fn):
        before, after = _HOOKS.get(name, (None, None))
        tracer = self

        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            state = before(tracer, args, kwargs) if before else None
            frame = [name, 0.0]  # name, CPU time of child spans
            stack.append(frame)
            w0, c0 = perf_counter(), thread_time()
            try:
                result = fn(*args, **kwargs)
            finally:
                cpu = thread_time() - c0
                wall = perf_counter() - w0
                stack.pop()
                if stack:
                    stack[-1][1] += cpu
                with tracer._lock:
                    trace = tracer.current
                    trace.self_cpu[name] += cpu - frame[1]
                    trace.incl_cpu[name] += cpu
                    trace.incl_wall[name] += wall
                    trace.calls[name] += 1
            if after:
                after(tracer, state, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper


def _resolve(module, name):
    if "." in name:
        cls_name, attr = name.split(".")
        return getattr(module, cls_name).__dict__[attr]
    return getattr(module, name)


def _counting(fn, hit):
    def wrapper(*args, **kwargs):
        hit()
        return fn(*args, **kwargs)

    wrapper.__wrapped__ = fn
    return wrapper


# -- per-function hooks: (before, after); ``before`` returns a state
#    handed to ``after``.


def _inner_after(tracer, state, args, kwargs, result):
    in_margin = any(frame[0] == MARGIN for frame in tracer._stack())
    with tracer._lock:
        if result is not None:
            tracer.current.found["equilibria.inner_equilibrium"] += 1
        if in_margin:
            tracer.current.margin_probes += 1


def _search_after(tracer, state, args, kwargs, result):
    if result is not None:
        with tracer._lock:
            tracer.current.found["lyapunov.search_coeffs"] += 1


def _integrate_before(tracer, args, kwargs):
    return tracer._counters["integrator._rk4"].value()


def _integrate_after(tracer, rk4_before, args, kwargs, result):
    opts = args[2] if len(args) > 2 else kwargs["opts"]
    rk4_calls = tracer._counters["integrator._rk4"].value() - rk4_before
    per_attempt = 3 if opts.mode.value == "adaptive" else 1
    tracer.current.steps_accepted += len(result.times) - 1
    tracer.current.steps_attempted += rk4_calls // per_attempt


def _csv_before(tracer, args, kwargs):
    stream = args[1] if len(args) > 1 else kwargs["stream"]
    return stream.tell()


def _csv_after(tracer, start, args, kwargs, result):
    stream = args[1] if len(args) > 1 else kwargs["stream"]
    tracer.current.csv_bytes += stream.tell() - start


_HOOKS = {
    "equilibria.inner_equilibrium": (None, _inner_after),
    "lyapunov.search_coeffs": (None, _search_after),
    "integrator.integrate": (_integrate_before, _integrate_after),
    "integrator.Trajectory.write_csv": (_csv_before, _csv_after),
}
