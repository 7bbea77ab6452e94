"""Outside-in tracer for the ``quantum_descent`` package.

The program is not edited: :func:`install` replaces the public functions of
each layer (plus the sweep's point boundary) with timing wrappers.  Modules
import names directly (``from .fields import polar_decompose``), so wrapping
only the defining module would miss ``dynamics.polar_decompose`` or
``learner.disruptor_field``; every binding of the original object in every
module of the package is replaced instead.  Methods are wrapped on their
class, which every caller shares.

A span records name, layer, wall start and end, the thread's CPU time at
start and end, parent span and thread.  Spans stay in memory until the run
ends; :func:`layer_metrics` then reduces them to the per-layer metrics.
``numpy.fft.fft`` and ``ifft`` are wrapped too, but only counted (flops,
bytes) when a propagator step is open in the calling thread.

Inclusive times are wall time.  Self (busy) times use the thread CPU clock:
the sweep computes its points in a thread pool, and under the interpreter
lock those threads overlap in wall time while only one runs, so wall-clock
self times would count lock waits as work.  A span's self time is its CPU
time minus that of its children in the same thread.
"""

from __future__ import annotations

import functools
import importlib
import math
import sys
import threading
import time
import warnings
from typing import Callable, NamedTuple

import numpy as np

PACKAGE = "quantum_descent"
# the span inside which numpy FFTs are counted
STEP_SPAN = "dynamics.KostinPropagator.step"


def _table_bytes(path) -> dict:
    return {"bytes": path.stat().st_size}


def _learner_updates(run) -> dict:
    return {"updates": len(run.t) - 1}


# (layer, module, attribute, annotate(result) -> dict or None); the span name
# is "module.attribute"
TARGETS = (
    ("cli", "cli", "main", None),
    ("config", "config", "load_config", None),
    ("config", "config", "parse_config", None),
    ("experiments", "experiments", "run_experiment", None),
    ("experiments", "experiments", "_run_sweep", None),
    ("experiments", "experiments", "_compute_point", None),
    ("learner", "learner", "run_learner", _learner_updates),
    ("learner", "learner", "run_momentum_gd", _learner_updates),
    ("learner", "learner", "FieldSampledDisruptor.sample", None),
    ("dynamics", "dynamics", "evolve", None),
    ("dynamics", "dynamics", "KostinPropagator.step", None),
    ("fields", "fields", "polar_decompose", None),
    ("derivatives", "derivatives", "first_derivative", None),
    ("derivatives", "derivatives", "second_derivative", None),
    ("derivatives", "derivatives", "central_from_increments", None),
    ("hydro", "hydro", "quantum_potential", None),
    ("hydro", "hydro", "disruptor_field", None),
    ("hydro", "hydro", "sample_field", None),
    ("output", "output", "write_table", _table_bytes),
    ("output", "output", "write_meta", None),
)


class Span(NamedTuple):
    name: str
    layer: str
    start: float
    end: float
    cpu: float          # thread CPU seconds spent inside the span
    parent: int | None  # index of the enclosing span in the same thread
    thread: int
    info: dict | None


class Tracer:
    """In-memory span store shared by every wrapped function of one process."""

    def __init__(self):
        self.spans: list = []
        self.counts: dict = {}
        self._lock = threading.Lock()
        self._local = threading.local()

    def count(self, name: str, n: float = 1) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + n

    def wrap(self, fn: Callable, name: str, layer: str,
             annotate: Callable | None = None) -> Callable:
        clock = time.perf_counter
        cpu_clock = time.thread_time
        local = self._local
        spans = self.spans
        lock = self._lock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            parent = stack[-1][0] if stack else None
            with lock:
                sid = len(spans)
                spans.append(None)
            stack.append((sid, name))
            cpu_start = cpu_clock()
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                cpu = cpu_clock() - cpu_start
                stack.pop()
                spans[sid] = Span(name, layer, start, end, cpu, parent,
                                  threading.get_ident(), None)
            if annotate is not None:
                spans[sid] = spans[sid]._replace(info=annotate(result))
            return result

        return traced

    def count_fft(self, fn: Callable) -> Callable:
        """Wrap a numpy FFT so that each call made inside an open propagator
        step of the same thread adds its flops (5 n log2 n) and the bytes of
        its input and output arrays to the counts."""
        local = self._local
        count = self.count

        @functools.wraps(fn)
        def counted(a, *args, **kwargs):
            out = fn(a, *args, **kwargs)
            stack = getattr(local, "stack", None)
            if stack and any(name == STEP_SPAN for _, name in stack):
                count("fft_flops", 5.0 * out.size * math.log2(out.size))
                count("fft_bytes", a.nbytes + out.nbytes)
            return out

        return counted


def install(tracer: Tracer):
    """Wrap every target at every binding; returns the package's ``cli`` module."""
    cli = importlib.import_module(f"{PACKAGE}.cli")
    modules = [m for n, m in sorted(sys.modules.items())
               if n == PACKAGE or n.startswith(PACKAGE + ".")]
    for layer, module, attr, annotate in TARGETS:
        owner = sys.modules[f"{PACKAGE}.{module}"]
        name = f"{module}.{attr}"
        if "." in attr:
            cls_name, method = attr.split(".")
            cls = getattr(owner, cls_name)
            setattr(cls, method, tracer.wrap(cls.__dict__[method], name, layer, annotate))
            continue
        original = getattr(owner, attr)
        wrapped = tracer.wrap(original, name, layer, annotate)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)
    # the program calls np.fft.fft / np.fft.ifft through the module attribute
    for attr in ("fft", "ifft"):
        setattr(np.fft, attr, tracer.count_fft(getattr(np.fft, attr)))
    return cli


def count_node_warnings(tracer: Tracer) -> None:
    """Count every NodeDominatedWarning instead of printing the first one."""
    category = importlib.import_module(f"{PACKAGE}.errors").NodeDominatedWarning
    warnings.simplefilter("always", category)
    show = warnings.showwarning

    def counting_show(message, cat, *args, **kwargs):
        if issubclass(cat, category):
            tracer.count("fields.node_warnings")
        else:
            show(message, cat, *args, **kwargs)

    warnings.showwarning = counting_show


def self_times(spans: list) -> list:
    """Per span: its thread CPU time minus that of its direct children."""
    selfs = [s.cpu for s in spans]
    for s in spans:
        if s.parent is not None:
            selfs[s.parent] -= s.cpu
    return selfs


def layer_metrics(tracer: Tracer) -> dict:
    """Reduce the recorded spans to the per-layer metrics of one run."""
    spans = tracer.spans
    selfs = self_times(spans)
    calls: dict = {}
    inclusive: dict = {}
    self_by_name: dict = {}
    layer_self: dict = {}
    for s, st in zip(spans, selfs):
        calls[s.name] = calls.get(s.name, 0) + 1
        inclusive[s.name] = inclusive.get(s.name, 0.0) + (s.end - s.start)
        self_by_name[s.name] = self_by_name.get(s.name, 0.0) + st
        layer_self[s.layer] = layer_self.get(s.layer, 0.0) + st

    def n(name):
        return calls.get(name, 0)

    def t(name):
        return inclusive.get(name, 0.0)

    def ratio(a, b):
        return a / b if b else 0.0

    steps = n(STEP_SPAN)
    counts = tracer.counts
    updates = sum(s.info["updates"] for s in spans
                  if s.name in ("learner.run_learner", "learner.run_momentum_gd"))
    out_bytes = sum(s.info["bytes"] for s in spans if s.name == "output.write_table")
    derivative_names = ("derivatives.first_derivative", "derivatives.second_derivative",
                        "derivatives.central_from_increments")
    points = [s for s in spans if s.name == "experiments._compute_point"]
    run_start = min((s.start for s in spans if s.name == "experiments.run_experiment"),
                    default=0.0)
    parallel_wall = (max(p.end for p in points) - min(p.start for p in points)) if points else 0.0
    write_s = t("output.write_table")
    return {
        "dynamics.steps": steps,
        "dynamics.step_s": t(STEP_SPAN),
        "dynamics.step_us": 1e6 * ratio(t(STEP_SPAN), steps),
        "dynamics.evolve_self_s": self_by_name.get("dynamics.evolve", 0.0),
        "dynamics.fft_flops.computed": ratio(counts.get("fft_flops", 0.0), steps),
        "dynamics.bytes.computed": ratio(counts.get("fft_bytes", 0), steps),
        "fields.polar_calls": n("fields.polar_decompose"),
        "fields.polar_s": t("fields.polar_decompose"),
        "fields.polar_per_step": ratio(n("fields.polar_decompose"), steps),
        "fields.node_warnings": counts.get("fields.node_warnings", 0),
        "derivatives.calls": sum(n(d) for d in derivative_names),
        "derivatives.s": sum(t(d) for d in derivative_names),
        "hydro.disruptor_calls": n("hydro.disruptor_field"),
        "hydro.disruptor_s": t("hydro.disruptor_field"),
        "hydro.sample_calls": n("hydro.sample_field"),
        "learner.updates": updates,
        "learner.self_s": layer_self.get("learner", 0.0),
        "learner.update_us": 1e6 * ratio(layer_self.get("learner", 0.0), updates),
        "learner.dis_samples": n("learner.FieldSampledDisruptor.sample"),
        "experiments.self_s": layer_self.get("experiments", 0.0),
        "experiments.points": len(points),
        "experiments.concurrency": ratio(sum(p.cpu for p in points), parallel_wall),
        "experiments.point_wait_s": ratio(sum(p.start - run_start for p in points), len(points)),
        "output.tables": n("output.write_table"),
        "output.bytes": out_bytes,
        "output.write_s": write_s,
        "output.mb_per_s": ratio(out_bytes / 1e6, write_s),
        "config.load_s": t("config.load_config"),
        "cli.main_s": t("cli.main"),
    }
