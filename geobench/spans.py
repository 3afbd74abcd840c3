"""Spans around the public functions of each geodrive layer, installed from here.

A span records name, start, end, parent, thread and the op it belongs to,
plus the Hamiltonian evaluations that ODE solves on its thread made while it
was open: the ``nfev`` of every solve through ``operators._integrate``, where
each right-hand-side evaluation builds H(t) once.  The count does not depend
on how H(t) is built.  Spans stay in memory and are written as JSON lines
when the run ends.

A span opened on a worker thread with nothing open on that thread takes the
innermost open span of the client thread as its parent: the client is
blocked in the call that started the pool.
"""

from __future__ import annotations

import functools
import itertools
import json
import statistics
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass

TRACED = {
    "curves": ("curve_from_expressions", "read_curve_table", "reparametrize_by_arclength",
               "check_boundary_conditions", "curvature_torsion"),
    "schedules": ("synthesize", "write_schedule_csv", "roundtrip_deviation", "noise_term"),
    "operators": ("propagate_operator", "propagate_state"),
    "simulate": ("run_schrodinger", "run_lindblad", "sweep_delta", "overlap_fidelity",
                 "infidelity_scaling_exponent"),
    "invariants": ("angles_from_schedule", "perturbative_fidelity", "noise_suppression_term"),
    "baselines": ("srt_schedule", "stirap_schedule", "sta_schedule"),
    "scenarios": ("load_scenario", "geometric_pipeline"),
}
COUNTED = ("schedules.roundtrip_deviation", "schedules.noise_term",
           "operators.propagate_operator", "operators.propagate_state",
           "simulate.run_schrodinger", "simulate.run_lindblad", "simulate.overlap_fidelity",
           "invariants.angles_from_schedule", "invariants.perturbative_fidelity",
           "invariants.noise_suppression_term", "baselines.srt_schedule")
CLI_COMMANDS = ("validate-curve", "synthesize", "run", "sweep")
OP_METRIC = "traced.op_p50_s"

#: every per-layer metric with its unit, in BENCHMARK.json order
LAYER_METRICS = (
    [(f"{module}.{name}.s", "s") for module, names in TRACED.items() for name in names]
    + [(f"{name}.h_evals", "count") for name in COUNTED]
    + [(f"cli.{command}.self_s", "s") for command in CLI_COMMANDS]
    + [(OP_METRIC, "s")]
)


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int
    op: int | None
    h_evals: int


class _ThreadState(threading.local):
    def __init__(self):
        self.stack = []
        self.h_evals = 0


class Tracer:
    """Span recorder; create it on the client thread."""

    def __init__(self):
        self.spans = []
        self._ids = itertools.count()
        self._state = _ThreadState()
        self._client_stack = self._state.stack
        self._op = None

    @contextmanager
    def span(self, name):
        state = self._state
        stack = state.stack
        if stack:
            parent = stack[-1]
        else:
            parent = self._client_stack[-1] if self._client_stack else None
        span_id = next(self._ids)
        stack.append(span_id)
        h_start = state.h_evals
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(Span(span_id, name, start, end, parent, threading.get_ident(),
                                   self._op, state.h_evals - h_start))

    @contextmanager
    def op(self, index):
        self._op = index
        try:
            with self.span("op"):
                yield
        finally:
            self._op = None

    def _wrap(self, name, func):
        @functools.wraps(func)
        def traced(*args, **kwargs):
            with self.span(name):
                return func(*args, **kwargs)
        return traced

    def install(self):
        """Wrap the TRACED functions, and the ODE driver ``operators._integrate``
        whose solves are counted, wherever a geodrive module binds them."""
        modules = [m for name, m in list(sys.modules.items())
                   if name == "geodrive" or name.startswith("geodrive.")]

        def rebind(original, wrapped):
            for m in modules:
                for attr in [a for a, v in vars(m).items() if v is original]:
                    setattr(m, attr, wrapped)

        for module_name, names in TRACED.items():
            module = sys.modules[f"geodrive.{module_name}"]
            for name in names:
                original = getattr(module, name)
                rebind(original, self._wrap(f"{module_name}.{name}", original))
        integrate = sys.modules["geodrive.operators"]._integrate
        rebind(integrate, self._counting(integrate))

    def _counting(self, integrate):
        """Add each solve's right-hand-side evaluations to its thread's count."""
        state = self._state

        @functools.wraps(integrate)
        def counted(*args, **kwargs):
            sol = integrate(*args, **kwargs)
            state.h_evals += int(sol.nfev)
            return sol
        return counted

    def write_jsonl(self, path):
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span)) + "\n")


def self_time(span, children):
    """Span duration minus the part of it that its children's intervals cover."""
    covered = 0.0
    reach = span.start
    for child in sorted(children, key=lambda c: c.start):
        lo, hi = max(child.start, reach), min(child.end, span.end)
        if hi > lo:
            covered += hi - lo
            reach = hi
    return (span.end - span.start) - covered


def layer_metrics(spans, n_ops):
    """Per-layer metrics: for each op, the sum of each name over the op's
    spans; then the median over the ops that opened such a span, or 0 when
    none did.  A function that only some ops call (the table reader, say)
    is thus reported by the ops that call it."""
    per_op = [{} for _ in range(n_ops)]
    children = {}
    for span in spans:
        children.setdefault(span.parent, []).append(span)

    def add(sums, name, value):
        sums[name] = sums.get(name, 0.0) + value

    for span in spans:
        if span.op is None:
            continue
        sums = per_op[span.op]
        if span.name == "op":
            sums[OP_METRIC] = span.end - span.start
        elif span.name.startswith("cli."):
            add(sums, f"{span.name}.self_s", self_time(span, children.get(span.id, ())))
        else:
            add(sums, f"{span.name}.s", span.end - span.start)
            if span.name in COUNTED:
                add(sums, f"{span.name}.h_evals", span.h_evals)
    metrics = {}
    for name, unit in LAYER_METRICS:
        values = [sums[name] for sums in per_op if name in sums]
        metrics[name] = {"value": statistics.median(values) if values else 0.0, "unit": unit}
    return metrics
