"""Spans and counters recorded around calls into atomspa's public functions.

The tracer wraps module attributes while it is on, so the lab itself is not
changed: a traced job runs the same code as an untraced one, plus one
perf_counter pair per wrapped call.  Field operations are too frequent for a
span each; they are counted (calls and summed time) instead.
"""

import time
from contextlib import contextmanager

from atomspa import atoms, leakage, sched, spa
from atomspa.field import PrimeField

clock = time.perf_counter

# (module, attribute) pairs wrapped in a span named "<layer>.<attribute>"
SPANNED = [
    (atoms, "scalar_for_pattern_counts"),
    (atoms, "k_mul"),
    (atoms, "reference_k_mul"),
    (sched, "build_schedules"),
    (leakage, "simulate_trace"),
    (leakage, "write_trace"),
    (leakage, "read_trace"),
    (spa, "run_attack"),
    (spa, "segment"),
    (spa, "mean_pattern"),
    (spa, "classify_matrix"),
    (spa, "correctness_curve"),
    (spa, "write_report"),
]
FIELD_OPS = ("add", "sub", "mul", "inv")


class Tracer:
    """In-memory spans [name, start, end, parent index, job] and field counts.

    Times are seconds since the tracer was made.  While the tracer is off,
    span() records nothing and no function is wrapped.
    """

    def __init__(self):
        self.t0 = clock()
        self.spans = []
        self.field = {op: [0, 0.0] for op in FIELD_OPS}   # calls, seconds
        self.job = None
        self._stack = []
        self._saved = []

    @contextmanager
    def span(self, name):
        if not self._saved:
            yield
            return
        rec = [name, clock() - self.t0, None,
               self._stack[-1] if self._stack else None, self.job]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[2] = clock() - self.t0
            self._stack.pop()

    def _spanned(self, name, fn):
        def wrapped(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return wrapped

    def _counted(self, acc, fn):
        def wrapped(*args):
            t = clock()
            out = fn(*args)
            acc[1] += clock() - t
            acc[0] += 1
            return out
        return wrapped

    def start(self):
        if self._saved:
            return
        for mod, attr in SPANNED:
            fn = getattr(mod, attr)
            layer = mod.__name__.rsplit(".", 1)[-1]
            self._saved.append((mod, attr, fn))
            setattr(mod, attr, self._spanned(f"{layer}.{attr}", fn))
        for op in FIELD_OPS:
            fn = getattr(PrimeField, op)
            self._saved.append((PrimeField, op, fn))
            setattr(PrimeField, op, self._counted(self.field[op], fn))

    def stop(self):
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved.clear()

    def field_snapshot(self):
        return {op: tuple(v) for op, v in self.field.items()}
