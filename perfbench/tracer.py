"""Span tracing from outside the program, used by child.py in traced runs.

install() wraps every public function (a module-level function without a
leading underscore, defined by a causalatom module) in every causalatom
namespace that binds it, so calls through `from .x import f` are traced as
well as calls through the defining module.  mpmath.lu_solve is wrapped too,
if the program has imported mpmath by then, to count the factorizations of
the series fit.  Spans stay in memory as [name, start, end, parent index,
count] and are written once, by dump().
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

PACKAGE = "causalatom"


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self.counters = {"lu_distinct": 0, "ww_sample_bytes": 0}
        self._matrices = set()

    def wrap(self, name, fn, count=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, time.monotonic(), 0.0, stack[-1] if stack else -1, 0]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = time.monotonic()
                stack.pop()
            if count is not None:
                rec[4] = count(args, kwargs, out)
            return out

        return traced

    def _count_lu(self, args, kwargs, out):
        key = tuple(tuple(row) for row in args[0].tolist())
        if key not in self._matrices:
            self._matrices.add(key)
            self.counters["lu_distinct"] += 1
        return 1

    def _count_mode_steps(self, args, kwargs, out):
        detunings, n_steps, stride = args[0], args[3], args[4]
        n_modes = len(detunings)
        # ck_out (complex128 per mode) plus ce_out, norm_out and t_out per sample
        self.counters["ww_sample_bytes"] += (n_steps // stride) * (16 * n_modes + 32)
        return n_modes * n_steps

    def dump(self) -> dict:
        return {"spans": self.spans, "counters": self.counters}


def _count_evaluations(args, kwargs, out):
    return out.evaluations


def install() -> Tracer:
    tracer = Tracer()
    counts = {"numerics.integrate_adaptive": _count_evaluations,
              "_ww_kernels.evolve_amplitudes": tracer._count_mode_steps}
    modules = [m for n, m in sorted(sys.modules.items())
               if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
    for mod in modules:
        short = mod.__name__.rpartition(".")[2]
        for name, fn in list(vars(mod).items()):
            if (name.startswith("_") or not inspect.isfunction(fn)
                    or fn.__module__ != mod.__name__):
                continue
            span = f"{short}.{name}"
            traced = tracer.wrap(span, fn, counts.get(span))
            for other in modules:
                for attr, value in list(vars(other).items()):
                    if value is fn:
                        setattr(other, attr, traced)
    mpmath = sys.modules.get("mpmath")
    if mpmath is not None:
        mpmath.lu_solve = tracer.wrap("mpmath.lu_solve", mpmath.lu_solve, tracer._count_lu)
    return tracer
