"""Fixed double-exponential quadrature on a nested ladder of steps.

A double-exponential (DE) rule maps an integral onto the whole real line so
that the transformed integrand decays double-exponentially in t, and sums it
with the trapezoidal rule of step h (Takahasi and Mori, Publ. RIMS 9, 1974;
Bailey, Jeyabalan and Li, Exp. Math. 14, 2005).  On an integrand analytic
inside its interval, whatever it does at the ends, the error falls like
exp(-c/h), so halving h roughly squares the relative error.

Two maps are used:
  tanh-sinh  s(t) = (1 + tanh(pi/2 sinh t))/2 in (0, 1), for a finite
             interval, cut at |t| <= 3.6;
  exp-sinh   x(t) = exp(pi/2 sinh t) in (0, inf), for a semi-infinite one,
             cut at -4.1 <= t <= 4.2 (x from 2.6e-21 to 5e22; cut at 3.0 it
             drops the last 1e-7 of a 1/x^2 tail).
The weights are ds/dt and dx/dt; the step h multiplies the sums.

The ladder starts from the nodes t = k/8 and adds the odd multiples of
1/16, 1/32 and 1/64 in turn.  The rule of step h holds every node of the
rule of step 2h, so I_2h, the comparison of the error estimate
|I_h - I_2h|, is the sum over I_h's even nodes and costs no evaluation.
Everything is pure and deterministic: the sums of an integral are
reductions along its own row, so it gets the same floats alone or in a
batch.
"""

from __future__ import annotations

import functools
import math

import numpy as np

__all__ = ["STEPS", "check_tol", "exp_sinh", "ladder", "tanh_sinh"]

BASE = 8                   # 1/h of the first sums, which never end an integral
STEPS = (16, 32, 64)       # 1/h of the steps at which an integral may end
# the rounding noise of a sum, per unit of the sum of its terms' magnitudes
NOISE = 64 * np.finfo(float).eps


def _added(n: int, lo: float, hi: float) -> np.ndarray:
    """The t = k/n in [lo, hi] that step 1/n adds: all of them at the base
    step, the odd multiples of 1/n after it."""
    k = np.arange(math.ceil(lo * n), math.floor(hi * n) + 1)
    return (k if n == BASE else k[k % 2 == 1]) / n


def _frozen(*arrays):
    for a in arrays:
        a.setflags(write=False)
    return arrays


@functools.cache
def tanh_sinh(n: int):
    """(s, w): the tanh-sinh nodes s in (0, 1) that step 1/n adds, and their
    weights ds/dt."""
    t = _added(n, -3.6, 3.6)
    u = 0.5 * math.pi * np.sinh(t)
    return _frozen(1.0 / (1.0 + np.exp(-2.0 * u)), 0.25 * math.pi * np.cosh(t) / np.cosh(u) ** 2)


@functools.cache
def exp_sinh(n: int):
    """(x, w): the exp-sinh nodes x in (0, inf) that step 1/n adds, and
    their weights dx/dt."""
    t = _added(n, -4.1, 4.2)
    x = np.exp(0.5 * math.pi * np.sinh(t))
    return _frozen(x, 0.5 * math.pi * np.cosh(t) * x)


def check_tol(tol: float) -> None:
    """Refuse a relative tolerance that is not finite and > 0."""
    if not 0 < tol < math.inf:
        raise ValueError("tolerances must be finite and > 0")


def ladder(sums, count: int, tol: float):
    """Integrals 0 .. count-1 on the step ladder.  Each ends at the first step
    1/n of STEPS where |I_h - I_2h| <= max(tol |I_h|, NOISE h sum |w f|).

    sums(n, rows) returns, for the integrals ``rows`` (an index array in
    increasing order), three arrays over the nodes that step 1/n adds: the
    sum of w f, the sum of |w f| and the node count.

    Returns (values, error estimates |I_h - I_2h|, node counts, failed): the
    integrals in ``failed`` did not meet their target at the last step, and
    their values and estimates are that step's.
    """
    check_tol(tol)
    rows = np.arange(count)
    total, mag, nodes = sums(BASE, rows)
    value, err = total / BASE, np.full(count, math.inf)
    for n in STEPS:
        add, add_mag, add_nodes = sums(n, rows)
        prev = total[rows]
        total[rows] = prev + add
        mag[rows] += add_mag
        nodes[rows] += add_nodes
        value[rows] = total[rows] / n
        err[rows] = np.abs(value[rows] - 2.0 * prev / n)
        ok = err[rows] <= np.fmax(tol * np.abs(value[rows]), NOISE / n * mag[rows])
        rows = rows[~ok]
        if not rows.size:
            break
    return value, err, nodes, rows
