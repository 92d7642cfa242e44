"""Deterministic quadrature and small linear solves.

Everything here is pure and single-threaded: identical inputs give
bitwise-identical outputs.  Integrands must be numpy-vectorized
(they receive a float ndarray of nodes and return an ndarray).

The adaptive integrator is a nested Gauss(7)/Kronrod(15) scheme.  The
rule itself is constructed at import time from first principles: the
Kronrod extension nodes are the roots of the degree-8 Stieltjes
polynomial E8, defined by orthogonality of E8 to all lower powers
against the sign-varying weight P7(x) dx on [-1, 1].  Correctness is
pinned by tests (degree-22 exactness, node symmetry).
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.polynomial import Polynomial
from numpy.polynomial import legendre

from .errors import (
    PoleLocationError,
    QuadratureConvergenceError,
    SingularMatrixError,
)

__all__ = [
    "Interval",
    "QuadratureResult",
    "integrate_adaptive",
    "integrate_pv",
    "solve_linear",
]

DEFAULT_REL_TOL = 1e-10
DEFAULT_ABS_TOL = 1e-14
DEFAULT_MAX_EVALUATIONS = 1_000_000
_EPS = np.finfo(float).eps


# ---------------------------------------------------------------------------
# Gauss-Kronrod 7/15 rule, built at import time
# ---------------------------------------------------------------------------

def _build_gk15():
    xg, wg = legendre.leggauss(7)

    p7 = legendre.Legendre.basis(7).convert(kind=Polynomial)

    def pint(p):
        q = p.integ()
        return q(1.0) - q(-1.0)

    # E8(x) = x^8 + a6 x^6 + a4 x^4 + a2 x^2 + a0, orthogonal to x^j P7
    rows, rhs = [], []
    for j in (1, 3, 5, 7):
        base = Polynomial([0.0] * j + [1.0]) * p7
        rows.append([pint(base * Polynomial([0.0] * k + [1.0])) for k in (0, 2, 4, 6)])
        rhs.append(-pint(base * Polynomial([0.0] * 8 + [1.0])))
    a0, a2, a4, a6 = np.linalg.solve(np.array(rows), np.array(rhs))
    e8 = Polynomial([a0, 0.0, a2, 0.0, a4, 0.0, a6, 0.0, 1.0])
    roots = np.sort(e8.roots().real)
    de8 = e8.deriv()
    for _ in range(3):  # Newton polish to machine precision
        roots = roots - e8(roots) / de8(roots)

    nodes = np.sort(np.concatenate([xg, roots]))
    # weights by exactness on the Legendre basis up to degree 14
    v = np.array([legendre.Legendre.basis(j)(nodes) for j in range(15)])
    moments = np.zeros(15)
    moments[0] = 2.0
    wk = np.linalg.solve(v, moments)
    # Gauss-7 weights aligned with the Kronrod node ordering (odd positions)
    wg_full = np.zeros(15)
    wg_full[1::2] = wg
    return nodes, wk, wg_full


GK15_NODES, GK15_WEIGHTS, G7_WEIGHTS = _build_gk15()


# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Interval:
    """Integration interval; either endpoint may be infinite."""

    lo: float
    hi: float

    def __post_init__(self):
        if not self.lo < self.hi:
            raise ValueError(f"interval requires lo < hi, got [{self.lo}, {self.hi}]")


@dataclass(frozen=True)
class QuadratureResult:
    value: complex
    abs_error_estimate: float
    evaluations: int

    def __post_init__(self):
        if not math.isfinite(self.abs_error_estimate):
            raise ValueError("abs_error_estimate must be finite")
        if self.evaluations < 0:
            raise ValueError("evaluations must be >= 0")
        v = complex(self.value)
        if math.isfinite(v.real) and math.isfinite(v.imag) and self.evaluations == 0:
            raise ValueError("a finite value requires evaluations > 0")


# ---------------------------------------------------------------------------
# Adaptive integration
# ---------------------------------------------------------------------------

def _gk_panel(f, a, b):
    """One Gauss-Kronrod panel: (kronrod value, |K15-G7| estimate)."""
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    y = np.asarray(f(mid + half * GK15_NODES))
    k = half * np.sum(GK15_WEIGHTS * y)
    g = half * np.sum(G7_WEIGHTS * y)
    return k, abs(k - g)


def _integrate_finite(f, a, b, rel_tol, abs_tol, budget):
    """Globally adaptive bisection on [a, b].

    Returns (value, error, evaluations); raises on exhausted budget with
    the partial estimate attached.  The final value is re-accumulated over
    segments sorted by left endpoint so the summation order never depends
    on the subdivision history.
    """
    value, err = _gk_panel(f, a, b)
    evals = 15
    segments = [(-err, 0, a, b, value, err)]
    counter = 1
    total = value
    total_err = err
    # sum of |panel values|: near a zero of the integral the relative target
    # would ask for less than the rounding noise of the sum, so stop there
    total_abs = abs(value)
    while total_err > max(abs_tol, rel_tol * abs(total), 64 * _EPS * total_abs):
        if evals + 30 > budget:
            segs = sorted(segments, key=lambda s: s[2])
            partial = QuadratureResult(
                value=complex(sum(s[4] for s in segs)),
                abs_error_estimate=float(sum(s[5] for s in segs)),
                evaluations=evals,
            )
            raise QuadratureConvergenceError(
                f"quadrature did not converge within {budget} evaluations "
                f"(error estimate {partial.abs_error_estimate:.3e})",
                partial=partial,
            )
        _, _, sa, sb, sv, se = heapq.heappop(segments)
        sm = 0.5 * (sa + sb)
        v1, e1 = _gk_panel(f, sa, sm)
        v2, e2 = _gk_panel(f, sm, sb)
        evals += 30
        total += v1 + v2 - sv
        total_err += e1 + e2 - se
        total_abs += abs(v1) + abs(v2) - abs(sv)
        heapq.heappush(segments, (-e1, counter, sa, sm, v1, e1))
        counter += 1
        heapq.heappush(segments, (-e2, counter, sm, sb, v2, e2))
        counter += 1
    segs = sorted(segments, key=lambda s: s[2])
    total = sum(s[4] for s in segs)
    total_err = float(sum(s[5] for s in segs))
    return total, total_err, evals


def _finite_pieces(f, iv: Interval):
    """Map a (possibly improper) interval to a list of finite pieces.

    Semi-infinite tails use the monotone map k = lo + t/(1-t) on t in [0,1)
    (mirrored for a -inf endpoint, which leaves the orientation unchanged);
    a doubly infinite interval is split at 0 first.
    """
    lo, hi = iv.lo, iv.hi

    def tail(anchor, sign):
        def ft(t):
            w = 1.0 / (1.0 - t)
            return f(anchor + sign * (t * w)) * w * w
        return ft

    if math.isinf(lo) and math.isinf(hi):
        return [(tail(0.0, -1.0), 0.0, 1.0), (tail(0.0, 1.0), 0.0, 1.0)]
    if math.isinf(hi):
        return [(tail(lo, 1.0), 0.0, 1.0)]
    if math.isinf(lo):
        return [(tail(hi, -1.0), 0.0, 1.0)]
    return [(f, lo, hi)]


def integrate_adaptive(
    f: Callable[[np.ndarray], np.ndarray],
    iv: Interval,
    rel_tol: float = DEFAULT_REL_TOL,
    abs_tol: float = DEFAULT_ABS_TOL,
    max_evaluations: int = DEFAULT_MAX_EVALUATIONS,
) -> QuadratureResult:
    """Integrate a vectorized real-to-complex function over ``iv``.

    Infinite endpoints are handled with the monotone map k = lo + t/(1-t)
    (mirrored for a -inf endpoint); a (-inf, inf) interval is split at 0.
    Raises QuadratureConvergenceError with the partial estimate attached if
    the subdivision budget is exhausted.
    """
    if not (rel_tol > 0 and abs_tol > 0):
        raise ValueError("tolerances must be > 0")
    pieces = _finite_pieces(f, iv)
    total = 0.0 + 0.0j
    total_err = 0.0
    evals = 0
    for fn, a, b in pieces:
        v, e, n = _integrate_finite(fn, a, b, rel_tol, abs_tol / len(pieces),
                                    max_evaluations - evals)
        total += v
        total_err += e
        evals += n
    return QuadratureResult(value=complex(total), abs_error_estimate=float(total_err), evaluations=evals)


# ---------------------------------------------------------------------------
# Principal value
# ---------------------------------------------------------------------------

def _integrate_pv_any(f, pole, iv, tol, max_evaluations=DEFAULT_MAX_EVALUATIONS):
    """PV core shared by the public op and the splitting module.

    ``f`` is the full integrand including the simple-pole factor; it may be
    complex-valued.  The singular piece is removed analytically by folding
    f(pole+t)+f(pole-t) over the half-interval to the nearer finite endpoint,
    leaving ordinary quadrature for the remainder.
    """
    lo, hi = iv.lo, iv.hi
    if not (lo < pole < hi):
        raise PoleLocationError(f"pole {pole} not strictly inside [{lo}, {hi}]")
    if pole == lo or pole == hi:
        raise PoleLocationError("pole coincides with an interval endpoint")

    dist_lo = pole - lo if math.isfinite(lo) else math.inf
    dist_hi = hi - pole if math.isfinite(hi) else math.inf
    h = min(dist_lo, dist_hi)
    if math.isinf(h):
        h = 1.0 + abs(pole)  # both endpoints infinite: any finite fold works

    def pair(t):
        return f(pole + t) + f(pole - t)

    value = 0.0 + 0.0j
    err = 0.0
    evals = 0
    r = integrate_adaptive(pair, Interval(0.0, h), rel_tol=tol,
                           abs_tol=DEFAULT_ABS_TOL, max_evaluations=max_evaluations)
    value += r.value
    err += r.abs_error_estimate
    evals += r.evaluations

    for seg_lo, seg_hi in ((lo, pole - h), (pole + h, hi)):
        if seg_lo < seg_hi:
            r = integrate_adaptive(f, Interval(seg_lo, seg_hi), rel_tol=tol,
                                   abs_tol=DEFAULT_ABS_TOL,
                                   max_evaluations=max_evaluations - evals)
            value += r.value
            err += r.abs_error_estimate
            evals += r.evaluations
    return QuadratureResult(value=complex(value), abs_error_estimate=float(err), evaluations=evals)


def integrate_pv(
    f: Callable[[np.ndarray], np.ndarray],
    pole: float,
    iv: Interval,
    tol: float = DEFAULT_REL_TOL,
) -> QuadratureResult:
    """Cauchy principal value of ``f`` (which contains a 1/(x-pole) factor).

    The pole must lie strictly inside ``iv``; an endpoint pole is rejected.
    """
    if not tol > 0:
        raise ValueError("tol must be > 0")
    return _integrate_pv_any(f, pole, iv, tol)


# ---------------------------------------------------------------------------
# Small linear solves
# ---------------------------------------------------------------------------

def solve_linear(a, b) -> np.ndarray:
    """Solve A x = b for a small square system, rejecting singular A.

    The determinant is tested against a scale-aware tolerance; the residual
    ||Ax - b|| <= 1e-12 ||b|| is verified after the solve.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] != b.shape[0]:
        raise ValueError(f"expected square system, got A{a.shape}, b{b.shape}")
    det = float(np.linalg.det(a))
    scale = np.abs(a).max()
    if scale == 0.0 or abs(det) < 1e-12 * scale ** a.shape[0]:
        raise SingularMatrixError(
            f"matrix numerically singular (det = {det:.6e})", determinant=det)
    x = np.linalg.solve(a, b)
    resid = np.linalg.norm(a @ x - b)
    bnorm = np.linalg.norm(b)
    if bnorm > 0 and resid > 1e-12 * bnorm:
        # one step of iterative refinement, then give up honestly
        x = x + np.linalg.solve(a, b - a @ x)
        resid = np.linalg.norm(a @ x - b)
        if resid > 1e-12 * bnorm:
            raise SingularMatrixError(
                f"solve residual {resid:.3e} exceeds 1e-12 |b| (det = {det:.6e})",
                determinant=det,
            )
    return x
