"""Reference for the lock-step quadrature engine: one integral at a time.

This is the adaptive integrator as it ran before the engine batched
integrals: `_integrate_finite` bisects one finite interval with its own
heap, and the principal value and the dispersion integral are built from it
one piece after another.  Tests compare the engine against it bit for bit;
equal evaluation counts show that the same greedy choices were made.
"""

from __future__ import annotations

import heapq
import math

import numpy as np

from causalatom.errors import QuadratureConvergenceError
from causalatom.numerics import (
    DEFAULT_ABS_TOL,
    DEFAULT_MAX_EVALUATIONS,
    G7_WEIGHTS,
    GK15_NODES,
    GK15_WEIGHTS,
    QuadratureResult,
)
from causalatom.splitting import _check_point

_EPS = np.finfo(float).eps


def _gk_panel(f, a, b):
    """One Gauss-Kronrod panel: (kronrod value, |K15-G7| estimate)."""
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    y = np.asarray(f(mid + half * GK15_NODES))
    k = half * np.sum(GK15_WEIGHTS * y)
    g = half * np.sum(G7_WEIGHTS * y)
    return k, abs(k - g)


def _integrate_finite(f, a, b, rel_tol, abs_tol, budget):
    """Globally adaptive bisection on [a, b]: (value, error, evaluations)."""
    value, err = _gk_panel(f, a, b)
    evals = 15
    segments = [(-err, 0, a, b, value, err)]
    counter = 1
    total = value
    total_err = err
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


def _finite_pieces(f, lo, hi, scale):
    """A semi-infinite interval as the map k = anchor +- scale t/(1-t) of
    t in [0, 1), with the weight scale/(1-t)^2."""
    def tail(anchor, sign):
        def ft(t):
            w = 1.0 / (1.0 - t)
            return f(anchor + sign * (t * w)) * w * w * abs(sign)
        return ft

    if math.isinf(lo) and math.isinf(hi):
        return [(tail(0.0, -scale), 0.0, 1.0), (tail(0.0, scale), 0.0, 1.0)]
    if math.isinf(hi):
        return [(tail(lo, scale), 0.0, 1.0)]
    if math.isinf(lo):
        return [(tail(hi, -scale), 0.0, 1.0)]
    return [(f, lo, hi)]


def integrate_adaptive(f, lo, hi, rel_tol=1e-10, abs_tol=DEFAULT_ABS_TOL,
                       max_evaluations=DEFAULT_MAX_EVALUATIONS, scale=1.0) -> QuadratureResult:
    pieces = _finite_pieces(f, lo, hi, scale)
    total, total_err, evals = 0.0 + 0.0j, 0.0, 0
    for fn, a, b in pieces:
        v, e, n = _integrate_finite(fn, a, b, rel_tol, abs_tol / len(pieces),
                                    max_evaluations - evals)
        total += v
        total_err += e
        evals += n
    return QuadratureResult(value=complex(total), abs_error_estimate=float(total_err),
                            evaluations=evals)


def integrate_pv(f, pole, lo, hi, tol=1e-10, scale=1.0) -> QuadratureResult:
    dist_lo = pole - lo if math.isfinite(lo) else math.inf
    dist_hi = hi - pole if math.isfinite(hi) else math.inf
    h = min(dist_lo, dist_hi)
    if math.isinf(h):
        h = 1.0 + abs(pole)

    def pair(t):
        return f(pole + t) + f(pole - t)

    pieces = [(pair, 0.0, h)] + [(f, a, b) for a, b in ((lo, pole - h), (pole + h, hi))
                                 if a < b]
    value, err, evals = 0.0 + 0.0j, 0.0, 0
    for fn, a, b in pieces:
        r = integrate_adaptive(fn, a, b, rel_tol=tol, abs_tol=DEFAULT_ABS_TOL,
                               max_evaluations=DEFAULT_MAX_EVALUATIONS - evals, scale=scale)
        value += r.value
        err += r.abs_error_estimate
        evals += r.evaluations
    return QuadratureResult(value=complex(value), abs_error_estimate=float(err),
                            evaluations=evals)


def retarded_central(d, p0, tol):
    """(central splitting at p0, integrand evaluations), one integral after
    another; raises as the per-point splitting did.

    The kernel's (k - q)^(omega+1) is a product of repeated multiplications,
    as in splitting._power: numpy's power on a negative base is about 36
    times slower than on a positive one and rounds differently, and the
    engine and this reference must form the same product to agree bitwise.
    The integrand is the real g of d = i g, and the tails are mapped at the
    scale max(1, |p0|), as in splitting._split_values.
    """
    _check_point(d, p0, tol)
    om1, q = d.singular_order + 1, 0.0
    if p0 == 0.0:
        return 0.0 + 0.0j, 0  # the p0^(omega+1) prefactor kills the integral

    def kernel(k):
        # (k - q)^om1 as the product the engine forms, not numpy's power,
        # whose last bits on a negative base differ from it
        kq = k - q
        power = 1.0 if om1 == 0 else kq
        for _ in range(om1 - 1):
            power = power * kq
        return d.g(k) / (power * (p0 - k))

    value, evals, scale = 0.0 + 0.0j, 0, max(1.0, abs(p0))
    on_support = abs(p0) > d.k_min
    left, right = (-math.inf, -d.k_min), (d.k_min, math.inf)
    try:
        with np.errstate(divide="raise", invalid="raise", over="raise"):
            if on_support:
                pole_side, other = (right, left) if p0 > 0 else (left, right)
                results = [integrate_pv(kernel, p0, *pole_side, tol, scale),
                           integrate_adaptive(kernel, *other, rel_tol=tol, scale=scale)]
            else:
                results = [integrate_adaptive(kernel, *left, rel_tol=tol, scale=scale),
                           integrate_adaptive(kernel, *right, rel_tol=tol, scale=scale)]
    except FloatingPointError as exc:
        raise QuadratureConvergenceError(
            f"dispersion integral at p0 = {p0} failed: {exc}") from exc
    for r in results:
        value += r.value
        evals += r.evaluations
    result = (1j / (2.0 * math.pi)) * (p0 - q) ** om1 * complex(0.0, value.real)
    if on_support:
        result += 0.5j * 1.0 * float(d.g(np.array([p0]))[0])
    return result, evals

