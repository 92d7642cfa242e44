"""Closed-form momentum-space self-energy distributions for a resting atom.

Unit-free: energies enter through u = p0 * lambda_bar_g, and values are in
units of r2_prefactor, in which the central splitting of DISTRIBUTION is the
bracket B(u; C = 0) itself.  The splitting is linear, so the SI prefactor is
a constant factor that no function here reads: the CLI applies it once.

log((u^2-1)^2) is evaluated as 2 ln|u^2-1|: the squared argument keeps the
real logarithm single-valued on the real axis, no complex branch needed.
u in {0, +-1} are hard errors for the closed forms.  Near u = 1 the one
evaluator is t2_bracket_resonant, a form factored in d = u - 1 in which
nothing cancels at small d; t2_bracket_slope is its closed-form dB/du.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import GridResolutionError, SingularPointError
from .observables import (NORMALIZATION_EXACT, TWO_PI, NormalizationConstants, _front_term,
                          _sym_bracket)
from .splitting import DEFAULT_TOL, CausalDistribution1D, split

__all__ = [
    "r2_tilde_closed",
    "sym_bracket",
    "t2_bracket_resonant",
    "t2_bracket_slope",
    "DISTRIBUTION",
]

MAX_SPLIT_POINTS = 100_000


# ---------------------------------------------------------------------------
# the distribution that gets split
# ---------------------------------------------------------------------------

def _core(u):
    """theta(u^2-1) sgn(u) (u^2-1)^3/u^4 as sgn(u) u^2 y^3, stable for very
    large |u|.  Branch-free: y = 1 - 1/max(u^2, 1) is exactly 0 for |u| <= 1
    (u = 0 divides by no zero), and a NaN stays NaN.  The cube is two IEEE
    products, not numpy's power, whose SIMD loop rounds differently from CPU
    to CPU."""
    u = np.asarray(u, dtype=float)
    uu = u * u
    y = 1.0 - 1.0 / np.maximum(uu, 1.0)
    cube = y * y
    cube *= y
    cube *= np.copysign(uu, u)
    return cube


def _core_kernel(k):
    """2 pi core(k)/k^3 at k > 0 as 2 pi y^3/k, y = 1 - 1/max(k^2, 1): the
    y of _core, so exactly 0 for k <= 1, in eight array operations."""
    y = 1.0 - 1.0 / np.maximum(k * k, 1.0)
    cube = y * y
    cube *= y
    cube /= k
    cube *= TWO_PI
    return cube


# the distribution that split-check splits carries both normal-ordering terms:
# d = i g, g = 2 pi core, whose central retarded part is B(u; C = 0) with the
# signed step (tests pin this)
DISTRIBUTION = CausalDistribution1D(g=lambda k: TWO_PI * _core(k), kernel=_core_kernel,
                                    k_min=1.0)


# ---------------------------------------------------------------------------
# closed-form retarded part and symmetrized combination
# ---------------------------------------------------------------------------

def _check_regular(u) -> None:
    """Refuse the first u, in order, at which the closed forms cannot be
    evaluated: u in {0, +-1}, or where the front term's x^3/(2u^4) leaves
    the float range (about |u| < 7e-78 or |u| > 2.4e51)."""
    u = np.asarray(u, dtype=float).ravel()
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        singular = (u == 0.0) | (np.abs(np.abs(u) - 1.0) < 1e-14)
        u2 = u * u
        x = u2 - 1.0
        bad = singular | ~((u2 * u2 > 0.0) & np.isfinite(x * x * x / (2.0 * u2 * u2)))
    if bad.any():
        j = int(np.argmax(bad))
        raise SingularPointError(f"closed form singular at u = {float(u[j])} (u in {{0, +-1}})"
                                 if singular[j] else
                                 f"closed form leaves the float range at u = {float(u[j])}")


def r2_tilde_closed(u):
    """Closed-form retarded self-energy at rest, vectorized, in units of
    r2_prefactor: front + (B(u; C = 0) - front)/2, B with half its rational
    part, from x = u u - 1 and log|x| as the formula reads.  A scalar u runs as a
    one-point array, so it gets the floats of any batch, and returns a complex.
    """
    _check_regular(u)
    v = np.array(u, dtype=float, ndmin=1)
    x = v * v - 1.0
    args = (v, x, np.log(np.abs(x)), np.where(x > 0.0, 2j * math.pi * np.sign(v), 0.0))
    front = _front_term(*args)
    r2 = front + (_sym_bracket(*args, NormalizationConstants()) - front) / 2
    return complex(r2[0]) if np.ndim(u) == 0 else r2


def _real_axis_args(u):
    """The (u, x, ln|x|, step) arguments of _sym_bracket at real u, as arrays,
    with the step 2 pi i sgn(u) on the support |u| > 1 and 0 off it.  x is
    (|u| - 1)(|u| + 1), and ln|x| below |u| = 1/sqrt 2 is log1p(-u u): the
    log of u u - 1 loses the digits of u u (at u = 1e-10 all of them)."""
    u = np.asarray(u, dtype=float)
    a = np.abs(u)
    x = (a - 1.0) * (a + 1.0)
    uu = np.minimum(u * u, 0.5)   # clamped: log1p(-uu) is dropped above 1/sqrt 2
    ln_abs_x = np.where(a < math.sqrt(0.5), np.log1p(-uu), np.log(np.abs(x)))
    return u, x, ln_abs_x, np.where(x > 0.0, 2j * math.pi * np.sign(u), 0.0)


def sym_bracket(u, c: NormalizationConstants = NormalizationConstants()):
    """Symmetrized bracket B(u; C) at real u, vectorized, in bracket units.

    With the signed step, B(u; C = 0) is the central splitting of
    DISTRIBUTION, on and off the support and for either sign
    of u; split-check compares the two.  Raises SingularPointError at
    u in {0, +-1}; near u = 1 use t2_bracket_resonant, which forms u^2 - 1
    without cancellation.
    """
    _check_regular(u)
    return _sym_bracket(*_real_axis_args(u), c)


def _bracket_term_scale(u, x, ln_abs_x, step):
    """Sum of the magnitudes of the terms of B(u; C = 0), from the arguments
    of _sym_bracket.  Its rounding error is relative to this; B itself
    cancels for small |u|."""
    uu = u * u   # products, not numpy's power, slow on a negative base
    return (np.abs(x * x * x / (2.0 * (uu * uu))) * (np.abs(step) + 2.0 * np.abs(ln_abs_x))
            + 1.0 / uu + 2.5 + 11.0 * uu / 6.0)


# NORMALIZATION_EXACT.c2 - (-29/6), by which fl(-29/6) misses -29/6: exactly
# 2^-49/6, which rounds once here, 2.96e-16
_C2_ROUNDING = 2.0 ** -49 / 6.0


def _c_quadratic(c: NormalizationConstants):
    """(k0, k1, k2) with (C - C_exact).(1, u, u^2) = k0 + k1 d + k2 d^2 at
    u = 1 + d, C_exact = (-7/2, 8, -29/6); (0, 0, 0) at NORMALIZATION_EXACT,
    whose c2 reads as -29/6.  Any other C carries _C2_ROUNDING, added last: at
    C = 0 the sums before it are exact, and (1/3, 5/3, 29/6) round once."""
    if c == NORMALIZATION_EXACT:
        return 0.0, 0.0, 0.0
    a0, a1, a2, e = c.c0 + 3.5, c.c1 - 8.0, c.c2 - NORMALIZATION_EXACT.c2, _C2_ROUNDING
    return (a0 + a1) + a2 + e, (a1 + 2.0 * a2) + 2.0 * e, a2 + e


def _factored_args(d):
    """u = 1 + d, u^2, x = u^2 - 1 = d (2 + d) and the log factor
    step - 2 ln|x| of the front term, from d = u - 1 held exactly."""
    u, x = 1.0 + d, d * (2.0 + d)
    ax = np.maximum(np.abs(x), 1e-300)  # clamp: log finite even at grid points
    return u, u * u, x, np.where(x > 0.0, 2j * math.pi, 0.0) - 2.0 * np.log(ax)


def t2_bracket_resonant(delta_u, c: NormalizationConstants, offset=0.0):
    """Symmetrized bracket at u = 1 + d, d = delta_u + offset held exactly.

    At C_exact u^2 times the rational part is -d^3 (3u + 1), so
    B(u; C_exact) = x^3/(2u^4) (step - 2 ln|x|) - d^3 (3d + 4)/u^2 with
    x = d (2 + d): every term is O(d^3), and nothing cancels.  Any other C
    adds the quadratic of _c_quadratic.  Vectorized over ``offset``.
    """
    d = np.asarray(delta_u + offset, dtype=float)
    u, uu, x, log_factor = _factored_args(d)
    k0, k1, k2 = _c_quadratic(c)
    return x * x * x / (2.0 * uu * uu) * log_factor - d * d * d * (3.0 * d + 4.0) / uu + (
        k0 + (k1 + k2 * d) * d)


def t2_bracket_slope(delta_u, c: NormalizationConstants):
    """dB/du at u = 1 + delta_u, from the factored form of t2_bracket_resonant:
    x^2 (u^2 + 2)/u^5 (step - 2 ln|x|) - 2x^2/u^3 - 2d^2 (3u^2 + 2u + 1)/u^3
    at C_exact, plus the quadratic's k1 + 2 k2 d."""
    d = np.asarray(delta_u, dtype=float)
    u, uu, x, log_factor = _factored_args(d)
    _, k1, k2 = _c_quadratic(c)
    return (x * x * (uu + 2.0) / (uu * uu * u) * log_factor - 2.0 * x * x / (uu * u)
            - 2.0 * d * d * (3.0 * uu + 2.0 * u + 1.0) / (uu * u) + (k1 + 2.0 * k2 * d))


# ---------------------------------------------------------------------------
# numeric-vs-closed-form comparison (surfaced by the CLI split-check)
# ---------------------------------------------------------------------------

class SplitCheckReport(NamedTuple):
    """Central splitting of DISTRIBUTION vs the closed forms, in units of
    r2_prefactor; the rel-err fields and the count have no unit.

    re_closed and im_closed are r2_tilde_closed, B with half its rational
    part (re_closed - re_numeric is 5/4 - 11u^2/12 - 1/(2u^2)), from u u - 1
    as the formula reads.  The splitting's imaginary part is its
    Sokhotski-Plemelj pole term alone (the distribution is i g with g real);
    im_rel_err compares it with im_closed.  re_rel_err compares its real
    part with Re sym_bracket(u), whose arguments are cancellation-free,
    relative to the sum of the bracket's term magnitudes.
    quadrature_evaluations counts the integrand evaluations over the grid;
    max_abs_error_estimate is the largest quadrature error estimate of a
    point, scaled like the splitting.
    """

    u: np.ndarray
    re_closed: np.ndarray
    im_closed: np.ndarray
    re_numeric: np.ndarray
    im_numeric: np.ndarray
    im_rel_err: np.ndarray
    re_rel_err: np.ndarray
    quadrature_evaluations: int
    max_abs_error_estimate: float


def check_split_points(n: int) -> None:
    """Refuse a split-check grid of ``n`` points unless 1 <= n <= MAX_SPLIT_POINTS."""
    if not 1 <= n <= MAX_SPLIT_POINTS:
        raise GridResolutionError(
            f"split check takes 1 to {MAX_SPLIT_POINTS} points, got {n}")


def split_grid(u_min: float, u_max: float, n: int) -> np.ndarray:
    """The split-check grid, ``n`` points from ``u_min`` to ``u_max``; refused
    before it is allocated for a point count that check_split_points refuses,
    or an endpoint that is not finite or at which the closed form cannot be
    evaluated (np.linspace overflows between ends that far out)."""
    check_split_points(n)
    for name, u in (("u_min", u_min), ("u_max", u_max)):
        if not math.isfinite(u):
            raise GridResolutionError(f"{name} must be finite, got {u}")
        _check_regular(u)
    return np.linspace(u_min, u_max, n)


def split_check_report(u_values, tol: float = DEFAULT_TOL) -> SplitCheckReport:
    u = np.asarray(list(u_values), dtype=float)
    check_split_points(u.size)
    closed = r2_tilde_closed(u)
    numeric, evals, errors = split(DISTRIBUTION, u, tol=tol)
    # off the support the closed form is real: scale by its modulus instead
    scale = np.where(closed.imag != 0.0, np.abs(closed.imag), np.abs(closed))
    im_rel = np.abs(numeric.imag - closed.imag) / scale
    args = _real_axis_args(u)   # of sym_bracket(u) and its term scale
    re_rel = (np.abs(numeric.real - _sym_bracket(*args, NormalizationConstants()).real)
              / _bracket_term_scale(*args))
    return SplitCheckReport(
        u=u, re_closed=closed.real, im_closed=closed.imag,
        re_numeric=numeric.real, im_numeric=numeric.imag, im_rel_err=im_rel,
        re_rel_err=re_rel, quadrature_evaluations=int(evals.sum()),
        max_abs_error_estimate=float(errors.max()))
