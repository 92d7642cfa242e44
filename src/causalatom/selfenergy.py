"""Closed-form momentum-space self-energy distributions for a resting atom.

Dimensionless conventions: energies enter through u = p0 * lambda_bar_g.
Every closed form is computed as a dimensionless bracket times an SI
prefactor, applied last (the prefactors involve lambda_bar_g^3 ~ 1e-49 m^3,
so mixing them into intermediate arithmetic would underflow).

log((u^2-1)^2) is evaluated as 2 ln|u^2-1|: the squared argument keeps the
real logarithm single-valued on the real axis, no complex branch needed.
u in {0, +-1} are hard errors for the closed forms; callers that need the
neighbourhood of u = 1 use the delta_u-parameterized evaluators below, which
compute u^2 - 1 = delta_u (2 + delta_u) without cancellation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BranchPointError, GridResolutionError, SingularPointError
from .observables import (TWO_PI, NormalizationConstants, _front_term, _sym_bracket,
                          d2_scale, r2_prefactor)
from .splitting import CausalDistribution1D, split

__all__ = [
    "d2_tilde",
    "d2_tilde_general",
    "r2prime_tilde",
    "r2_tilde_closed",
    "sym_bracket",
    "t2_bracket_resonant",
    "t2_bracket_change",
    "as_causal_distribution",
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


def d2_tilde(u: float, atom) -> complex:
    """Momentum-space causal distribution at rest: i sgn(u) theta(u^2-1) (u^2-1)^3
    |d_eg|^2 / (12 eps0 hbar c (2pi)^3 lb^3 u^4)."""
    if abs(abs(u) - 1.0) < 1e-14:
        raise BranchPointError(f"u = {u} is on the branch surface |u| = 1")
    return 1j * d2_scale(atom) * float(_core(np.array([u]))[0])


def d2_tilde_general(p0: float, pvec, dvec, atom) -> complex:
    """Full moving-atom distribution; p0 and pvec are wavevectors (1/m).

    Reduces to d2_tilde(u = p0 lb) at pvec = 0, where the dipole bracket
    collapses to |d_eg|^2 p0^2.
    """
    k = atom.constants
    lb = atom.lambda_bar_g
    pvec = np.asarray(pvec, dtype=float)
    dvec = np.asarray(dvec, dtype=complex)
    pp = p0 * p0 - float(pvec @ pvec)
    x = pp * lb * lb - 1.0
    if abs(x) < 1e-14:
        raise BranchPointError("p.p on the branch surface p.p = lambda_bar_g^-2")
    if x <= 0.0 or p0 == 0.0:
        return 0.0 + 0.0j
    d2 = float(np.vdot(dvec, dvec).real)
    pd = complex(pvec @ dvec)
    bracket = d2 * (2.0 * p0 * p0 - pp) - 2.0 * abs(pd) ** 2
    return (1j * x ** 3 * math.copysign(1.0, p0) * bracket /
            (12.0 * k.eps0 * k.hbar * k.c * (TWO_PI * pp) ** 3 * lb ** 7))


def r2prime_tilde(u: float, atom) -> complex:
    """Second normal-ordering contribution: d2_tilde on u < -1, 0 elsewhere."""
    d2 = d2_tilde(u, atom)
    return d2 if u < -1.0 else 0j


def as_causal_distribution(atom, unit_scale: bool = False) -> CausalDistribution1D:
    """Wrap the rest-frame distribution for the splitting module.

    The object handed to the splitting integral carries both normal-ordering
    terms of the self-energy, i.e. twice the single-ordering amplitude; this
    is the normalization whose central retarded part reproduces the closed
    form r2_tilde_closed (tests pin this): d = i g with g = 2 scale core.
    With ``unit_scale`` the SI prefactor is dropped (g = 2 core), which is
    convenient for scale-free polynomial-residual checks.
    """
    scale = 1.0 if unit_scale else d2_scale(atom)

    def g(kk):
        return 2.0 * scale * _core(kk)

    return CausalDistribution1D(g=g, singular_order=2, k_min=1.0)


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


def r2_tilde_closed(u, atom):
    """Closed-form retarded self-energy at rest, vectorized: r2_prefactor times
    front + (B(u; C = 0) - front)/2, B with half its rational part, from
    x = u u - 1 and log|x| as the formula reads.  A scalar u runs as a
    one-point array, so it gets the floats of any batch, and returns a complex.
    """
    _check_regular(u)
    v = np.array(u, dtype=float, ndmin=1)
    x = v * v - 1.0
    args = (v, x, np.log(np.abs(x)), np.where(x > 0.0, 2j * math.pi * np.sign(v), 0.0))
    front = _front_term(*args)
    r2 = r2_prefactor(atom) * (front + (_sym_bracket(*args, NormalizationConstants())
                                        - front) / 2)
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

    With the signed step, r2_prefactor * B(u; C = 0) is the central splitting
    of the wrapped distribution, on and off the support and for either sign
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
    return (np.abs(x ** 3 / (2.0 * u ** 4)) * (np.abs(step) + 2.0 * np.abs(ln_abs_x))
            + 1.0 / u ** 2 + 2.5 + 11.0 * u ** 2 / 6.0)


def _resonant_args(delta_u, offset):
    """The arguments of _sym_bracket at u = 1 + delta_u + offset."""
    um1 = np.asarray(delta_u + offset, dtype=float)   # u - 1
    x = um1 * (2.0 + um1)                             # u^2 - 1, exact
    ax = np.maximum(np.abs(x), 1e-300)  # clamp: log finite even at grid points
    return 1.0 + um1, x, np.log(ax), np.where(x > 0.0, 2j * math.pi, 0.0)


def t2_bracket_resonant(delta_u, c: NormalizationConstants, offset=0.0):
    """Symmetrized bracket at u = 1 + delta_u + offset, cancellation-free.

    u^2 - 1 is formed as (u-1)(u+1) with u-1 = delta_u + offset held exactly,
    so the bracket stays accurate for delta_u down to ~1e-16.  Vectorized
    over ``offset`` (used for narrow frequency windows around resonance).
    """
    return _sym_bracket(*_resonant_args(delta_u, offset), c)


def t2_bracket_change(delta_u, c: NormalizationConstants, offset):
    """B(u_res + offset) - B(u_res) at u_res = 1 + delta_u, vectorized over
    ``offset``, without the rounding of B itself.

    The difference of two t2_bracket_resonant values loses the change to the
    rounding of u = 1 + delta_u + offset in the O(1) terms 1/u^2 - 5/2 +
    11u^2/6 + C0 + C1 u + C2 u^2 (about 1e-16 of B).  Their change is formed
    from the offset instead: offset ((u_res + u)(11/6 + C2 - 1/(u_res u)^2)
    + C1).  The front term F, of size x^3 ln|x|, is differenced as is; its
    u - 1 rounds to ulp(delta_u), which adds about |dF/du| ulp(delta_u).
    """
    offset = np.asarray(offset, dtype=float)
    u_res = 1.0 + delta_u
    u = u_res + offset
    poly = offset * ((u_res + u) * (11.0 / 6.0 + c.c2 - 1.0 / (u_res * u) ** 2) + c.c1)
    return _front_term(*_resonant_args(delta_u, offset)) - _front_term(
        *_resonant_args(delta_u, 0.0)) + poly


# ---------------------------------------------------------------------------
# numeric-vs-closed-form comparison (surfaced by the CLI split-check)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SplitCheckReport:
    """Central splitting of the wrapped distribution vs the closed forms.

    re_closed and im_closed are r2_tilde_closed, B with half its rational
    part (re_closed - re_numeric is pref (5/4 - 11u^2/12 - 1/(2u^2))), from
    u u - 1 as the formula reads.  The splitting's imaginary part is its
    Sokhotski-Plemelj pole term alone (the distribution is i g with g real);
    im_rel_err compares it with im_closed.  re_rel_err compares its real
    part with r2_prefactor * Re sym_bracket(u), whose arguments are
    cancellation-free, relative to r2_prefactor times the sum of the
    bracket's term magnitudes.  quadrature_evaluations counts the integrand
    evaluations over the grid; max_abs_error_estimate is the largest
    quadrature error estimate of a point, scaled like the splitting.
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


def split_check_report(atom, u_values, tol: float = 1e-11) -> SplitCheckReport:
    u = np.asarray(list(u_values), dtype=float)
    check_split_points(u.size)
    pref = r2_prefactor(atom)
    closed = r2_tilde_closed(u, atom)
    numeric, evals, errors = split(as_causal_distribution(atom), u, tol=tol)
    # off the support the closed form is real: scale by its modulus instead
    scale = np.where(closed.imag != 0.0, np.abs(closed.imag), np.abs(closed))
    im_rel = np.abs(numeric.imag - closed.imag) / scale
    args = _real_axis_args(u)   # of sym_bracket(u) and its term scale
    re_rel = (np.abs(numeric.real - pref * _sym_bracket(*args, NormalizationConstants()).real)
              / (pref * _bracket_term_scale(*args)))
    return SplitCheckReport(
        u=u, re_closed=closed.real, im_closed=closed.imag,
        re_numeric=numeric.real, im_numeric=numeric.imag, im_rel_err=im_rel,
        re_rel_err=re_rel, quadrature_evaluations=int(evals.sum()),
        max_abs_error_estimate=float(errors.max()))
