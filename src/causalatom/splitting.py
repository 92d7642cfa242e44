"""Retarded/advanced parts of 1-D momentum-space causal distributions.

A causal distribution here is a complex d(k) supported on |k| >= k_min > 0
with power-counting singular order omega.  Its central retarded part is the
subtracted dispersion integral

    r(p0) = (i/2pi) p0^(omega+1) int dk  d(k) / [(k - i0)^(omega+1) (p0 - k + i0)]

with the i0 prescriptions resolved analytically before quadrature: because
the support excludes k = 0, the subtraction kernel is regular there, and the
p0 pole contributes a principal value plus the Sokhotski-Plemelj term
-i pi d(p0), i.e. a pole term d(p0)/2 after the prefactor.  No finite-epsilon
limits are taken numerically.

Shifting the Taylor subtraction point from 0 to q (off support) gives another
valid retarded part; any two differ by a polynomial of degree <= omega.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import BranchPointError, QuadratureConvergenceError, SupportError
from .numerics import Interval, _integrate_pv_any, integrate_adaptive

__all__ = [
    "CausalDistribution1D",
    "RetardedPart",
    "PolynomialResidual",
    "retarded_part_central",
    "retarded_part_shifted",
    "advanced_part",
    "advanced_part_mirrored",
    "polynomial_residual",
    "make_retarded_central",
    "make_retarded_shifted",
]

DEFAULT_TOL = 1e-11

# evaluation points this close to the support edge are refused
BRANCH_GUARD = 1e-9


@dataclass(frozen=True)
class CausalDistribution1D:
    """Momentum-space causal distribution d(k) with a support gap at the origin.

    evaluate must be numpy-vectorized, return exactly 0 for |k| < k_min, and
    satisfy |d(k)| <~ |k|^large_k_growth at large |k|.
    """

    evaluate: Callable[[np.ndarray], np.ndarray]
    singular_order: int
    k_min: float
    parity: str = "none"  # "even" | "odd" | "none"
    large_k_growth: int = 0

    def __post_init__(self):
        if self.singular_order < -1:
            raise ValueError("singular order must be >= -1")
        if self.k_min < 0:
            raise ValueError("k_min must be >= 0")
        if self.parity not in ("even", "odd", "none"):
            raise ValueError(f"parity must be even/odd/none, got {self.parity!r}")
        if self.large_k_growth > self.singular_order:
            raise ValueError("large_k_growth must not exceed the singular order")


@dataclass(frozen=True)
class RetardedPart:
    evaluate: Callable[[float], complex]
    source: CausalDistribution1D
    subtraction_point: float


@dataclass(frozen=True)
class PolynomialResidual:
    """Least-squares polynomial fitted to the difference of two retarded parts."""

    coefficients: tuple
    max_abs_deviation: float


def _check_point(d: CausalDistribution1D, p0: float, tol: float):
    if abs(abs(p0) - d.k_min) <= max(tol, BRANCH_GUARD):
        raise BranchPointError(
            f"|p0| = {abs(p0)} lies within {max(tol, BRANCH_GUARD)} of the "
            f"support edge k_min = {d.k_min}")


def _split_value(d: CausalDistribution1D, p0: float, q: float, tol: float,
                 pole_sign: float = 1.0) -> complex:
    """Dispersion integral with Taylor subtraction about k = q.

    pole_sign = 1 resolves 1/(p0 - k + i0) (retarded); -1 resolves the
    mirrored 1/(p0 - k - i0), whose delta term has the opposite sign.
    """
    om1 = d.singular_order + 1

    def kernel(k):
        return d.evaluate(k) / ((k - q) ** om1 * (p0 - k))

    if d.k_min == 0.0:
        raise SupportError("distribution support must exclude k = 0")
    if p0 == 0.0 and q == 0.0:
        return 0.0 + 0.0j  # p0^(omega+1) prefactor kills the regular integral

    value = 0.0 + 0.0j
    on_support = abs(p0) > d.k_min
    left = Interval(-math.inf, -d.k_min)
    right = Interval(d.k_min, math.inf)
    try:
        with np.errstate(divide="raise", invalid="raise", over="raise"):
            if on_support:
                pole_side = right if p0 > 0 else left
                other = left if p0 > 0 else right
                value += _integrate_pv_any(kernel, p0, pole_side, tol).value
                value += integrate_adaptive(kernel, other, rel_tol=tol).value
            else:
                value += integrate_adaptive(kernel, left, rel_tol=tol).value
                value += integrate_adaptive(kernel, right, rel_tol=tol).value
    except FloatingPointError as exc:
        # e.g. for |p0| above ~1e13 the fold's p0 +- t rounds onto the pole
        raise QuadratureConvergenceError(
            f"dispersion integral at p0 = {p0} failed: {exc}") from exc

    result = (1j / (2.0 * math.pi)) * (p0 - q) ** om1 * value
    if on_support:
        # Sokhotski-Plemelj: 1/(p0-k+i0) -> PV - i pi delta(k-p0); the
        # (p0-q)^(omega+1) prefactor cancels against the subtraction kernel.
        result += pole_sign * 0.5 * complex(d.evaluate(np.array([p0]))[0])
    return result


def retarded_part_central(d: CausalDistribution1D, p0: float,
                          tol: float = DEFAULT_TOL) -> complex:
    """Central splitting solution (subtraction about the origin) at p0."""
    _check_point(d, p0, tol)
    return _split_value(d, p0, 0.0, tol)


def retarded_part_shifted(d: CausalDistribution1D, p0: float, q: float,
                          tol: float = DEFAULT_TOL) -> complex:
    """Retarded part with the Taylor subtraction moved to k = q (off support)."""
    if abs(q) >= d.k_min:
        raise SupportError(
            f"subtraction point q = {q} must lie inside the support gap |k| < {d.k_min}")
    _check_point(d, p0, tol)
    return _split_value(d, p0, q, tol)


def advanced_part(d: CausalDistribution1D, p0: float,
                  tol: float = DEFAULT_TOL) -> complex:
    """Advanced part a(p0) = r(p0) - d(p0)."""
    r = retarded_part_central(d, p0, tol)
    return r - complex(d.evaluate(np.array([p0]))[0])


def advanced_part_mirrored(d: CausalDistribution1D, p0: float,
                           tol: float = DEFAULT_TOL) -> complex:
    """Advanced part computed via the mirrored prescription.

    Uses 1/(p0 - k - i0) in the dispersion integral (PV + i pi delta) rather
    than r - d, so the jump condition r - a = d checks the sign and weight
    of the Sokhotski-Plemelj pole term.
    """
    _check_point(d, p0, tol)
    return _split_value(d, p0, 0.0, tol, pole_sign=-1.0)


def make_retarded_central(d: CausalDistribution1D, tol: float = DEFAULT_TOL) -> RetardedPart:
    return RetardedPart(evaluate=lambda p0: retarded_part_central(d, p0, tol),
                        source=d, subtraction_point=0.0)


def make_retarded_shifted(d: CausalDistribution1D, q: float,
                          tol: float = DEFAULT_TOL) -> RetardedPart:
    if abs(q) >= d.k_min:
        raise SupportError(
            f"subtraction point q = {q} must lie inside the support gap |k| < {d.k_min}")
    return RetardedPart(evaluate=lambda p0: retarded_part_shifted(d, p0, q, tol),
                        source=d, subtraction_point=q)


def polynomial_residual(r_a: RetardedPart, r_b: RetardedPart,
                        grid) -> PolynomialResidual:
    """Fit a polynomial of degree <= omega to (r_a - r_b) on the grid.

    Orientation is fixed as r_a - r_b.  The deviation is the max modulus of
    the complex difference minus the (real-coefficient) fit, so imaginary
    leftovers are not silently dropped.
    """
    if r_a.source is not r_b.source and r_a.source != r_b.source:
        raise ValueError("both retarded parts must come from the same distribution")
    omega = r_a.source.singular_order
    grid = np.asarray(list(grid), dtype=float)
    if grid.size < omega + 2:
        raise ValueError(f"need more than omega+1 = {omega + 1} grid points, got {grid.size}")
    diff = np.array([r_a.evaluate(x) - r_b.evaluate(x) for x in grid], dtype=complex)
    v = np.vander(grid, omega + 1, increasing=True)
    coef, *_ = np.linalg.lstsq(v, diff.real, rcond=None)
    dev = float(np.abs(diff - v @ coef).max())
    return PolynomialResidual(coefficients=tuple(float(c) for c in coef),
                              max_abs_deviation=dev)


def validate_distribution(d: CausalDistribution1D, rng=None, n_points: int = 64,
                          atol: float = 1e-12) -> None:
    """Sampled checks of the declared invariants (gap, parity, growth)."""
    rng = rng or np.random.RandomState(0)
    if d.k_min > 0:
        kg = rng.uniform(-d.k_min, d.k_min, n_points) * 0.999
        vals = d.evaluate(kg)
        if np.any(vals != 0):
            raise SupportError("evaluate must vanish identically inside the gap")
    if d.parity != "none":
        k = rng.uniform(d.k_min * 1.01 + 0.1, d.k_min + 10.0, n_points)
        sign = 1.0 if d.parity == "even" else -1.0
        left = d.evaluate(-k)
        right = sign * d.evaluate(k)
        scale = np.abs(right).max()
        if scale > 0 and np.abs(left - right).max() > atol * scale:
            raise ValueError(f"declared parity {d.parity!r} violated")
    k_big = np.array([100.0, 1000.0]) * max(1.0, d.k_min)
    vals = np.abs(d.evaluate(k_big)) / k_big.astype(float) ** d.large_k_growth
    if vals[0] > 0 and not (0.5 < vals[1] / vals[0] < 2.0):
        raise ValueError("large-k growth bound looks violated "
                         f"(normalized magnitudes {vals})")
