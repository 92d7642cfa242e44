"""Retarded/advanced parts of 1-D momentum-space causal distributions.

A causal distribution here is d(k) = i g(k), g real, supported on
|k| >= k_min > 0 with power-counting singular order omega.  Its central
retarded part is the subtracted dispersion integral

    r(p0) = (i/2pi) p0^(omega+1) int dk  d(k) / [(k - i0)^(omega+1) (p0 - k + i0)]

with the i0 prescriptions resolved analytically before quadrature: because
the support excludes k = 0, the subtraction kernel is regular there, and the
p0 pole contributes a principal value plus the Sokhotski-Plemelj term
-i pi d(p0), i.e. a pole term d(p0)/2 after the prefactor.  No finite-epsilon
limits are taken numerically.

Shifting the Taylor subtraction point from 0 to q (off support) gives another
valid retarded part; any two differ by a polynomial of degree <= omega.

Every evaluation goes through _split_values, which advances the dispersion
integrals of many points together (retarded_parts_central); a single point
is its one-point case, with the same floats.  The quadrature integrates the
real g, and the factor i enters where the values are formed.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import BranchPointError, QuadratureConvergenceError, SupportError
from .numerics import STEPS, exp_sinh, ladder, tanh_sinh

__all__ = [
    "CausalDistribution1D",
    "PolynomialResidual",
    "retarded_part_central",
    "retarded_parts_central",
    "retarded_part_shifted",
    "advanced_part",
    "advanced_part_mirrored",
    "polynomial_residual",
]

DEFAULT_TOL = 1e-11

# evaluation points this close to the support edge are refused
BRANCH_GUARD = 1e-9

# the dispersion integrals of at most this many points are evaluated together,
# so the working arrays do not grow with the grid
SPLIT_CHUNK_POINTS = 128


@dataclass(frozen=True)
class CausalDistribution1D:
    """Momentum-space causal distribution d(k) = i g(k) with a support gap
    at the origin.

    g is real: the distributions of a resting atom are imaginary (or zero).
    It must be numpy-vectorized, return a new float array (the dispersion
    integrand is formed in it) and return exactly 0 for |k| < k_min.
    """

    g: Callable[[np.ndarray], np.ndarray]
    singular_order: int
    k_min: float

    def __post_init__(self):
        if self.singular_order < -1:
            raise ValueError("singular order must be >= -1")
        if self.k_min < 0:
            raise ValueError("k_min must be >= 0")

    def evaluate(self, k):
        """d(k) = i g(k)."""
        return 1j * self.g(k)


@dataclass(frozen=True)
class PolynomialResidual:
    """Least-squares polynomial fitted to the difference of two retarded parts."""

    coefficients: tuple
    max_abs_deviation: float


def _near_edge(d: CausalDistribution1D, p0, tol: float):
    """Whether |p0| (a scalar or an array) lies too near the support edge to
    be split."""
    return np.abs(np.abs(p0) - d.k_min) <= max(tol, BRANCH_GUARD)


def _check_point(d: CausalDistribution1D, p0: float, tol: float):
    if _near_edge(d, p0, tol):
        raise BranchPointError(
            f"|p0| = {abs(p0)} lies within {max(tol, BRANCH_GUARD)} of the "
            f"support edge k_min = {d.k_min}")


def _power(x, n: int):
    """x ** n for an int n >= 0 as ((x * x) * x) * ..., one multiplication
    per order above the first.

    The subtraction kernel's (k - q)^(omega+1) is formed this way because
    numpy's power takes a slow path on a negative base (about 180 ns per
    element against 5 for a positive one), and every grid meets negative
    nodes: the other side, and for u < -1 the pole side.
    """
    if n == 0:
        return 1.0
    power = x
    for _ in range(n - 1):
        power = power * x
    return power


def _dispersion(d: CausalDistribution1D, p, q: float, tol: float):
    """The regular dispersion integral of g at each point p0 of the array p,
    on the step ladder of numerics: (values, error estimates, node counts).

    With s = sgn p0, P = |p0|, S = max(k_min, P) and G(k) = g(k)/(k - q)^(omega+1),
    the integrand is G(k)/(p0 - k), and its pieces are:
      on the support, pole side: the fold int_0^h (G(p0 - st) - G(p0 + st))/(st) dt
        with h = min(P - k_min, P/2), by tanh-sinh; the near piece
        [k_min, P - h], by tanh-sinh in ln k (empty unless P > 2 k_min); and
        the far piece [P + h, inf), by exp-sinh at the scale S;
      on the support, other side: [k_min, S] by tanh-sinh in ln k, then
        [S, inf) by exp-sinh at the scale S (one exp-sinh rule on
        [k_min, inf) at the scale S reads 30% low at |p0| = 1e30);
      off the support: both sides summed in one exp-sinh rule on [k_min, inf).
    Each p0 - k is formed where it cannot cancel.  The points of each of the
    three piece lists run through one ladder.  Raises
    QuadratureConvergenceError for the first point in order that does not
    converge by the last step; a FloatingPointError of the integrand
    propagates.
    """
    k_min, om1 = d.k_min, d.singular_order + 1
    ln_min = math.log(k_min)

    def G(k):
        y = d.g(k)
        y /= _power(k - q if q else k, om1)
        return y

    def term(y, den, weight):
        """y / den * weight, formed in y."""
        y /= den
        y *= weight
        return y

    def off_terms(n, p0, s, P, S, h):
        e, v = exp_sinh(n)
        k = k_min + k_min * e
        # G(k)/(p0 - k) + G(-k)/(p0 + k) over one denominator: the two
        # sides cancel to O(p0) at small p0, and for odd g exactly so
        up, down = G(k), G(-k)
        y = p0 * (up + down)
        y += k * (up - down)
        return [term(y, (p0 - k) * (p0 + k), k_min * v)]

    def on_terms(n, p0, s, P, S, h, wide):
        x, w = tanh_sinh(n)
        e, v = exp_sinh(n)
        st = s * (h * x)
        fold = G(p0 - st)
        fold -= G(p0 + st)
        terms = [term(fold, st, h * w)]
        near = [(s, np.log(P - h))] if wide else []
        for side, top in near + [(-s, np.log(S))]:
            span = top - ln_min
            k = np.exp(ln_min + span * x)
            sk = side * k
            k *= span
            k *= w   # the weight k (top - ln k_min) w of the map to ln k
            terms.append(term(G(sk), p0 - sk, k))
        Se, Sv = S * e, S * v
        sk = s * (h + Se)   # s times the far piece's k - P
        terms.append(term(G(p0 + sk), -sk, Sv))
        Se += S
        Se *= s             # s k on the other side's tail, k = S + S e
        terms.append(term(G(-Se), p0 + Se, Sv))
        return terms

    s, P = np.sign(p), np.abs(p)
    S = np.maximum(k_min, P)
    wide = 0.5 * P > k_min
    h = np.where(wide, 0.5 * P, P - k_min)
    on = P > k_min
    value, err = np.zeros(len(p)), np.zeros(len(p))
    nodes, failed = np.zeros(len(p), dtype=int), []
    for rows, terms in ((~on, off_terms), (on & ~wide, functools.partial(on_terms, wide=False)),
                        (wide, functools.partial(on_terms, wide=True))):
        idx = np.flatnonzero(rows)
        if not idx.size:
            continue
        cols = [c[idx, None] for c in (p, s, P, S, h)]

        def sums(n, r, terms=terms, cols=cols):
            y = np.concatenate(terms(n, *(c[r] for c in cols)), axis=1)
            return y.sum(axis=1), np.abs(y).sum(axis=1), np.full(len(r), y.shape[1])

        value[idx], err[idx], nodes[idx], bad = ladder(sums, len(idx), tol)
        failed += idx[bad].tolist()
    if failed:
        j = min(failed)
        raise QuadratureConvergenceError(
            f"dispersion integral at p0 = {float(p[j])} did not converge by step "
            f"h = 1/{STEPS[-1]} (error estimate {err[j]:.3e} of the value {value[j]:.3e})")
    return value, err, nodes


def _chunk(d: CausalDistribution1D, p, q: float, tol: float):
    """_dispersion at the points p under float traps.  A FloatingPointError
    becomes a QuadratureConvergenceError that names the first point in order
    that fails, found by running the points one at a time."""
    with np.errstate(divide="raise", invalid="raise", over="raise"):
        try:
            return _dispersion(d, p, q, tol)
        except FloatingPointError:
            for j in range(len(p)):
                try:
                    _dispersion(d, p[j:j + 1], q, tol)
                except FloatingPointError as exc:
                    raise QuadratureConvergenceError(
                        f"dispersion integral at p0 = {float(p[j])} failed: {exc}") from exc
            raise   # not reached: a point's arithmetic does not depend on the others


def _split_values(d: CausalDistribution1D, p0s, q: float, tol: float,
                  pole_sign: float = 1.0):
    """Dispersion integrals with Taylor subtraction about k = q at every p0.

    pole_sign = 1 resolves 1/(p0 - k + i0) (retarded); -1 resolves the
    mirrored 1/(p0 - k - i0), whose delta term has the opposite sign.

    The points go through _dispersion SPLIT_CHUNK_POINTS at a time; each
    point gets the floats it gets alone.  Returns (values, node counts,
    error estimates) per point, the estimate |I_h - I_2h| scaled like the
    value by |p0 - q|^(omega+1)/(2 pi).  Raises for the first failing point
    in order, as a loop over the points would.
    """
    if p0s and d.k_min == 0.0:
        raise SupportError("distribution support must exclude k = 0")
    p0s = np.array(p0s, dtype=float)
    # at p0 = q = 0 the p0^(omega+1) prefactor kills the regular integral
    integrated = (p0s != 0.0) | (q != 0.0)
    p = p0s[integrated]
    parts = [_chunk(d, p[i:i + SPLIT_CHUNK_POINTS], q, tol)
             for i in range(0, len(p), SPLIT_CHUNK_POINTS)] or [(np.zeros(0),) * 3]
    total, err, nodes = (np.concatenate(c) for c in zip(*parts))
    om1 = d.singular_order + 1
    scale = [(p0 - q) ** om1 for p0 in p.tolist()]   # scalar pow: numpy's rounds differently
    c = 1j / (2.0 * math.pi)
    # the integral is that of g; times i, it is that of d
    values = [c * s * complex(0.0, g) for s, g in zip(scale, total.tolist())]
    on = np.abs(p) > d.k_min
    for j, g in zip(np.flatnonzero(on).tolist(), d.g(p[on]).tolist()):
        # Sokhotski-Plemelj: 1/(p0-k+i0) -> PV - i pi delta(k-p0); the
        # (p0-q)^(omega+1) prefactor cancels against the subtraction kernel.
        values[j] += 0.5j * pole_sign * g
    value, evaluations, error = (np.zeros(len(p0s), dtype=complex),
                                 np.zeros(len(p0s), dtype=int), np.zeros(len(p0s)))
    value[integrated] = values
    evaluations[integrated] = nodes
    error[integrated] = np.abs(scale) / (2.0 * math.pi) * err
    return value, evaluations, error


def _split_value(d: CausalDistribution1D, p0: float, q: float, tol: float,
                 pole_sign: float = 1.0) -> complex:
    """_split_values at one point."""
    return complex(_split_values(d, [p0], q, tol, pole_sign)[0][0])


def retarded_part_central(d: CausalDistribution1D, p0: float,
                          tol: float = DEFAULT_TOL) -> complex:
    """Central splitting solution (subtraction about the origin) at p0."""
    _check_point(d, p0, tol)
    return _split_value(d, p0, 0.0, tol)


def retarded_parts_central(d: CausalDistribution1D, p0s,
                           tol: float = DEFAULT_TOL):
    """retarded_part_central at every p0, the dispersion integrals advanced
    together: (values, evaluations, error estimates) per point, as
    _split_values returns them.

    Raises for the first failing point in order, as a loop over
    retarded_part_central would; points after a branch point are not
    integrated.
    """
    p0s = np.array(p0s, dtype=float)
    near = _near_edge(d, p0s, tol)
    n = int(np.argmax(near)) if near.any() else len(p0s)
    out = _split_values(d, p0s[:n].tolist(), 0.0, tol)
    if n < len(p0s):
        _check_point(d, float(p0s[n]), tol)
    return out


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


def polynomial_residual(d: CausalDistribution1D, q: float, grid,
                        tol: float = DEFAULT_TOL) -> PolynomialResidual:
    """Fit a polynomial of degree <= omega to the central retarded part of d
    minus the one subtracted about q, on the grid.

    Orientation is fixed as central - shifted.  The deviation is the max
    modulus of the complex difference minus the (real-coefficient) fit, so
    imaginary leftovers are not silently dropped.
    """
    omega = d.singular_order
    grid = np.asarray(list(grid), dtype=float)
    if grid.size < omega + 2:
        raise ValueError(f"need more than omega+1 = {omega + 1} grid points, got {grid.size}")
    diff = np.array([retarded_part_central(d, x, tol) - retarded_part_shifted(d, x, q, tol)
                     for x in grid], dtype=complex)
    v = np.vander(grid, omega + 1, increasing=True)
    coef, *_ = np.linalg.lstsq(v, diff.real, rcond=None)
    dev = float(np.abs(diff - v @ coef).max())
    return PolynomialResidual(coefficients=tuple(float(c) for c in coef),
                              max_abs_deviation=dev)

