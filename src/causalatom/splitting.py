"""Retarded/advanced parts of 1-D momentum-space causal distributions.

A causal distribution here is d(k) = i g(k), g real, supported on
|k| >= k_min > 0: a resting-atom self-energy, whose power counting gives
the singular order omega = 2.  Its retarded part, subtracted about a point
q of the support gap, is the dispersion integral

    r(p0) = (i/2pi) (p0 - q)^3 int dk  d(k) / [(k - q)^3 (p0 - k + i0)]

with the i0 prescriptions resolved analytically before quadrature: because
the support excludes the gap, the subtraction kernel is regular there, and
the p0 pole contributes a principal value plus the Sokhotski-Plemelj term
-i pi d(p0), i.e. a pole term d(p0)/2 after the prefactor.  No finite-epsilon
limits are taken numerically.  q = 0 is the central splitting; any two
choices of q give parts that differ by a quadratic C0 + C1 p0 + C2 p0^2.

split is the one entry point: it advances the dispersion integrals of many
points together, and a point gets the same floats alone as in any batch.
The quadrature integrates the real g, and the factor i enters where the
values are formed.  Every distribution here is odd, so the integral over
k < 0 is one over k > 0: the quadrature reads the distribution's kernel
g(k)/k^3 at k > 0 only, and g under a subtraction point q != 0.  Nothing
here has a unit: the splitting is linear in d, so a physical prefactor is
the caller's, applied to what split returns.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import BranchPointError, QuadratureConvergenceError, SupportError
from .numerics import STEPS, _frozen, check_tol, exp_sinh, ladder, tanh_sinh

__all__ = [
    "CausalDistribution1D",
    "PolynomialResidual",
    "split",
    "polynomial_residual",
]

DEFAULT_TOL = 1e-11

# omega: two splittings differ by a polynomial of this degree
SINGULAR_ORDER = 2

# evaluation points this close to the support edge are refused
BRANCH_GUARD = 1e-9

# the dispersion integrals of at most this many points are evaluated together,
# so the working arrays do not grow with the grid
SPLIT_CHUNK_POINTS = 128


@dataclass(frozen=True)
class CausalDistribution1D:
    """Momentum-space causal distribution d(k) = i g(k) with a support gap
    at the origin.

    g is real and odd, g(-k) = -g(k): the distributions of a resting atom
    are imaginary (or zero) and odd.  It must be numpy-vectorized and
    return exactly 0 for |k| < k_min.  kernel is g(k)/k^3 at k > 0,
    numpy-vectorized, returning a new float array (the dispersion integrand
    is formed in it); its values below k_min are never read.  The dispersion
    integral runs on k > 0 through the oddness of g and reads the kernel
    there; g itself is read at the points, for the pole term, and under a
    subtraction point q != 0.
    """

    g: Callable[[np.ndarray], np.ndarray]
    kernel: Callable[[np.ndarray], np.ndarray]
    k_min: float

    def __post_init__(self):
        if not self.k_min > 0:
            raise ValueError(f"support must exclude k = 0: k_min must be > 0, got {self.k_min}")


class PolynomialResidual(NamedTuple):
    """Least-squares polynomial fitted to the difference of two retarded parts."""

    coefficients: tuple
    max_abs_deviation: float


def _cube(x):
    """x^3 as (x * x) * x: split's prefactor (p0 - q)^3 and the subtraction
    kernel's (k - s q)^3.

    numpy's power takes a slow path on a negative base (about 180 ns per
    element against 5 for a positive one), which every p0 < q meets.  The
    products are IEEE operations, so their bits do not depend on the CPU.
    """
    return x * x * x


@functools.cache
def _tables(n: int):
    """The nodes that step 1/n adds and their node-only factors: tanh-sinh's
    (x, w, w/x) and exp-sinh's (e, v, 1 + e)."""
    x, w = tanh_sinh(n)
    e, v = exp_sinh(n)
    return (x, w, *_frozen(w / x), e, v, *_frozen(1.0 + e))


def _dispersion(d: CausalDistribution1D, p, q: float, tol: float):
    """The regular dispersion integral of g at each point p0 of the array p,
    on the step ladder of numerics: (values, error estimates, node counts).

    With s = sgn p0, P = |p0| and S = max(k_min, P), the integrand is
    g(k)/((k - q)^3 (p0 - k)).  g is odd, so at k > 0 the pole side k -> s k
    reads s G_s(k)/(P - k) and the other side k -> -s k reads
    s G_-s(k)/(P + k), with G_s(k) = g(k)/(k - s q)^3: the kernel g(k)/k^3
    at q = 0.  Every node is a k > 0, and the pieces are:
      on the support, pole side: the fold int_0^h (G_s(P - t) - G_s(P + t))/t dt
        with h = min(P - k_min, P/2), by tanh-sinh; the near piece
        [k_min, P - h], by tanh-sinh in ln k (empty unless P > 2 k_min); and
        the far piece [P + h, inf), by exp-sinh at the scale S;
      on the support, other side: [k_min, S] by tanh-sinh in ln k, then
        [S, inf) by exp-sinh at the scale S (one exp-sinh rule on
        [k_min, inf) at the scale S reads 30% low at |p0| = 1e30);
      off the support: both sides summed in one exp-sinh rule on [k_min, inf).
    Each P - k is formed where it cannot cancel.  A piece's terms carry the
    factors of its nodes alone (w/x, 1 + e); the factors of a point (s, the
    span of a ln k map, S) multiply its row sums, and their moduli the sums
    of |terms|.  The points of each of the three piece lists run through
    one ladder.  Raises QuadratureConvergenceError for the first point in
    order that does not converge by the last step; a FloatingPointError of
    the integrand propagates.
    """
    k_min = d.k_min
    ln_min = math.log(k_min)

    def G(k, sq):
        """G_s(k) at k > 0, for sq = s q."""
        return d.g(k) / _cube(k - sq) if q else d.kernel(k)

    def term(y, den, weight):
        """y / den * weight, formed in y."""
        y /= den
        y *= weight
        return y

    def off_pieces(n, s, P, S, h, sq):
        e, v, e1 = _tables(n)[3:]
        k = k_min * e1
        # s G_s(k)/(P - k) + s G_-s(k)/(P + k) over one denominator: the two
        # sides cancel to O(p0) at small p0 (at q = 0, up - down is 0)
        up, down = G(k, sq), G(k, -sq)
        y = P * ((up + down) * v)
        y += (k * v) * (up - down)
        y /= (P - k) * (P + k)
        yield y, k_min * s

    def on_pieces(n, s, P, S, h, sq, wide):
        x, w, wx, e, v, e1 = _tables(n)
        t = h * x
        y = G(P - t, sq)
        y -= G(P + t, sq)
        y *= wx
        yield y, s
        # in ln k, with the weight k (top - ln k_min) w of the map: the pole
        # side's near piece (sigma = 1) and the other side's (sigma = -1)
        for sigma, top in ([(1.0, P - h)] if wide else []) + [(-1.0, S)]:
            span = np.log(top) - ln_min
            k = np.exp(ln_min + span * x)
            yield term(G(k, sigma * sq), sigma * P - k, k * w), sigma * s * span
        a = h + S * e   # the far piece's k - P
        yield term(G(P + a, sq), a, v), -s * S
        k = S * e1      # the other side's tail
        yield term(G(k, -sq), P + k, v), s * S

    s, P = np.copysign(1.0, p), np.abs(p)
    S = np.maximum(k_min, P)
    wide = 0.5 * P > k_min
    h = np.where(wide, 0.5 * P, P - k_min)
    on = P > k_min
    value, err = np.zeros(len(p)), np.zeros(len(p))
    nodes, failed = np.zeros(len(p), dtype=int), []
    for rows, pieces in ((~on, off_pieces), (on & ~wide, functools.partial(on_pieces, wide=False)),
                         (wide, functools.partial(on_pieces, wide=True))):
        idx = np.flatnonzero(rows)
        if not idx.size:
            continue
        cols = [c[idx, None] for c in (s, P, S, h, s * q)]

        def sums(n, r, pieces=pieces, cols=cols):
            total = mag = 0.0
            count = 0
            for y, f in pieces(n, *(c[r] for c in cols)):
                f = f[:, 0]
                total = total + f * y.sum(axis=1)
                mag = mag + np.abs(f) * np.abs(y, out=y).sum(axis=1)
                count += y.shape[1]
            return total, mag, np.full(len(r), count)

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


def split(d: CausalDistribution1D, p0s, q: float = 0.0, tol: float = DEFAULT_TOL,
          pole_sign: float = 1.0):
    """The retarded part of d subtracted about k = q at every p0 of p0s, a
    scalar being a one-point grid: (values, node counts, error estimates)
    per point.

    pole_sign = 1 resolves 1/(p0 - k + i0) (retarded); -1 resolves the
    mirrored 1/(p0 - k - i0), whose pole term has the opposite sign: the
    advanced part, found independently of r - d.  The error estimate is
    |I_h - I_2h|, scaled like the value by |p0 - q|^3/(2 pi).

    The points go through _dispersion SPLIT_CHUNK_POINTS at a time; each
    point gets the floats it gets alone.  Raises ValueError for a tol not
    finite and > 0, SupportError for q outside the support gap, and
    otherwise for the first failing point in order, as a loop over the
    points would: points after a branch point are not integrated.
    """
    check_tol(tol)   # the guard below widens with tol: refuse it before any use
    if abs(q) >= d.k_min:
        raise SupportError(
            f"subtraction point q = {q} must lie inside the support gap |k| < {d.k_min}")
    p0s = np.array(p0s, dtype=float, ndmin=1)
    guard = max(tol, BRANCH_GUARD)
    near = np.abs(np.abs(p0s) - d.k_min) <= guard
    edge = int(np.argmax(near)) if near.any() else None
    p = p0s[:edge]
    total, err, nodes = np.zeros(len(p)), np.zeros(len(p)), np.zeros(len(p), dtype=int)
    # at p0 = q = 0 the (p0 - q)^3 prefactor kills the regular integral
    integrated = np.flatnonzero((p != 0.0) | (q != 0.0))
    for i in range(0, len(integrated), SPLIT_CHUNK_POINTS):
        rows = integrated[i:i + SPLIT_CHUNK_POINTS]
        total[rows], err[rows], nodes[rows] = _chunk(d, p[rows], q, tol)
    if edge is not None:
        raise BranchPointError(
            f"|p0| = {abs(float(p0s[edge]))} lies within {guard} of the "
            f"support edge k_min = {d.k_min}")
    scale = _cube(p - q)
    # the integral is that of g; times i, it is that of d
    values = 1j / (2.0 * math.pi) * scale * (1j * total)
    # Sokhotski-Plemelj: 1/(p0-k+i0) -> PV - i pi delta(k-p0); the
    # (p0-q)^3 prefactor cancels against the subtraction kernel
    values += 1j * np.where(np.abs(p) > d.k_min, 0.5 * pole_sign * d.g(p), 0.0)
    return values, nodes, np.abs(scale) / (2.0 * math.pi) * err


def polynomial_residual(d: CausalDistribution1D, q: float, grid,
                        tol: float = DEFAULT_TOL) -> PolynomialResidual:
    """Fit a polynomial of degree SINGULAR_ORDER to the central retarded part
    of d minus the one subtracted about q, on the grid.

    Orientation is fixed as central - shifted.  The deviation is the max
    modulus of the complex difference minus the (real-coefficient) fit, so
    imaginary leftovers are not silently dropped.
    """
    grid = np.asarray(list(grid), dtype=float)
    if grid.size < SINGULAR_ORDER + 2:
        raise ValueError(f"need more than {SINGULAR_ORDER + 1} grid points, got {grid.size}")
    shifted = split(d, grid, q, tol)[0]   # refuses q before any point is integrated
    diff = split(d, grid, tol=tol)[0] - shifted
    v = np.vander(grid, SINGULAR_ORDER + 1, increasing=True)
    coef, *_ = np.linalg.lstsq(v, diff.real, rcond=None)
    dev = float(np.abs(diff - v @ coef).max())
    return PolynomialResidual(coefficients=tuple(float(c) for c in coef),
                              max_abs_deviation=dev)

