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
from .splitting import CausalDistribution1D

__all__ = [
    "NormalizationConstants",
    "SelfEnergyValue",
    "d2_scale",
    "d2_tilde",
    "d2_tilde_general",
    "r2prime_tilde",
    "r2_tilde_closed",
    "t2_sym",
    "t2_prefactor",
    "r2_prefactor",
    "t2_bracket_resonant",
    "as_causal_distribution",
]

TWO_PI = 2.0 * math.pi

# the extended real-difference fit has 4 terms; one more leaves a residual
MIN_SPLIT_POINTS = 5
MAX_SPLIT_POINTS = 100_000


@dataclass(frozen=True)
class NormalizationConstants:
    """Coefficients of the degree-2 splitting-ambiguity polynomial."""

    c0: float = 0.0
    c1: float = 0.0
    c2: float = 0.0

    def __post_init__(self):
        for v in (self.c0, self.c1, self.c2):
            if not math.isfinite(v):
                raise ValueError("normalization constants must be finite")


@dataclass(frozen=True)
class SelfEnergyValue:
    """Self-energy amplitude split into its bracket pieces (all in bracket
    units; multiply by ``prefactor`` for SI)."""

    total: complex
    log_term: complex
    pole_term: complex
    step_term: complex
    polynomial_term: complex
    prefactor: float


# ---------------------------------------------------------------------------
# prefactors
# ---------------------------------------------------------------------------

def d2_scale(atom) -> float:
    """Magnitude of the causal distribution: |d_eg|^2/(12 eps0 hbar c (2pi)^3 lb^3)."""
    k = atom.constants
    return atom.d_eg_abs ** 2 / (
        12.0 * k.eps0 * k.hbar * k.c * TWO_PI ** 3 * atom.lambda_bar_g ** 3)


def r2_prefactor(atom) -> float:
    k = atom.constants
    return atom.d_eg_abs ** 2 / (
        6.0 * TWO_PI ** 4 * k.hbar * k.c * k.eps0 * atom.lambda_bar_g ** 3)


def t2_prefactor(atom) -> float:
    k = atom.constants
    return atom.d_eg_abs ** 2 / (
        12.0 * TWO_PI ** 4 * k.eps0 * k.c * k.hbar * atom.lambda_bar_g ** 3)


# ---------------------------------------------------------------------------
# the distribution that gets split
# ---------------------------------------------------------------------------

def _core(u):
    """theta(u^2-1) sgn(u) (u^2-1)^3/u^4, stable for very large |u|."""
    u = np.asarray(u, dtype=float)
    out = np.zeros_like(u)
    m = u * u > 1.0
    um = u[m]
    out[m] = np.sign(um) * um * um * (1.0 - 1.0 / (um * um)) ** 3
    return out


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
    """Second normal-ordering contribution: supported on u < -1 only, where it
    coincides with d2_tilde."""
    if abs(abs(u) - 1.0) < 1e-14:
        raise BranchPointError(f"u = {u} is on the branch surface |u| = 1")
    if u >= 0.0 or u * u <= 1.0:
        return 0.0 + 0.0j
    x = u * u - 1.0
    return -1j * d2_scale(atom) * x ** 3 / u ** 4


def as_causal_distribution(atom, unit_scale: bool = False) -> CausalDistribution1D:
    """Wrap the rest-frame distribution for the splitting module.

    The object handed to the splitting integral carries both normal-ordering
    terms of the self-energy, i.e. twice the single-ordering amplitude; this
    is the normalization whose central retarded part reproduces the closed
    form r2_tilde_closed (tests pin this).  With ``unit_scale`` the SI
    prefactor is dropped (evaluate = 2i * core), which is convenient for
    scale-free polynomial-residual checks.
    """
    scale = 1.0 if unit_scale else d2_scale(atom)

    def evaluate(kk):
        return 2j * scale * _core(kk)

    return CausalDistribution1D(evaluate=evaluate, singular_order=2,
                                k_min=1.0, parity="odd", large_k_growth=2)


# ---------------------------------------------------------------------------
# closed-form retarded part and symmetrized combination
# ---------------------------------------------------------------------------

def _check_regular(u: float):
    if u == 0.0 or abs(abs(u) - 1.0) < 1e-14:
        raise SingularPointError(f"closed form singular at u = {u} (u in {{0, +-1}})")
    # the front term's x^3/(2u^4) in Python floats, which overflow without warnings
    u2 = float(u) * float(u)
    x = u2 - 1.0
    if not (u2 * u2 > 0.0 and math.isfinite(x * x * x / (2.0 * u2 * u2))):
        raise SingularPointError(f"closed form leaves the float range at u = {u}")


def _front_term(u, x, ln_abs_x, step):
    """x^3/(2u^4) (step - 2 ln|x|), the branch-cut and log part of every bracket.

    Generic over float, ndarray and mpf.  The caller supplies x = u^2 - 1
    and ln|x| in whatever cancellation-free form it has, and step (2 pi i
    on the support, 0 off it).
    """
    return x ** 3 / (2 * u ** 4) * (step - 2 * ln_abs_x)


def _sym_bracket(u, x, ln_abs_x, step, c: NormalizationConstants):
    """Symmetrized bracket, generic over float, ndarray and mpf:
    B = x^3/(2u^4) (step - 2 ln|x|) + 1/u^2 - 5/2 + 11u^2/6 + C0 + C1 u + C2 u^2,
    with the arguments of _front_term.  The terms are added left to right;
    the CLI output depends on that order to the last bit.
    """
    return (_front_term(u, x, ln_abs_x, step) + 1.0 / u ** 2 - 2.5
            + 11.0 * u ** 2 / 6.0 + c.c0 + c.c1 * u + c.c2 * u ** 2)


def r2_tilde_closed(u: float, atom) -> SelfEnergyValue:
    """Closed-form retarded self-energy at rest.

    Its rational part is half the symmetrized one, but it is summed in its
    own order (pole, then the grouped polynomial), which split-check output
    depends on to the last bit; so only the front term is shared.
    """
    _check_regular(u)
    x = u * u - 1.0
    front = _front_term(u, x, math.log(abs(x)),
                        2j * math.pi * math.copysign(1.0, u) if x > 0.0 else 0.0)
    pole = 1.0 / (2.0 * u * u)
    poly = -1.25 + 11.0 * u * u / 12.0
    pref = r2_prefactor(atom)
    total = pref * (front + pole + poly)
    return SelfEnergyValue(total=total, log_term=front.real, pole_term=pole,
                           step_term=1j * front.imag, polynomial_term=poly,
                           prefactor=pref)


def t2_sym(u: float, atom, c: NormalizationConstants = NormalizationConstants()) -> SelfEnergyValue:
    """Symmetrized self-energy combination for a resting atom."""
    _check_regular(u)
    x = u * u - 1.0
    args = (u, x, math.log(abs(x)), 2j * math.pi if x > 0.0 else 0.0)
    front = _front_term(*args)
    bracket = _sym_bracket(*args, c)
    pole = 1.0 / u ** 2
    pref = t2_prefactor(atom)
    # the polynomial term is what the bracket holds beyond front and pole
    return SelfEnergyValue(total=pref * bracket, log_term=front.real, pole_term=pole,
                           step_term=1j * front.imag,
                           polynomial_term=(bracket - front - pole).real,
                           prefactor=pref)


def t2_bracket_resonant(delta_u, c: NormalizationConstants, offset=0.0):
    """Symmetrized bracket at u = 1 + delta_u + offset, cancellation-free.

    u^2 - 1 is formed as (u-1)(u+1) with u-1 = delta_u + offset held exactly,
    so the bracket stays accurate for delta_u down to ~1e-16.  Vectorized
    over ``offset`` (used for narrow frequency windows around resonance).
    """
    um1 = np.asarray(delta_u + offset, dtype=float)   # u - 1
    x = um1 * (2.0 + um1)                             # u^2 - 1, exact
    ax = np.maximum(np.abs(x), 1e-300)  # clamp: log finite even at grid points
    step = np.where(x > 0.0, 2j * math.pi, 0.0)
    return _sym_bracket(1.0 + um1, x, np.log(ax), step, c)


# ---------------------------------------------------------------------------
# numeric-vs-closed-form comparison (surfaced by the CLI split-check)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SplitCheckReport:
    """Central splitting of the wrapped distribution vs the closed form.

    The imaginary parts must agree to quadrature accuracy.  The real parts
    are NOT asserted equal: their difference is fitted and reported.  On
    [1.05, 5] the difference observed is pref * (5/4 - 11 u^2/12 - 1/(2 u^2)),
    i.e. the closed form and the central splitting disagree by the rational
    (non-polynomial, 1/u^2-containing) part of the bracket; the degree-2
    polynomial fit deviation quantifies how far from a pure renormalization
    ambiguity that is.
    """

    u: np.ndarray
    re_closed: np.ndarray
    im_closed: np.ndarray
    re_numeric: np.ndarray
    im_numeric: np.ndarray
    im_rel_err: np.ndarray
    real_fit_coefficients: tuple      # degree <= 2, bracket (prefactor) units
    real_fit_max_deviation: float     # bracket units
    real_fit_extended_coefficients: tuple  # basis {1, u, u^2, 1/u^2}
    real_fit_extended_max_deviation: float


def check_split_points(n: int) -> None:
    """Refuse a split-check grid of ``n`` distinct points that the real fit
    cannot over-determine, or that exceeds MAX_SPLIT_POINTS."""
    if n < MIN_SPLIT_POINTS:
        raise GridResolutionError(
            f"split check needs at least {MIN_SPLIT_POINTS} distinct points (4-term "
            f"real fit plus one residual degree of freedom), got {n}")
    if n > MAX_SPLIT_POINTS:
        raise GridResolutionError(
            f"split check takes at most {MAX_SPLIT_POINTS} points, got {n}")


def check_split_grid(u_min: float, u_max: float, n: int) -> None:
    """Refuse a split-check grid before it is allocated: a point count that
    check_split_points refuses, or an endpoint that is not finite or at which
    the closed form cannot be evaluated (np.linspace overflows between ends
    that far out)."""
    check_split_points(n)
    for name, u in (("u_min", u_min), ("u_max", u_max)):
        if not math.isfinite(u):
            raise GridResolutionError(f"{name} must be finite, got {u}")
        _check_regular(u)


def split_check_report(atom, u_values, tol: float = 1e-11) -> SplitCheckReport:
    from .splitting import retarded_part_central  # local import keeps module load light

    u = np.asarray(list(u_values), dtype=float)
    # distinct values = positive gaps in sorted order + 1 (NaN gaps count as none);
    # np.unique would import numpy.ma
    check_split_points(int(np.count_nonzero(np.diff(np.sort(u)) > 0)) + min(u.size, 1))
    dist = as_causal_distribution(atom)
    pref = r2_prefactor(atom)
    closed = np.array([r2_tilde_closed(x, atom).total for x in u])
    numeric = np.array([retarded_part_central(dist, float(x), tol) for x in u])
    # off the support the closed form is real: scale by its modulus instead
    scale = np.where(closed.imag != 0.0, np.abs(closed.imag), np.abs(closed))
    im_rel = np.abs(numeric.imag - closed.imag) / scale

    diff = (closed.real - numeric.real) / pref
    v = np.vander(u, 3, increasing=True)
    coef, *_ = np.linalg.lstsq(v, diff, rcond=None)
    dev = float(np.abs(diff - v @ coef).max())
    v_ext = np.column_stack([np.ones_like(u), u, u ** 2, u ** -2.0])
    coef_ext, *_ = np.linalg.lstsq(v_ext, diff, rcond=None)
    dev_ext = float(np.abs(diff - v_ext @ coef_ext).max())
    return SplitCheckReport(
        u=u, re_closed=closed.real, im_closed=closed.imag,
        re_numeric=numeric.real, im_numeric=numeric.imag, im_rel_err=im_rel,
        real_fit_coefficients=tuple(float(x) for x in coef),
        real_fit_max_deviation=dev,
        real_fit_extended_coefficients=tuple(float(x) for x in coef_ext),
        real_fit_extended_max_deviation=dev_ext,
    )
