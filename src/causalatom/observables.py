"""Physical constants, atom presets, decay rate and line-shift observables.

Every quantity is computed from an explicit PhysicalConstants instance; no
module-level globals feed the formulas (the CODATA2018 registry is just a
frozen instance callers pass around).

Series conventions: the atomic line shift is the real part of Z/t_g, where
Z = 2 (2pi)^2 c t_g T2s(u_res) w(u_res) and the resonant weight w is either
1/u_res (the reading consistent with the displayed fifth-power decay-rate
denominator; default) or exactly 1 (the literal proportionality).  The
low-order expansion in delta_u = u_res - 1,

    prefactor * [ -48 du^3 log(2 du) + c0 + c1 du + c2 du^2 + c3 du^3 ],

is produced both analytically (lineshift_series) and by fitting samples of
the bracket (extract_series_numerically); the two must agree, which is the
oracle pinning the closed form.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import mpmath as mp
import numpy as np

from .errors import CausalAtomError, FitResidualError, PresetError
from .numerics import solve_linear
from .selfenergy import (
    NormalizationConstants,
    _sym_bracket,
    t2_bracket_resonant,
    t2_prefactor,
)

__all__ = [
    "PhysicalConstants",
    "CODATA2018",
    "AtomParams",
    "LineShiftSeries",
    "DecayObservables",
    "ShiftRatio",
    "DISCREPANCY_NOTES",
    "hydrogen_1s2p_preset",
    "synthetic_atom",
    "atom_from_dict",
    "atom_to_dict",
    "gamma_exact",
    "gamma_leading",
    "lineshift_series",
    "extract_series_numerically",
    "solve_normalization",
    "NORMALIZATION_EXACT",
    "delta_final",
    "lineshift_log_bracket",
    "lamb_reference",
    "shift_ratio",
    "z_factor",
    "compute_decay_observables",
]

TWO_PI = 2.0 * math.pi


# ---------------------------------------------------------------------------
# constants registry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PhysicalConstants:
    hbar: float        # J s
    c: float           # m/s
    eps0: float        # F/m
    e_charge: float    # C
    a0: float          # m
    alpha: float       # dimensionless
    m_electron: float  # kg
    m_proton: float    # kg

    def __post_init__(self):
        for name in ("hbar", "c", "eps0", "e_charge", "a0", "alpha",
                     "m_electron", "m_proton"):
            if getattr(self, name) <= 0:
                raise ValueError(f"constant {name} must be positive")
        derived = self.e_charge ** 2 / (4.0 * math.pi * self.eps0 * self.hbar * self.c)
        if abs(derived / self.alpha - 1.0) > 1e-6:
            raise ValueError(
                f"inconsistent registry: e^2/(4 pi eps0 hbar c) = {derived} "
                f"vs alpha = {self.alpha}")


CONSTANTS_VERSION = "CODATA-2018"

CODATA2018 = PhysicalConstants(
    hbar=1.054571817e-34,
    c=299792458.0,
    eps0=8.8541878128e-12,
    e_charge=1.602176634e-19,
    a0=5.29177210903e-11,
    alpha=7.2973525693e-3,
    m_electron=9.1093837015e-31,
    m_proton=1.67262192369e-27,
)


# ---------------------------------------------------------------------------
# atom parameters
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AtomParams:
    """Two-level atom: ground-state mass, transition frequency, dipole matrix
    element magnitude, and interaction duration."""

    m_g: float        # kg
    omega_eg: float   # rad/s
    d_eg_abs: float   # C m
    t_g: float        # s
    constants: PhysicalConstants

    def __post_init__(self):
        for name in ("m_g", "omega_eg", "d_eg_abs", "t_g"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        for name in ("m_g", "omega_eg", "t_g"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.d_eg_abs < 0:
            raise ValueError("d_eg_abs must be >= 0")
        if self.delta_u >= 0.1:
            raise ValueError(
                f"delta_u = {self.delta_u:.3g} is not << 1; the resting-atom "
                "expansion breaks down (rejecting delta_u >= 0.1)")

    @property
    def lambda_bar_g(self) -> float:
        return self.constants.hbar / (self.m_g * self.constants.c)

    @property
    def m_e_state(self) -> float:
        """Excited-state mass m_g + hbar omega_eg / c^2."""
        return self.m_g + self.constants.hbar * self.omega_eg / self.constants.c ** 2

    @property
    def lambda_bar_e(self) -> float:
        return self.constants.hbar / (self.m_e_state * self.constants.c)

    @property
    def delta_u(self) -> float:
        return self.constants.hbar * self.omega_eg / (self.m_g * self.constants.c ** 2)

    @property
    def u_res(self) -> float:
        return 1.0 + self.delta_u


_ATOM_KEYS = ("m_g_kg", "omega_eg_rad_s", "d_eg_Cm", "t_g_s")


def atom_from_dict(doc: dict, constants: PhysicalConstants = CODATA2018) -> AtomParams:
    """Build AtomParams from a JSON-style document; unknown keys are rejected."""
    unknown = set(doc) - set(_ATOM_KEYS)
    if unknown:
        raise PresetError(f"unknown atom keys {sorted(unknown)}; allowed: {list(_ATOM_KEYS)}")
    missing = set(_ATOM_KEYS) - set(doc)
    if missing:
        raise PresetError(f"missing atom keys {sorted(missing)}")
    try:
        return AtomParams(m_g=float(doc["m_g_kg"]),
                          omega_eg=float(doc["omega_eg_rad_s"]),
                          d_eg_abs=float(doc["d_eg_Cm"]),
                          t_g=float(doc["t_g_s"]),
                          constants=constants)
    except (TypeError, ValueError) as exc:
        raise PresetError(f"invalid atom document: {exc}") from exc


def atom_to_dict(atom: AtomParams) -> dict:
    return {"m_g_kg": atom.m_g, "omega_eg_rad_s": atom.omega_eg,
            "d_eg_Cm": atom.d_eg_abs, "t_g_s": atom.t_g}


def hydrogen_1s2p_preset(k: PhysicalConstants = CODATA2018, t_g: float = 1.0) -> AtomParams:
    """Hydrogen 1s->2p parameters: hbar omega = 0.75 * 13.6 eV,
    |d_eg| = sqrt(2) 2^7 3^-5 e a0, m_g = m_p + m_e.

    t_g only scales Z; rates and shifts are per unit time.
    """
    omega = 0.75 * 13.6 * k.e_charge / k.hbar
    dipole = math.sqrt(2.0) * 2 ** 7 * 3 ** -5.0 * k.e_charge * k.a0
    return AtomParams(m_g=k.m_proton + k.m_electron, omega_eg=omega,
                      d_eg_abs=dipole, t_g=t_g, constants=k)


def synthetic_atom(delta_u: float, k: PhysicalConstants = CODATA2018,
                   t_g: float = 1.0) -> AtomParams:
    """Atom with a chosen delta_u (mass tuned to the hydrogen frequency and
    dipole).  All bracket formulas are scale-free in u, so convergence
    studies run at exaggerated delta_u where double precision can resolve
    the cubic terms; physical presets are used only for one-shot numbers.
    """
    if not 0.0 < delta_u < 0.1:
        raise ValueError("delta_u must be in (0, 0.1)")
    omega = 0.75 * 13.6 * k.e_charge / k.hbar
    dipole = math.sqrt(2.0) * 2 ** 7 * 3 ** -5.0 * k.e_charge * k.a0
    m_g = k.hbar * omega / (delta_u * k.c ** 2)
    return AtomParams(m_g=m_g, omega_eg=omega, d_eg_abs=dipole, t_g=t_g,
                      constants=k)


# ---------------------------------------------------------------------------
# decay rate
# ---------------------------------------------------------------------------

def gamma_leading(atom: AtomParams) -> float:
    """Leading-order two-level spontaneous emission rate |d|^2 w^3/(3 pi hbar eps0 c^3)."""
    k = atom.constants
    return atom.d_eg_abs ** 2 * atom.omega_eg ** 3 / (
        3.0 * math.pi * k.hbar * k.eps0 * k.c ** 3)


def gamma_exact(atom: AtomParams, denominator_power: int = 5) -> float:
    """All-orders rate delta_u^3 (2+delta_u)^3 |d|^2 / (24 pi (1+delta_u)^P eps0 hbar lb^3).

    P = 5 is the displayed closed-form denominator; P = 4 is what direct
    substitution of u = 1 + delta_u into the symmetrized bracket gives (the
    difference is the resonant weight, see z_factor).  Both are exposed;
    they differ at relative order delta_u.
    """
    if denominator_power not in (4, 5):
        raise ValueError("denominator_power must be 4 or 5")
    k = atom.constants
    du = atom.delta_u
    return (du ** 3 * (2.0 + du) ** 3 * atom.d_eg_abs ** 2 /
            (24.0 * math.pi * (1.0 + du) ** denominator_power
             * k.eps0 * k.hbar * atom.lambda_bar_g ** 3))


# ---------------------------------------------------------------------------
# Z factor
# ---------------------------------------------------------------------------

def z_factor(atom: AtomParams, c: NormalizationConstants = NormalizationConstants(),
             resonant_weight: str = "inverse_u") -> complex:
    """Scalar action of the second-order S-matrix term on a slow excited atom.

    Z = 2 (2pi)^2 c t_g T2s(u_res) w.  The slow-atom reduction leaves an
    O(delta_u) ambiguity in the energy-denominator weight w:
      "inverse_u"  w = 1/u_res, consistent with the displayed closed-form
                   rate (fifth-power denominator); default.
      "unity"      w = 1 exactly (literal proportionality; fourth power).
    The bracket is evaluated in the cancellation-free delta_u form, so
    arbitrarily small delta_u > 0 is fine.
    """
    if resonant_weight not in ("inverse_u", "unity"):
        raise ValueError("resonant_weight must be 'inverse_u' or 'unity'")
    k = atom.constants
    bracket = complex(t2_bracket_resonant(atom.delta_u, c))
    w = 1.0 / atom.u_res if resonant_weight == "inverse_u" else 1.0
    return 2.0 * TWO_PI ** 2 * k.c * atom.t_g * t2_prefactor(atom) * bracket * w


# ---------------------------------------------------------------------------
# line-shift series
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LineShiftSeries:
    """Bracket coefficients of the line shift: prefactor * [c_log3 du^3 log(2 du)
    + c0 + c1 du + c2 du^2 + c3 du^3] + O(du^4)."""

    c_log3: float
    c0: float
    c1: float
    c2: float
    c3: float
    prefactor: float  # |d|^2 / (144 pi^2 eps0 hbar lb^3),  1/s per bracket unit


def _shift_prefactor(atom: AtomParams) -> float:
    k = atom.constants
    return atom.d_eg_abs ** 2 / (144.0 * math.pi ** 2 * k.eps0 * k.hbar
                                 * atom.lambda_bar_g ** 3)


def lineshift_series(atom: AtomParams,
                     c: NormalizationConstants = NormalizationConstants()) -> LineShiftSeries:
    """Analytic expansion coefficients of the line-shift bracket."""
    c0, c1, c2 = c.c0, c.c1, c.c2
    return LineShiftSeries(
        c_log3=-48.0,
        c0=2.0 + 6.0 * (c0 + c1 + c2),
        c1=8.0 - 6.0 * c0 + 6.0 * c2,
        c2=3.0 * (2.0 * c0 + 7.0),
        c3=-3.0 * (2.0 * c0 + 15.0),
        prefactor=_shift_prefactor(atom),
    )


# Extraction grid: 40 log-spaced points on [1e-5, 1e-2].  Below 1e-5 the
# cubic and cubic-log columns are numerically collinear in double precision.
_EXTRACT_GRID_DECADES = (-5.0, -2.0)
_EXTRACT_POINTS = 40
# The sampled bracket is analytic-plus-log to all orders in delta_u, so the
# finite fit basis is extended with nuisance orders up to du^8 (du^k and
# du^k ln du) and solved in 50-digit arithmetic; truncation bias then sits
# near 1e-12 on every reported coefficient.  Plain double precision tops out
# around 5e-3 on the cubic coefficient, far above what the normalization
# solve needs.
_EXTRACT_MAX_ORDER = 8
_EXTRACT_DPS = 50


def _bracket_line_shift_mp(du, c: NormalizationConstants):
    """6 Re B(1 + du) / (1 + du) in mpmath arithmetic (bracket units)."""
    u = 1 + du
    x = du * (2 + du)
    lnx = mp.log(du) + mp.log(2 + du)
    re_b = _sym_bracket(u, x, lnx, 0, c)
    return 6 * re_b / u


@functools.cache
def _series_design():
    """Grid, column-scaled basis A (du^k, and du^k ln du for k >= 3), column
    scales, A^T and the LU factors of A^T A: the same for every atom and C.
    The factors are taken at mp.lu_solve's working precision, so solving
    against them reproduces its result bit for bit.  Every fit shares these
    matrices, so callers only read them."""
    with mp.workdps(_EXTRACT_DPS):
        lo, hi = _EXTRACT_GRID_DECADES
        grid = [mp.mpf(10) ** (lo + (hi - lo) * i / (_EXTRACT_POINTS - 1))
                for i in range(_EXTRACT_POINTS)]
        a = mp.matrix([[du ** k for k in range(3)]
                       + [v for k in range(3, _EXTRACT_MAX_ORDER + 1)
                          for v in (du ** k, du ** k * mp.log(du))] for du in grid])
        scale = [max(abs(a[i, j]) for i in range(a.rows)) for j in range(a.cols)]
        a = mp.matrix([[a[i, j] / scale[j] for j in range(a.cols)] for i in range(a.rows)])
        at = a.T
        normal = at * a  # at 50 digits; mp.lu_solve factors it 10 bits higher
        with mp.extraprec(10):
            lu = mp.mp.LU_decomp(normal)
    return grid, a, scale, at, lu


def extract_series_numerically(atom: AtomParams,
                               c: NormalizationConstants = NormalizationConstants()
                               ) -> LineShiftSeries:
    """Fit the line-shift bracket sampled from the closed form.

    This is the independent oracle for the analytic coefficients: samples of
    6 Re B(1+du)/(1+du) on the standard grid are fitted against
    {1, du, du^2, du^3, du^3 ln du} (plus higher nuisance orders; the ln 2 of
    log(2 du) is absorbed into the du^3 column and re-separated analytically).
    """
    grid, a, scale, at, (lu, perm) = _series_design()
    with mp.workdps(_EXTRACT_DPS):
        y = [_bracket_line_shift_mp(du, c) for du in grid]
        rhs = at * mp.matrix(y)
        with mp.extraprec(10):
            beta_scaled = mp.mp.U_solve(lu, mp.mp.L_solve(lu, rhs, perm))
        # columns 0..4 hold 1, du, du^2, du^3 and du^3 ln du
        c0, c1, c2, c3, c_log3 = (beta_scaled[j] / scale[j] for j in range(5))
        resid = max(abs(f - v) for f, v in zip(a * beta_scaled, y))
        coeffs = dict(c_log3=float(c_log3), c0=float(c0), c1=float(c1), c2=float(c2),
                      c3=float(c3 - c_log3 * mp.log(2)))
        # the constant coefficient dominates the sampled values on this grid,
        # so the data magnitude is its degenerate-fit-proof proxy
        leading = max(float(abs(v)) for v in y)
        if float(resid) > 1e-6 * leading:
            raise FitResidualError(
                f"series fit residual {float(resid):.3e} exceeds 1e-6 of the "
                f"leading coefficient scale {leading:.3e}")

    return LineShiftSeries(prefactor=_shift_prefactor(atom), **coeffs)


# ---------------------------------------------------------------------------
# normalization constants
# ---------------------------------------------------------------------------

NORMALIZATION_EXACT = NormalizationConstants(-3.5, 8.0, -29.0 / 6.0)


def solve_normalization(atom: AtomParams) -> NormalizationConstants:
    """Fix (C0, C1, C2) by requiring the du^0, du^1, du^2 bracket coefficients
    of the numerically extracted series to vanish.

    The fitted coefficients are exactly linear in C, so the 3x3 system is
    assembled from four extractions (origin plus unit vectors).  The residual
    cubic coefficient at the solution must match -3 (2 C0 + 15); a violation
    raises, since it would mean the extraction and the closed form disagree.
    """
    def low_coeffs(c):
        s = extract_series_numerically(atom, c)
        return np.array([s.c0, s.c1, s.c2])

    v0 = low_coeffs(NormalizationConstants())
    m = np.zeros((3, 3))
    units = (NormalizationConstants(1, 0, 0), NormalizationConstants(0, 1, 0),
             NormalizationConstants(0, 0, 1))
    for j, e in enumerate(units):
        m[:, j] = low_coeffs(e) - v0
    solved = solve_linear(m, -v0)
    result = NormalizationConstants(*[float(v) for v in solved])

    check = extract_series_numerically(atom, result)
    expected_cubic = -3.0 * (2.0 * result.c0 + 15.0)
    if abs(check.c3 - expected_cubic) > 1e-8:
        raise CausalAtomError(
            f"residual cubic coefficient {check.c3} does not match "
            f"-3(2 C0 + 15) = {expected_cubic}")
    return result


# ---------------------------------------------------------------------------
# final shift, reference shift, ratio
# ---------------------------------------------------------------------------

def lineshift_log_bracket(delta_u: float) -> float:
    """Bracket 1 + 2 log(2 delta_u); vanishes exactly at 2 delta_u = e^{-1/2}."""
    if delta_u <= 0:
        raise ValueError("delta_u must be positive")
    return 1.0 + 2.0 * math.log(2.0 * delta_u)


def delta_final(atom: AtomParams) -> float:
    """Line shift with the low-order terms normalized away:
    -(gamma/2pi) [1 + 2 log(2 delta_u)], gamma the leading-order rate."""
    return -gamma_leading(atom) / TWO_PI * lineshift_log_bracket(atom.delta_u)


def lamb_reference(k: PhysicalConstants = CODATA2018) -> float:
    """Reference hydrogen 1s->2p shift (m_e c^2 alpha^5 / pi hbar) *
    (-25.25 + (4/3) ln(alpha^-2)); used as a constant, not re-derived."""
    bracket = -25.25 + (4.0 / 3.0) * math.log(k.alpha ** -2.0)
    return k.m_electron * k.c ** 2 * k.alpha ** 5 / (math.pi * k.hbar) * bracket


@dataclass(frozen=True)
class ShiftRatio:
    value: float       # signed, as propagated from the two shifts
    magnitude: float


def shift_ratio(atom: AtomParams, k: PhysicalConstants = CODATA2018) -> ShiftRatio:
    """delta_final / lamb_reference.  Both the signed value and the magnitude
    are reported: direct sign propagation gives a negative ratio while the
    quoted comparison value is positive (see DISCREPANCY_NOTES['ratio_sign'])."""
    ref = lamb_reference(k)
    if ref == 0.0:
        raise CausalAtomError("reference shift is zero; ratio undefined")
    value = delta_final(atom) / ref
    return ShiftRatio(value=value, magnitude=abs(value))


# ---------------------------------------------------------------------------
# aggregate
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DecayObservables:
    gamma_exact: float
    gamma_leading: float
    delta_shift: float
    lamb_reference: float
    ratio: float
    z_factor: complex

    def __post_init__(self):
        if self.gamma_exact <= 0:
            raise ValueError("gamma_exact must be positive")
        rel = abs(self.gamma_exact / self.gamma_leading - 1.0)
        # exact/leading differ at relative order delta_u; 5x is a generous cap
        if rel > 0.5:
            raise ValueError("gamma_exact and gamma_leading disagree wildly")


def compute_decay_observables(atom: AtomParams,
                              c: NormalizationConstants | None = None) -> DecayObservables:
    if c is None:
        c = solve_normalization(atom)
    return DecayObservables(
        gamma_exact=gamma_exact(atom),
        gamma_leading=gamma_leading(atom),
        delta_shift=delta_final(atom),
        lamb_reference=lamb_reference(atom.constants),
        ratio=shift_ratio(atom, atom.constants).value,
        z_factor=z_factor(atom, c),
    )


# ---------------------------------------------------------------------------
# structured notes every report embeds
# ---------------------------------------------------------------------------

DISCREPANCY_NOTES = {
    "c_ordering": (
        "The quoted normalization assignment lists C1 = -29/6, C2 = 8, but the "
        "displayed linear bracket coefficient 8 - 6 C0 + 6 C2 forces the swapped "
        "ordering: the solved triple is (C0, C1, C2) = (-7/2, 8, -29/6).  This "
        "package solves the vanishing conditions and reports the solved ordering."
    ),
    "gamma_denominator_power": (
        "The displayed exact decay rate carries (1 + delta_u)^5 in the "
        "denominator; direct substitution of u = 1 + delta_u into the "
        "symmetrized self-energy gives power 4.  The difference is the "
        "resonant weight 1/u_res of the slow-atom reduction.  Default output "
        "uses power 5 ('inverse_u' weight); gamma_exact(denominator_power=4) "
        "and z_factor(resonant_weight='unity') expose the other reading."
    ),
    "ratio_sign": (
        "Direct propagation of the two shift formulas gives a negative "
        "shift-to-reference ratio (positive final shift over a negative "
        "reference); the quoted comparison value ~0.055 is positive.  Both the "
        "signed value and the magnitude are reported; acceptance bounds apply "
        "to the magnitude."
    ),
}
